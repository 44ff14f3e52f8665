// Benchmark-side tracing: spans recorded around calls into each engine
// layer, and replays of the engine's statement paths through the layers'
// public functions so that each layer's self time can be measured without
// spans inside the program.
#ifndef SOFTBENCH_TRACE_H_
#define SOFTBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bench_common.h"
#include "engine/softdb.h"

namespace softbench {

/// One timed interval. `parent` indexes the enclosing span (-1 at a root);
/// spans of one statement share `request`.
struct Span {
  std::string name;
  Clock::time_point start;
  Clock::time_point end;
  int parent = -1;
  std::uint64_t request = 0;
};

/// In-memory span recorder for one thread. Spans nest through a stack and
/// are written out only when the run ends.
class Tracer {
 public:
  /// Starts a new statement: later spans carry the next request id.
  void NewRequest() { ++request_; }

  int Begin(const std::string& name);
  void End(int id);

  /// RAII span.
  class Scope {
   public:
    Scope(Tracer* tracer, const std::string& name)
        : tracer_(tracer), id_(tracer->Begin(name)) {}
    ~Scope() { tracer_->End(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int id_;
  };

  const std::vector<Span>& spans() const { return spans_; }

  /// Each span's duration minus the durations of its direct children, µs.
  std::vector<double> SelfMicros() const;

  /// Per request, the summed self time of every span name, µs.
  std::map<std::uint64_t, std::map<std::string, double>> SelfByRequest() const;

  /// Writes every span as JSON lines (times relative to the first span).
  bool WriteJson(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
  std::uint64_t request_ = 0;
};

/// Replays the SELECT `sql`, which `engine` reports as the result of the
/// engine's own execution on `db`, through the public layer functions in
/// the engine's order. A plan-cache miss replays parse, bind, verify,
/// rewrite (primary and backup), certify, plan and execute; a hit replays
/// parse, the epoch check, plan and execute. Returns the replay's rows.
softdb::Result<softdb::RowSet> ReplaySelect(softdb::SoftDb* db,
                                            const std::string& sql,
                                            const softdb::QueryResult& engine,
                                            Tracer* tracer);

/// Replays the single-row INSERT `sql` on `twin` through the insert
/// pipeline's public functions: parse, impact analysis, IC check and
/// append, SC maintenance, materialized-view maintenance and WAL append.
softdb::Status ReplayInsert(softdb::SoftDb* twin, const std::string& sql,
                            Tracer* tracer);

}  // namespace softbench

#endif  // SOFTBENCH_TRACE_H_
