// The three softbench workloads. Each builds its engines from the run's
// seed, hands out seeded per-client statement streams of generated SQL,
// and checks the engine's answers against a reference engine.
#ifndef SOFTBENCH_WORKLOADS_H_
#define SOFTBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "engine/softdb.h"
#include "server/session.h"
#include "trace.h"

namespace softbench {

enum class StmtKind { kRead, kInsert, kUpdate };

/// One generated statement. Writes also carry the written row's key and
/// its full image after the write, which the ingest oracle replays.
struct Stmt {
  StmtKind kind = StmtKind::kRead;
  const char* shape = "";  // Statement shape, for the per-shape summary.
  std::string sql;
  std::int64_t key = 0;
  std::vector<softdb::Value> image;
};

/// A closed-loop client's seeded statement stream and answer checks.
class Client {
 public:
  virtual ~Client() = default;
  virtual Stmt Next() = 0;
  /// Called after each acknowledged statement, outside its latency
  /// window. `tracer` is set in the traced run.
  virtual void Observe(const Stmt& stmt, const softdb::QueryResult& result,
                       Tracer* tracer) = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;

  virtual std::size_t sessions() const = 0;
  /// Statements of the traced run's sample.
  virtual std::size_t trace_statements() const = 0;

  /// Builds the primary engine and the reference engine from `seed`:
  /// data, ANALYZE, SC registration, zone maps, reference answers and
  /// warm-up. `with_twin` also builds the twin the traced run replays
  /// inserts on. `work_dir` holds this run's WAL directories.
  virtual void Setup(std::uint64_t seed, bool with_twin,
                     const std::string& work_dir) = 0;
  /// Destroys every engine and client of the last Setup.
  virtual void Teardown();

  /// Client `id`'s statement stream; ids at or above sessions() belong to
  /// the traced sample and the warm-up, which write disjoint key ranges.
  /// The workload owns the client.
  virtual Client* MakeClient(std::uint64_t stream_seed, std::size_t id) = 0;

  /// Executes one timed-phase statement through `session`.
  virtual softdb::Result<softdb::QueryResult> Run(softdb::Session* session,
                                                  const Stmt& stmt) {
    return session->Execute(stmt.sql);
  }

  /// Post-run correctness checks; the engines are no longer served.
  virtual void Verify() = 0;

  /// After the traced run: the twin must hold what the primary holds.
  virtual void CheckTwin() {}

  softdb::SoftDb* db() { return db_.get(); }
  /// Non-null after Setup(with_twin = true) for workloads that write.
  softdb::SoftDb* twin() { return twin_.get(); }

  /// Rules applied when `sql` was planned (plan-cache hits report none,
  /// so the count is kept from the statement's miss).
  void NoteRules(const std::string& sql, const softdb::QueryResult& result);
  std::size_t RulesFor(const std::string& sql) const;

 protected:
  std::unique_ptr<softdb::SoftDb> db_;
  std::unique_ptr<softdb::SoftDb> twin_;
  std::unique_ptr<softdb::SoftDb> reference_;
  std::vector<std::unique_ptr<Client>> clients_;
  std::map<std::string, std::size_t> rules_;
};

/// Executes `sql` directly on `db`; a failure ends the run (Die).
softdb::QueryResult MustExecute(softdb::SoftDb* db, const std::string& sql);

/// serve_lookup, analytic_sc or ingest_mixed; null for another name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name);

}  // namespace softbench

#endif  // SOFTBENCH_WORKLOADS_H_
