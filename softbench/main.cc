// softbench: end-to-end benchmark of SoftDB as it ships.
//
//   softbench --workload <serve_lookup|analytic_sc|ingest_mixed>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--work-dir <dir>]
//
// Every run sets the workload up several times (set-up time is the median),
// runs its closed-loop clients through SessionManager for --seconds, and
// checks the answers against a reference engine. --trace 1 first runs a
// traced single-client sample that replays each statement through the
// engine's public layer functions, and reports per-layer metrics instead of
// the end-to-end ones. The last line of stdout is the result as JSON.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "server/session.h"
#include "storage/recovery.h"
#include "storage/wal.h"
#include "trace.h"
#include "workloads.h"

namespace softbench {
namespace {

using softdb::QueryResult;
using softdb::Result;
using softdb::SoftDb;

constexpr int kSetups = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir = ".bench_build/work";
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--work-dir") {
      args.work_dir = value;
    } else {
      Die("unknown argument " + key);
    }
  }
  if (argc % 2 != 1) Die("arguments come in --name value pairs");
  if (args.seconds <= 0) Die("--seconds must be positive");
  return args;
}

/// The timed clients use the run seed itself; the traced sample and the
/// server overhead probe draw independent statement streams from it.
std::uint64_t TraceSeed(std::uint64_t seed) { return seed ^ 0x7452414345ULL; }
std::uint64_t ProbeSeed(std::uint64_t seed) { return seed ^ 0x50524F4245ULL; }

/// Engine counters of the traced sample's reads that must repeat exactly
/// for a fixed seed: the sample runs on one client from a fresh set-up.
struct SampleCounts {
  std::uint64_t reads = 0;
  std::uint64_t rows_scanned = 0;
  std::uint64_t rows_output = 0;
  std::uint64_t pages_read = 0;
  std::uint64_t blocks_skipped = 0;
  std::uint64_t blocks_total = 0;
  std::uint64_t rules = 0;
  std::uint64_t certificates = 0;

  void Add(const Workload& wl, const std::string& sql, const QueryResult& r) {
    ++reads;
    rows_scanned += r.exec_stats.rows_scanned;
    rows_output += r.exec_stats.rows_output;
    pages_read += r.exec_stats.pages_read;
    blocks_skipped += r.exec_stats.blocks_skipped;
    blocks_total += r.exec_stats.blocks_total;
    rules += wl.RulesFor(sql);
    certificates += r.exec_stats.certificates_checked;
  }
  /// Names of the counters that differ from `o`.
  std::vector<std::string> Diff(const SampleCounts& o) const {
    std::vector<std::string> out;
    if (reads != o.reads) out.push_back("reads");
    if (rows_scanned != o.rows_scanned || rows_output != o.rows_output) {
      out.push_back("exec.rows_scanned_per_row_out");
    }
    if (pages_read != o.pages_read) out.push_back("exec.pages_read_per_stmt");
    if (blocks_skipped != o.blocks_skipped || blocks_total != o.blocks_total) {
      out.push_back("exec.block_skip_ratio");
    }
    if (rules != o.rules) out.push_back("optimizer.rules_fired_per_stmt");
    if (certificates != o.certificates) {
      out.push_back("analysis.certificates_per_stmt");
    }
    return out;
  }
};

/// The traced sample without tracing or replay, for the repeat check.
SampleCounts CountSample(Workload* wl, std::uint64_t seed) {
  Client* client = wl->MakeClient(TraceSeed(seed), wl->sessions());
  SampleCounts counts;
  for (std::size_t i = 0; i < wl->trace_statements(); ++i) {
    const Stmt stmt = client->Next();
    const QueryResult r = MustExecute(wl->db(), stmt.sql);
    if (stmt.kind == StmtKind::kRead) {
      wl->NoteRules(stmt.sql, r);
      counts.Add(*wl, stmt.sql, r);
    }
    client->Observe(stmt, r, nullptr);
  }
  return counts;
}

struct TraceOutcome {
  SampleCounts counts;
  double qps = 0;
};

/// The traced run: each sampled statement runs on the engine (span
/// "engine"), then its reported path is replayed layer by layer (span
/// "replay"); inserts replay on the twin, updates are mirrored there.
TraceOutcome TracedSample(Workload* wl, std::uint64_t seed, Tracer* tracer) {
  SoftDb* db = wl->db();
  SoftDb* twin = wl->twin();
  Client* client = wl->MakeClient(TraceSeed(seed), wl->sessions());
  TraceOutcome out;
  const Clock::time_point t0 = Clock::now();
  for (std::size_t i = 0; i < wl->trace_statements(); ++i) {
    const Stmt stmt = client->Next();
    tracer->NewRequest();
    QueryResult r;
    {
      Tracer::Scope statement(tracer, "statement");
      {
        Tracer::Scope engine(tracer, "engine");
        r = MustExecute(db, stmt.sql);
      }
      if (stmt.kind == StmtKind::kRead) {
        Result<softdb::RowSet> rows = softdb::Status::Internal("not replayed");
        {
          Tracer::Scope replay(tracer, "replay");
          rows = ReplaySelect(db, stmt.sql, r, tracer);
        }
        if (!rows.ok()) {
          ReportMismatch("replay failed: " + rows.status().ToString() + "\n  " +
                         stmt.sql);
        } else if (ChecksumOf(*rows) != ChecksumOf(r.rows)) {
          ReportMismatch("replay rows differ from the engine's: " + stmt.sql);
        }
      } else if (twin != nullptr && stmt.kind == StmtKind::kInsert) {
        Tracer::Scope replay(tracer, "replay");
        const softdb::Status st = ReplayInsert(twin, stmt.sql, tracer);
        if (!st.ok()) ReportMismatch("insert replay failed: " + st.ToString());
      } else if (twin != nullptr) {
        Tracer::Scope mirror(tracer, "mirror");
        MustExecute(twin, stmt.sql);
      }
    }
    if (stmt.kind == StmtKind::kRead) {
      wl->NoteRules(stmt.sql, r);
      out.counts.Add(*wl, stmt.sql, r);
    }
    client->Observe(stmt, r, tracer);
  }
  out.qps = static_cast<double>(wl->trace_statements()) /
            Seconds(t0, Clock::now());
  wl->CheckTwin();
  return out;
}

/// Median over warm reads of Session::Execute's time minus direct
/// SoftDb::Execute's time for the same statement, one client.
double ServerOverheadUs(Workload* wl, std::uint64_t seed) {
  SoftDb* db = wl->db();
  Client* client = wl->MakeClient(ProbeSeed(seed), wl->sessions() + 3);
  softdb::SessionManager server(db);
  Result<softdb::Session*> session = server.OpenSession("overhead");
  if (!session.ok()) Die("OpenSession: " + session.status().ToString());
  std::vector<double> overhead;
  for (int found = 0, tries = 0; found < 200 && tries < 5000; ++tries) {
    const Stmt stmt = client->Next();
    if (stmt.kind != StmtKind::kRead) continue;
    ++found;
    MustExecute(db, stmt.sql);
    // Whichever path runs second finds warmer caches, so the order
    // alternates.
    for (int rep = 0; rep < 4; ++rep) {
      double served_us = 0, direct_us = 0;
      for (int leg = 0; leg < 2; ++leg) {
        const bool served = (rep + leg) % 2 == 0;
        const Clock::time_point t0 = Clock::now();
        if (served) {
          if (!(*session)->Execute(stmt.sql).ok()) Die("served probe failed");
        } else {
          MustExecute(db, stmt.sql);
        }
        (served ? served_us : direct_us) = Micros(t0, Clock::now());
      }
      overhead.push_back(served_us - direct_us);
    }
  }
  if (!server.Drain().ok()) Die("drain after the overhead probe failed");
  return Median(overhead);
}

struct TimedOutcome {
  std::vector<double> latency_ms;
  std::vector<double> done_s;  // Completion time of each latency sample.
  std::map<std::string, std::vector<double>> shape_ms;
  std::vector<double> read_ms;
  std::vector<double> write_ms;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t backup_reads = 0;
  std::uint64_t inserts = 0;
  double wall_s = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t invalidations = 0;
  std::uint64_t dml_analyzed = 0;
  std::uint64_t dml_narrowed = 0;
  std::uint64_t violations = 0;
  std::uint64_t wal_bytes = 0;
  std::uint64_t wal_fsyncs = 0;
  std::uint64_t queue_depth_max = 0;
};

/// Closed loop: each session's client issues its next statement when the
/// previous one returns, until the deadline.
TimedOutcome TimedPhase(Workload* wl, std::uint64_t seed, double seconds) {
  SoftDb* db = wl->db();
  TimedOutcome out;
  const std::uint64_t hits0 = db->plan_cache().hits();
  const std::uint64_t misses0 = db->plan_cache().misses();
  const std::uint64_t invalidations0 = db->plan_cache().invalidations();
  const std::uint64_t analyzed0 = db->impact_stats().statements.load();
  const std::uint64_t narrowed0 = db->impact_stats().narrowed.load();
  const std::uint64_t violations0 = db->scs().stats().violations.load();
  const softdb::WalStats wal0 =
      db->wal() != nullptr ? db->wal()->stats() : softdb::WalStats{};

  softdb::SessionManager server(db);
  std::vector<Client*> clients;
  std::vector<softdb::Session*> sessions;
  for (std::size_t c = 0; c < wl->sessions(); ++c) {
    clients.push_back(wl->MakeClient(seed, c));
    Result<softdb::Session*> s = server.OpenSession("client-" + std::to_string(c));
    if (!s.ok()) Die("OpenSession: " + s.status().ToString());
    sessions.push_back(*s);
  }
  std::mutex mu;
  std::atomic<int> errors_printed{0};
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  Clock::time_point end = start;
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients.size(); ++c) {
    threads.emplace_back([&, c] {
      TimedOutcome local;
      Clock::time_point done = Clock::now();
      while (done < deadline) {
        const Stmt stmt = clients[c]->Next();
        ++local.attempted;
        const Clock::time_point sent = Clock::now();
        Result<QueryResult> r = wl->Run(sessions[c], stmt);
        done = Clock::now();
        if (!r.ok()) {
          ++local.failed;
          if (errors_printed.fetch_add(1) < 5) {
            std::fprintf(stderr, "softbench: statement failed: %s\n  %s\n",
                         r.status().ToString().c_str(), stmt.sql.c_str());
          }
        } else {
          const double ms = Seconds(sent, done) * 1e3;
          local.latency_ms.push_back(ms);
          local.done_s.push_back(Seconds(start, done));
          local.shape_ms[stmt.shape].push_back(ms);
          if (stmt.kind == StmtKind::kRead) {
            local.read_ms.push_back(ms);
            if (r->used_backup_plan) ++local.backup_reads;
          } else {
            local.write_ms.push_back(ms);
            if (stmt.kind == StmtKind::kInsert) ++local.inserts;
          }
          clients[c]->Observe(stmt, *r, nullptr);
        }
      }
      std::lock_guard<std::mutex> lk(mu);
      end = std::max(end, done);
      auto append = [](std::vector<double>* to, const std::vector<double>& from) {
        to->insert(to->end(), from.begin(), from.end());
      };
      append(&out.latency_ms, local.latency_ms);
      append(&out.done_s, local.done_s);
      append(&out.read_ms, local.read_ms);
      append(&out.write_ms, local.write_ms);
      for (const auto& [shape, ms] : local.shape_ms) append(&out.shape_ms[shape], ms);
      out.attempted += local.attempted;
      out.failed += local.failed;
      out.backup_reads += local.backup_reads;
      out.inserts += local.inserts;
    });
  }
  for (std::thread& t : threads) t.join();
  out.wall_s = Seconds(start, end);
  out.queue_depth_max = server.stats().queue_depth_high_water.load();
  if (!server.Drain().ok()) Die("drain failed");
  out.hits = db->plan_cache().hits() - hits0;
  out.misses = db->plan_cache().misses() - misses0;
  out.invalidations = db->plan_cache().invalidations() - invalidations0;
  out.dml_analyzed = db->impact_stats().statements.load() - analyzed0;
  out.dml_narrowed = db->impact_stats().narrowed.load() - narrowed0;
  out.violations = db->scs().stats().violations.load() - violations0;
  if (db->wal() != nullptr) {
    const softdb::WalStats wal1 = db->wal()->stats();
    out.wal_bytes = wal1.bytes_appended - wal0.bytes_appended;
    out.wal_fsyncs = wal1.fsyncs - wal0.fsyncs;
  }
  return out;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Throughput and latency quantiles as medians over equal time windows of
/// the timed phase, so a short stall of the host moves one window rather
/// than the run. Each window keeps at least kMinWindowSamples statements,
/// which leaves 10 samples above the 99th percentile; a run with fewer
/// statements is one window.
struct Figures {
  double qps = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  std::size_t windows = 1;
};

Figures WindowedFigures(const TimedOutcome& t) {
  constexpr std::size_t kMinWindowSamples = 1000;
  constexpr std::size_t kMaxWindows = 10;
  Figures f;
  f.windows = std::clamp<std::size_t>(t.latency_ms.size() / kMinWindowSamples,
                                      1, kMaxWindows);
  const double width = t.wall_s / static_cast<double>(f.windows);
  std::vector<std::vector<double>> per(f.windows);
  for (std::size_t i = 0; i < t.latency_ms.size(); ++i) {
    const std::size_t w = std::min(
        f.windows - 1, static_cast<std::size_t>(t.done_s[i] / width));
    per[w].push_back(t.latency_ms[i]);
  }
  std::vector<double> qps, p50, p99;
  for (const std::vector<double>& ms : per) {
    qps.push_back(static_cast<double>(ms.size()) / width);
    p50.push_back(Quantile(ms, 0.50));
    p99.push_back(Quantile(ms, 0.99));
  }
  f.qps = Median(qps);
  f.p50_ms = Median(p50);
  f.p99_ms = Median(p99);
  return f;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(std::uint64_t attempted, std::uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += AllCorrect() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%.17g", metrics[i].value);
    json += (i > 0 ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
            buf + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

int Run(const Args& args) {
  std::unique_ptr<Workload> wl = MakeWorkload(args.workload);
  if (wl == nullptr) Die("unknown workload " + args.workload);
  std::error_code ec;
  std::filesystem::create_directories(args.work_dir, ec);
  if (ec) Die("cannot create " + args.work_dir + ": " + ec.message());

  // Set-up, repeated; with --trace 1 the discarded set-ups also run the
  // traced sample engine-only, so its counts can be checked for repeats.
  std::vector<double> setup_s;
  std::vector<SampleCounts> repeats;
  for (int i = 0; i < kSetups; ++i) {
    wl->Teardown();
    const bool last = i + 1 == kSetups;
    const Clock::time_point t0 = Clock::now();
    wl->Setup(args.seed, args.trace && last, args.work_dir);
    setup_s.push_back(Seconds(t0, Clock::now()));
    std::fprintf(stderr, "softbench: set-up %d took %.3fs\n", i + 1, setup_s.back());
    if (args.trace && !last) repeats.push_back(CountSample(wl.get(), args.seed));
  }

  std::vector<Metric> layers;
  Tracer tracer;
  TraceOutcome traced;
  if (args.trace) traced = TracedSample(wl.get(), args.seed, &tracer);

  const TimedOutcome timed = TimedPhase(wl.get(), args.seed, args.seconds);
  const Figures fig = WindowedFigures(timed);
  const double qps = fig.qps;
  const double p50 = fig.p50_ms;
  const double p99 = fig.p99_ms;
  const double hit_ratio =
      Ratio(static_cast<double>(timed.hits),
            static_cast<double>(timed.hits + timed.misses));
  const std::size_t cache_entries = wl->db()->plan_cache().size();
  std::printf(
      "%s seed=%llu: %zu statements in %.2fs, %.1f qps, p50 %.4f ms, p99 "
      "%.4f ms (medians of %zu windows; %zu reads, %zu writes), %llu failed, "
      "set-up %.3fs (median of %d), plan-cache hit ratio %.4f, %zu cache "
      "entries\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      timed.latency_ms.size(), timed.wall_s, qps, p50, p99, fig.windows,
      timed.read_ms.size(), timed.write_ms.size(),
      static_cast<unsigned long long>(timed.failed), Median(setup_s), kSetups,
      hit_ratio, cache_entries);

  for (const auto& [shape, ms] : timed.shape_ms) {
    std::printf("  %-28s %7zu statements (%5.1f%%)  p50 %9.4f ms  p99 %9.4f ms\n",
                shape.c_str(), ms.size(),
                100.0 * static_cast<double>(ms.size()) /
                    static_cast<double>(timed.latency_ms.size()),
                Quantile(ms, 0.5), Quantile(ms, 0.99));
  }

  if (args.trace) {
    const double overhead_us = ServerOverheadUs(wl.get(), args.seed);
    // Per-layer self times: medians over the sampled statements that ran
    // the layer.
    std::map<std::string, std::vector<double>> per_layer;
    double engine_us = 0, replayed_us = 0;
    for (const auto& [request, self] : tracer.SelfByRequest()) {
      (void)request;
      double stages = 0;
      for (const auto& [name, us] : self) {
        per_layer[name].push_back(us);
        if (name != "statement" && name != "engine" && name != "replay" &&
            name != "mirror" && name != "constraints.repair") {
          stages += us;
        }
      }
      if (self.count("replay") != 0) {
        engine_us += self.at("engine");
        replayed_us += stages;
      }
    }
    auto layer = [&](const std::string& span) { return Median(per_layer[span]); };
    const SampleCounts& c = traced.counts;
    std::vector<std::string> unrepeated;
    for (const SampleCounts& r : repeats) {
      for (const std::string& name : c.Diff(r)) {
        if (std::find(unrepeated.begin(), unrepeated.end(), name) ==
            unrepeated.end()) {
          unrepeated.push_back(name);
        }
      }
    }
    for (const std::string& name : unrepeated) {
      std::fprintf(stderr,
                   "softbench: FLAG: %s did not repeat across set-ups of "
                   "seed %llu\n",
                   name.c_str(), static_cast<unsigned long long>(args.seed));
    }
    const double reads = static_cast<double>(c.reads);
    const double writes = static_cast<double>(timed.write_ms.size());
    layers = {
        {"server.overhead_us", overhead_us, "us"},
        {"server.queue_depth_max", static_cast<double>(timed.queue_depth_max), "count"},
        {"sql.parse_us", layer("sql.parse"), "us"},
        {"sql.bind_us", layer("sql.bind"), "us"},
        {"optimizer.rewrite_us", layer("optimizer.rewrite"), "us"},
        {"optimizer.plan_us", layer("optimizer.plan"), "us"},
        {"optimizer.plan_cache_hit_ratio", hit_ratio, "ratio"},
        {"optimizer.plan_cache_entries", static_cast<double>(cache_entries), "count"},
        {"optimizer.plan_cache_invalidations_per_1k_writes",
         Ratio(1000.0 * static_cast<double>(timed.invalidations), writes), "count"},
        {"optimizer.rules_fired_per_stmt", Ratio(static_cast<double>(c.rules), reads), "count"},
        {"analysis.verify_us", layer("analysis.verify"), "us"},
        {"analysis.certify_us", layer("analysis.certify"), "us"},
        {"analysis.certificates_per_stmt", Ratio(static_cast<double>(c.certificates), reads), "count"},
        {"analysis.impact_us", layer("analysis.impact"), "us"},
        {"analysis.impact_narrowed_share",
         Ratio(static_cast<double>(timed.dml_narrowed),
               static_cast<double>(timed.dml_analyzed)), "ratio"},
        {"exec.execute_us", layer("exec.execute"), "us"},
        {"exec.rows_scanned_per_row_out",
         Ratio(static_cast<double>(c.rows_scanned), static_cast<double>(c.rows_output)), "ratio"},
        {"exec.pages_read_per_stmt", Ratio(static_cast<double>(c.pages_read), reads), "count"},
        {"exec.block_skip_ratio",
         Ratio(static_cast<double>(c.blocks_skipped), static_cast<double>(c.blocks_total)), "ratio"},
        {"constraints.maintain_us", layer("constraints.maintain"), "us"},
        {"constraints.repair_us", layer("constraints.repair"), "us"},
        {"constraints.violations_per_1k_writes",
         Ratio(1000.0 * static_cast<double>(timed.violations), writes), "count"},
        {"constraints.backup_plan_share",
         Ratio(static_cast<double>(timed.backup_reads),
               static_cast<double>(timed.read_ms.size())), "ratio"},
        {"storage.append_us", layer("storage.append"), "us"},
        {"storage.wal_append_us", layer("storage.wal_append"), "us"},
        {"storage.wal_fsyncs_per_1k_rows",
         Ratio(1000.0 * static_cast<double>(timed.wal_fsyncs), static_cast<double>(timed.inserts)), "count"},
        {"ingest.write_latency_p99_ms", Quantile(timed.write_ms, 0.99), "ms"},
        {"ingest.read_latency_p99_ms",
         timed.write_ms.empty() ? 0.0 : Quantile(timed.read_ms, 0.99), "ms"},
        {"ingest.wal_bytes_per_row",
         Ratio(static_cast<double>(timed.wal_bytes), static_cast<double>(timed.inserts)), "B"},
        {"trace.coverage", Ratio(replayed_us, engine_us), "ratio"},
        {"trace.overhead_pct", 100.0 * (1.0 - Ratio(traced.qps, qps)), "%"},
        {"trace.counts_repeat", unrepeated.empty() ? 1.0 : 0.0, "bool"},
    };
    const std::string out = args.work_dir + "/trace-" + args.workload + "-" +
                            std::to_string(args.seed) + ".jsonl";
    if (!tracer.WriteJson(out)) Die("cannot write " + out);
    std::printf("trace: %zu spans written to %s\n", tracer.spans().size(),
                out.c_str());
  }

  wl->Verify();
  wl->Teardown();
  std::filesystem::remove_all(args.work_dir + "/wal", ec);
  std::filesystem::remove_all(args.work_dir + "/wal_twin", ec);

  if (args.trace) {
    PrintResult(timed.attempted, timed.failed, layers);
  } else {
    PrintResult(timed.attempted, timed.failed,
                {{"throughput_qps", qps, "1/s"},
                 {"latency_p50_ms", p50, "ms"},
                 {"latency_p99_ms", p99, "ms"},
                 {"success_rate",
                  Ratio(static_cast<double>(timed.attempted - timed.failed),
                        static_cast<double>(timed.attempted)),
                  "ratio"},
                 {"setup_s", Median(setup_s), "s"},
                 {"peak_rss_mb", PeakRssMb(), "MiB"}});
  }
  return 0;
}

}  // namespace
}  // namespace softbench

int main(int argc, char** argv) {
  return softbench::Run(softbench::ParseArgs(argc, argv));
}
