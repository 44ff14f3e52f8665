#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <mutex>
#include <shared_mutex>

#include "common/date.h"
#include "common/str_util.h"
#include "constraints/soft_constraint.h"
#include "workload/generator.h"
#include "workload/sc_kit.h"

namespace softbench {

using softdb::EngineOptions;
using softdb::QueryResult;
using softdb::Result;
using softdb::Rng;
using softdb::SoftDb;
using softdb::StrFormat;
using softdb::Value;

QueryResult MustExecute(SoftDb* db, const std::string& sql) {
  Result<QueryResult> r = db->Execute(sql);
  if (!r.ok()) Die("statement failed: " + r.status().ToString() + "\n  " + sql);
  return *std::move(r);
}

void Workload::Teardown() {
  clients_.clear();
  db_.reset();
  twin_.reset();
  reference_.reset();
  rules_.clear();
}

void Workload::NoteRules(const std::string& sql, const QueryResult& result) {
  if (!result.from_plan_cache) rules_[sql] = result.applied_rules.size();
}

std::size_t Workload::RulesFor(const std::string& sql) const {
  auto it = rules_.find(sql);
  return it == rules_.end() ? 0 : it->second;
}

namespace {

constexpr std::int64_t kShipWindowDays = 21;

/// The generator's StandardScale() sizes times `factor`, with every
/// purchase shipped inside the window so the ship-window SC is absolute.
softdb::WorkloadOptions Scale(std::uint64_t seed, std::size_t factor) {
  softdb::WorkloadOptions options;
  options.seed = seed;
  options.customers = 1000 * factor;
  options.orders = 10000 * factor;
  options.purchases = 20000 * factor;
  options.parts = 2000 * factor;
  options.projects = 5000 * factor;
  options.sales_per_month = 500 * factor;
  options.ship_conf = 1.0;
  options.ship_window = static_cast<int>(kShipWindowDays);
  return options;
}

/// The oracle: the same data with every SC-driven rule, zone maps, the
/// plan cache and the batch engine off, and no soft constraints.
EngineOptions ReferenceOptions() {
  EngineOptions o;
  o.use_plan_cache = false;
  o.enable_predicate_introduction = false;
  o.enable_twinning = false;
  o.enable_join_elimination = false;
  o.enable_fd_pruning = false;
  o.enable_hole_trimming = false;
  o.enable_domain_rules = false;
  o.enable_unionall_pruning = false;
  o.enable_exception_asts = false;
  o.enable_implication = false;
  o.enable_impact_analysis = false;
  o.use_twins_in_estimation = false;
  o.enable_zone_maps = false;
  o.enable_runtime_parameterization = false;
  o.use_vectorized = false;
  return o;
}

void Must(const softdb::Status& st, const std::string& what) {
  if (!st.ok()) Die(what + ": " + st.ToString());
}

std::unique_ptr<SoftDb> Generate(const softdb::WorkloadOptions& options,
                                 EngineOptions engine_options = {}) {
  auto db = std::make_unique<SoftDb>(engine_options);
  Must(softdb::GenerateWorkload(db.get(), options), "workload generation");
  return db;
}

std::string DateLit(std::int64_t days) { return Value::Date(days).ToString(); }

std::int64_t BaseDate() { return softdb::Date::FromYmd(1999, 1, 1); }

/// Picks an index by integer weights.
std::size_t PickWeighted(const std::vector<int>& weights, Rng* rng) {
  int total = 0;
  for (int w : weights) total += w;
  std::int64_t x = rng->Uniform(0, total - 1);
  for (std::size_t i = 0; i < weights.size(); ++i) {
    if (x < weights[i]) return i;
    x -= weights[i];
  }
  return weights.size() - 1;
}

// ------------------------------------------------------------ serve_lookup

// Short probes with Zipf-drawn literals over each key domain: PK point
// lookups, an E1-shape ship_date probe (predicate introduction), an
// E2-shape orders x customer probe (join hole) and a narrow pu_key range
// (zone maps). About 40k distinct texts, so the unbounded plan cache keeps
// growing through the run.
class ServeLookup : public Workload {
 public:
  std::size_t sessions() const override { return 4; }
  std::size_t trace_statements() const override { return 3000; }

  void Setup(std::uint64_t seed, bool with_twin,
             const std::string& work_dir) override {
    (void)with_twin;
    (void)work_dir;
    const softdb::WorkloadOptions options = Scale(seed, 1);
    db_ = Generate(options);
    Must(softdb::RegisterShipWindowSc(db_.get(), kShipWindowDays).status(),
         "ship-window SC");
    Must(softdb::RegisterOrdersHoleSc(db_.get()).status(), "orders hole SC");
    Must(db_->MineZoneMaps("purchase"), "purchase zone maps");
    reference_ = Generate(options, ReferenceOptions());
    Client* warm = MakeClient(seed ^ 0x5741524DULL, sessions() + 1);
    for (int i = 0; i < 500; ++i) {
      const Stmt stmt = warm->Next();
      NoteRules(stmt.sql, MustExecute(db_.get(), stmt.sql));
    }
  }

  Client* MakeClient(std::uint64_t stream_seed, std::size_t id) override {
    clients_.push_back(std::make_unique<LookupClient>(stream_seed, id));
    return clients_.back().get();
  }

  void Verify() override {
    std::size_t checked = 0;
    for (const auto& c : clients_) {
      for (const auto& [sql, sum] : static_cast<LookupClient*>(c.get())->sample) {
        const QueryResult ref = MustExecute(reference_.get(), sql);
        if (ChecksumOf(ref.rows) != sum) {
          ReportMismatch("serve_lookup answer differs from the reference: " +
                         sql + " (engine " + sum.ToString() + ", reference " +
                         ChecksumOf(ref.rows).ToString() + ")");
        }
        ++checked;
      }
    }
    std::printf("serve_lookup: %zu sampled answers checked against the reference\n",
                checked);
  }

 private:
  class LookupClient : public Client {
   public:
    LookupClient(std::uint64_t seed, std::size_t id)
        : rng_(seed * 0x9E3779B97F4A7C15ULL + id + 1) {}

    Stmt Next() override {
      Stmt s;
      switch (PickWeighted({25, 15, 10, 20, 10, 20}, &rng_)) {
        case 0:
          s.shape = "pk_purchase";
          s.sql = StrFormat("SELECT * FROM purchase WHERE pu_key = %zu",
                            purchase_keys_.Draw(&rng_));
          break;
        case 1:
          s.shape = "pk_orders";
          s.sql = StrFormat("SELECT * FROM orders WHERE o_orderkey = %zu",
                            order_keys_.Draw(&rng_));
          break;
        case 2:
          s.shape = "pk_customer";
          s.sql = StrFormat("SELECT * FROM customer WHERE c_custkey = %zu",
                            customer_keys_.Draw(&rng_));
          break;
        case 3:
          s.shape = "e1_ship_date_probe";
          s.sql = "SELECT pu_key, order_date, quantity FROM purchase WHERE "
                  "ship_date = " +
                  DateLit(BaseDate() +
                          static_cast<std::int64_t>(days_.Draw(&rng_)));
          break;
        case 4: {
          s.shape = "e2_join_hole_probe";
          const std::size_t a = price_bands_.Draw(&rng_) * 500;
          const std::size_t b = balance_bands_.Draw(&rng_) * 500;
          s.sql = StrFormat(
              "SELECT o_orderkey, c_custkey FROM orders JOIN customer ON "
              "o_custkey = c_custkey WHERE o_totalprice BETWEEN %zu AND %zu "
              "AND c_acctbal BETWEEN %zu AND %zu",
              a, a + 250, b, b + 250);
          break;
        }
        default: {
          s.shape = "zone_map_range";
          const std::size_t lo = range_starts_.Draw(&rng_) * 8;
          const std::size_t width = std::size_t{16} << rng_.Uniform(0, 2);
          s.sql = StrFormat(
              "SELECT pu_key, quantity, price FROM purchase WHERE pu_key "
              "BETWEEN %zu AND %zu",
              lo, lo + width - 1);
          break;
        }
      }
      return s;
    }

    void Observe(const Stmt& stmt, const QueryResult& result,
                 Tracer* tracer) override {
      (void)tracer;
      // A seeded one-in-32 sample, capped, is checked after the run.
      if (sample.size() < 300 && rng_.Uniform(0, 31) == 0) {
        sample.emplace_back(stmt.sql, ChecksumOf(result.rows));
      }
    }

    std::vector<std::pair<std::string, Checksum>> sample;

   private:
    Rng rng_;
    Zipf purchase_keys_{20000, 0.9};
    Zipf order_keys_{10000, 0.9};
    Zipf customer_keys_{1000, 0.9};
    Zipf days_{760, 0.9};
    Zipf price_bands_{40, 0.9};
    Zipf balance_bands_{20, 0.9};
    Zipf range_starts_{2500, 0.9};
  };
};

// ------------------------------------------------------------- analytic_sc

/// One fixed statement of the analytic mix. `rule` is the applied-rule
/// substring an SC-exploiting shape must report when planned; a control
/// shape (`control`) must report no rule; "zone-map" is checked through
/// ExecStats block skips, which physical planning records.
struct AnalyticShape {
  const char* name;
  int weight;
  const char* rule;
  bool control;
  std::string sql;
};

std::string UnionAllMonths(const char* lo, const char* hi) {
  std::string sql;
  for (int m = 1; m <= 12; ++m) {
    if (m > 1) sql += " UNION ALL ";
    sql += StrFormat(
        "SELECT sale_id, amount FROM sales_m%d WHERE sale_date BETWEEN "
        "DATE '%s' AND DATE '%s'",
        m, lo, hi);
  }
  return sql;
}

// The paper's shapes at 4x scale, one session, fixed texts: after warm-up
// every statement is a plan-cache hit and execution dominates.
class AnalyticSc : public Workload {
 public:
  AnalyticSc() {
    // Weights put the median inside e2_outside_hole's band (45-55% of
    // the latency-sorted mix) and the 99th percentile inside the purchase
    // GROUP BY, the slowest shape, so neither sits on a boundary between
    // two shapes.
    shapes_ = {
        {"e1_predicate_introduction", 9, "predicate-introduction", false,
         "SELECT * FROM purchase WHERE ship_date = DATE '1999-12-15'"},
        {"e2_inside_hole", 9, "join-hole-prune", false,
         "SELECT o_orderkey FROM orders JOIN customer ON o_custkey = "
         "c_custkey WHERE o_totalprice BETWEEN 8500 AND 9500 AND c_acctbal "
         "BETWEEN 500 AND 1500"},
        {"e2_outside_hole", 10, "", true,
         "SELECT o_orderkey FROM orders JOIN customer ON o_custkey = "
         "c_custkey WHERE o_totalprice BETWEEN 12000 AND 12500 AND c_acctbal "
         "BETWEEN 500 AND 1500"},
        {"e3_join_elimination", 9, "join-elimination", false,
         "SELECT o_orderkey, o_totalprice FROM orders JOIN customer ON "
         "o_custkey = c_custkey WHERE o_totalprice > 19500"},
        {"e3_parent_column_control", 9, "", true,
         "SELECT o_orderkey, c_acctbal FROM orders JOIN customer ON "
         "o_custkey = c_custkey WHERE o_totalprice > 19500"},
        {"e6_fd_groupby", 10, "fd-groupby-prune", false,
         "SELECT c_nationkey, c_regionkey, COUNT(*) AS n FROM customer "
         "GROUP BY c_nationkey, c_regionkey ORDER BY c_nationkey"},
        {"e6_fd_orderby", 9, "fd-orderby-prune", false,
         "SELECT c_custkey, c_nationkey, c_regionkey FROM customer ORDER BY "
         "c_nationkey, c_regionkey, c_custkey"},
        {"e6_region_first_control", 9, "", true,
         "SELECT c_custkey FROM customer ORDER BY c_regionkey, c_custkey"},
        {"e10_unionall_knockoff", 9, "unionall-knockoff", false,
         UnionAllMonths("1999-05-01", "1999-05-31")},
        {"zone_map_scan_filter", 9, "zone-map", false,
         "SELECT pu_key, quantity, price FROM purchase WHERE pu_key BETWEEN "
         "40000 AND 44000 AND quantity < 25 AND discount > 0.05"},
        {"purchase_groupby", 8, "", false,
         "SELECT quantity, COUNT(*) AS n, SUM(price) AS revenue FROM "
         "purchase GROUP BY quantity"},
    };
  }

  std::size_t sessions() const override { return 1; }
  std::size_t trace_statements() const override { return 400; }

  void Setup(std::uint64_t seed, bool with_twin,
             const std::string& work_dir) override {
    (void)with_twin;
    (void)work_dir;
    const softdb::WorkloadOptions options = Scale(seed, 4);
    db_ = Generate(options);
    Must(softdb::RegisterShipWindowSc(db_.get(), kShipWindowDays).status(),
         "ship-window SC");
    Must(softdb::RegisterOrdersHoleSc(db_.get()).status(), "orders hole SC");
    Must(softdb::RegisterCustomerRegionFd(db_.get()).status(), "customer FD");
    Must(db_->MineZoneMaps("purchase"), "purchase zone maps");
    reference_ = Generate(options, ReferenceOptions());
    answers_.clear();
    for (const AnalyticShape& shape : shapes_) {
      answers_[shape.sql] =
          ChecksumOf(MustExecute(reference_.get(), shape.sql).rows);
    }
    // Warm-up: plan every text once; this is where each shape's rewrite
    // is checked, because cache hits carry no applied rules.
    for (const AnalyticShape& shape : shapes_) {
      const QueryResult r = MustExecute(db_.get(), shape.sql);
      NoteRules(shape.sql, r);
      CheckShape(shape, r);
      CheckAnswer(shape.sql, r);
    }
  }

  Client* MakeClient(std::uint64_t stream_seed, std::size_t id) override {
    clients_.push_back(std::make_unique<MixClient>(this, stream_seed, id));
    return clients_.back().get();
  }

  void Verify() override {}

 private:
  void CheckShape(const AnalyticShape& shape, const QueryResult& r) {
    std::string rules;
    for (const std::string& rule : r.applied_rules) rules += rule + "; ";
    if (r.from_plan_cache) {
      ReportMismatch(std::string("analytic_sc: ") + shape.name +
                     " was not planned at warm-up");
    } else if (shape.control) {
      if (!r.applied_rules.empty()) {
        ReportMismatch(std::string("analytic_sc: control shape ") +
                       shape.name + " applied rules: " + rules);
      }
    } else if (std::string(shape.rule) == "zone-map") {
      if (r.exec_stats.blocks_skipped == 0) {
        ReportMismatch(std::string("analytic_sc: ") + shape.name +
                       " skipped no zone-map blocks");
      }
    } else if (shape.rule[0] != '\0' && rules.find(shape.rule) == std::string::npos) {
      ReportMismatch(std::string("analytic_sc: ") + shape.name +
                     " did not apply " + shape.rule + " (applied: " + rules +
                     ")");
    }
  }

  void CheckAnswer(const std::string& sql, const QueryResult& r) {
    auto it = answers_.find(sql);
    if (it == answers_.end() || ChecksumOf(r.rows) != it->second) {
      ReportMismatch("analytic_sc answer differs from the reference: " + sql);
    }
  }

  /// Deals the shapes from a seeded, shuffled deck holding `weight`
  /// copies of each, so every run's mix has the weights' exact shares
  /// (up to one partial deck) and only the order depends on the seed.
  class MixClient : public Client {
   public:
    MixClient(AnalyticSc* owner, std::uint64_t seed, std::size_t id)
        : owner_(owner), rng_(seed * 0x9E3779B97F4A7C15ULL + id + 1) {
      for (std::size_t i = 0; i < owner_->shapes_.size(); ++i) {
        deck_.insert(deck_.end(),
                     static_cast<std::size_t>(owner_->shapes_[i].weight), i);
      }
      next_ = deck_.size();
    }
    Stmt Next() override {
      if (next_ == deck_.size()) {
        for (std::size_t i = deck_.size() - 1; i > 0; --i) {
          std::swap(deck_[i], deck_[static_cast<std::size_t>(
                                  rng_.Uniform(0, static_cast<std::int64_t>(i)))]);
        }
        next_ = 0;
      }
      const AnalyticShape& shape = owner_->shapes_[deck_[next_++]];
      Stmt s;
      s.shape = shape.name;
      s.sql = shape.sql;
      return s;
    }
    void Observe(const Stmt& stmt, const QueryResult& result,
                 Tracer* tracer) override {
      (void)tracer;
      owner_->CheckAnswer(stmt.sql, result);
    }

   private:
    AnalyticSc* owner_;
    Rng rng_;
    std::vector<std::size_t> deck_;
    std::size_t next_ = 0;
  };

  std::vector<AnalyticShape> shapes_;
  std::map<std::string, Checksum> answers_;
};

// ------------------------------------------------------------ ingest_mixed

constexpr std::int64_t kIngestKeyBase = 1000000;   // Above every loaded key.
constexpr std::int64_t kIngestKeySpan = 1000000;   // Keys per client.
constexpr std::uint64_t kMaintenanceEvery = 100;   // Writes per repair pass.

// Writes beside reads on one table: single-row INSERTs into purchase (a
// seeded ~1% ships late and overturns the ship-window ASC, and the next
// statement of that client corrects it), UPDATEs of the client's own rows,
// and E1/zone-map reads that consume the SCs the writes maintain. The WAL
// is on with group commit every 32 records.
class IngestMixed : public Workload {
 public:
  std::size_t sessions() const override { return 2; }
  std::size_t trace_statements() const override { return 2000; }

  void Setup(std::uint64_t seed, bool with_twin,
             const std::string& work_dir) override {
    const softdb::WorkloadOptions options = Scale(seed, 1);
    wal_dir_ = work_dir + "/wal";
    db_ = Build(options, wal_dir_);
    if (with_twin) twin_ = Build(options, work_dir + "/wal_twin");
    reference_ = Generate(options, ReferenceOptions());
    writes_.store(0);
  }

  Client* MakeClient(std::uint64_t stream_seed, std::size_t id) override {
    clients_.push_back(
        std::make_unique<IngestClient>(this, stream_seed, id));
    return clients_.back().get();
  }

  // The engine's threading contract (DESIGN.md §8) leaves serializing DML
  // against other access to the same table to the caller, so the client
  // side holds purchase's reader/writer lock around each statement.
  Result<QueryResult> Run(softdb::Session* session, const Stmt& stmt) override {
    if (stmt.kind == StmtKind::kRead) {
      std::shared_lock<std::shared_mutex> lk(table_mu_);
      return session->Execute(stmt.sql);
    }
    std::unique_lock<std::shared_mutex> lk(table_mu_);
    return session->Execute(stmt.sql);
  }

  void Verify() override {
    // Reads answer as the reference does once it holds the same writes.
    std::map<std::int64_t, std::vector<Value>> images;
    for (const auto& c : clients_) {
      for (const auto& [key, image] : static_cast<IngestClient*>(c.get())->images) {
        images[key] = image;
      }
    }
    for (const auto& [key, image] : images) {
      std::string sql = "INSERT INTO purchase VALUES (";
      for (std::size_t i = 0; i < image.size(); ++i) {
        sql += (i > 0 ? ", " : "") + Literal(image[i]);
      }
      MustExecute(reference_.get(), sql + ")");
    }
    Client* probe = MakeClient(0x52454144ULL, sessions() + 2);
    std::size_t reads = 0;
    for (int i = 0; i < 2000 && reads < 100; ++i) {
      const Stmt stmt = probe->Next();
      if (stmt.kind != StmtKind::kRead) continue;
      ++reads;
      if (ChecksumOf(MustExecute(db_.get(), stmt.sql).rows) !=
          ChecksumOf(MustExecute(reference_.get(), stmt.sql).rows)) {
        ReportMismatch("ingest_mixed read differs from the reference: " +
                       stmt.sql);
      }
    }
    // Durability: every acknowledged write survives recovery from the WAL
    // directory alone, and the live, recovered and reference engines hold
    // the same rows.
    const std::map<std::string, Checksum> live = TableChecksums(db_.get());
    db_.reset();
    Result<std::unique_ptr<SoftDb>> recovered = SoftDb::Recover(wal_dir_);
    if (!recovered.ok()) {
      ReportMismatch("ingest_mixed recovery failed: " +
                     recovered.status().ToString());
      return;
    }
    const std::map<std::string, Checksum> rec = TableChecksums(recovered->get());
    const std::map<std::string, Checksum> ref = TableChecksums(reference_.get());
    for (const auto& [table, sum] : live) {
      if (rec.count(table) == 0 || rec.at(table) != sum) {
        ReportMismatch("ingest_mixed: recovered " + table +
                       " differs from the live engine");
      }
      if (ref.count(table) == 0 || ref.at(table) != sum) {
        ReportMismatch("ingest_mixed: live " + table +
                       " differs from the reference fed the same writes");
      }
    }
    std::printf("ingest_mixed: %zu written keys, %zu reads checked, recovery "
                "matched %zu tables\n",
                images.size(), reads, live.size());
  }

  /// Twin and primary hold the same rows and SC lifecycle states.
  void CheckTwin() override {
    if (twin_ == nullptr) return;
    if (TableChecksums(db_.get()) != TableChecksums(twin_.get())) {
      ReportMismatch("ingest_mixed: twin tables differ from the primary's");
    }
    for (const softdb::SoftConstraint* sc : db_->scs().All()) {
      const softdb::SoftConstraint* t = twin_->scs().Find(sc->name());
      if (t == nullptr || t->state() != sc->state() ||
          t->epoch() != sc->epoch() || t->confidence() != sc->confidence()) {
        ReportMismatch("ingest_mixed: twin SC state differs: " + sc->name());
      }
    }
  }

 private:
  static std::unique_ptr<SoftDb> Build(const softdb::WorkloadOptions& options,
                                       const std::string& wal_dir) {
    std::error_code ec;
    std::filesystem::remove_all(wal_dir, ec);
    std::filesystem::create_directories(wal_dir, ec);
    EngineOptions engine_options;
    engine_options.wal_dir = wal_dir;
    engine_options.wal_sync_every_n = 32;
    std::unique_ptr<SoftDb> db = Generate(options, engine_options);
    Result<std::string> ship =
        softdb::RegisterShipWindowSc(db.get(), kShipWindowDays);
    Must(ship.status(), "ship-window SC");
    db->scs().Find(*ship)->set_policy(
        softdb::ScMaintenancePolicy::kAsyncRepair);
    Must(db->MineZoneMaps("purchase"), "purchase zone maps");
    Must(softdb::RegisterCustomerRegionFd(db.get()).status(), "customer FD");
    Must(softdb::RegisterOrdersHoleSc(db.get()).status(), "orders hole SC");
    // The generated data bypasses the log; the checkpoint makes it durable.
    Must(db->Checkpoint(), "checkpoint");
    return db;
  }

  static std::map<std::string, Checksum> TableChecksums(SoftDb* db) {
    std::map<std::string, Checksum> out;
    for (const std::string& name : db->catalog().TableNames()) {
      Result<softdb::Table*> t = db->catalog().GetTable(name);
      if (t.ok()) out[name] = ChecksumOf(**t);
    }
    return out;
  }

  static std::string Literal(const Value& v) {
    if (v.type() == softdb::TypeId::kDouble) {
      return StrFormat("%.17g", v.AsDouble());
    }
    return v.ToString();
  }

  /// Runs the repair queue every kMaintenanceEvery acknowledged writes,
  /// on the twin too in the traced run.
  void AfterWrite(Tracer* tracer) {
    if ((writes_.fetch_add(1) + 1) % kMaintenanceEvery != 0) return;
    std::shared_lock<std::shared_mutex> lk(table_mu_);
    if (tracer != nullptr) {
      tracer->NewRequest();
      Tracer::Scope span(tracer, "constraints.repair");
      Must(db_->RunMaintenance(), "maintenance");
    } else {
      Must(db_->RunMaintenance(), "maintenance");
    }
    if (tracer != nullptr && twin_ != nullptr) {
      Must(twin_->RunMaintenance(), "twin maintenance");
    }
  }

  class IngestClient : public Client {
   public:
    IngestClient(IngestMixed* owner, std::uint64_t seed, std::size_t id)
        : owner_(owner),
          rng_(seed * 0x9E3779B97F4A7C15ULL + id + 1),
          next_key_(kIngestKeyBase + static_cast<std::int64_t>(id) * kIngestKeySpan) {}

    Stmt Next() override {
      if (late_key_ >= 0) return Correct(late_key_);
      const double u = rng_.NextDouble();
      if (u < 0.70) return Insert();
      if (u < 0.79) {
        if (keys_.empty()) return Insert();
        return Reprice(keys_[static_cast<std::size_t>(
            rng_.Uniform(0, static_cast<std::int64_t>(keys_.size()) - 1))]);
      }
      Stmt s;
      if (rng_.Uniform(0, 1) == 0) {
        s.shape = "e1_ship_date_probe";
        s.sql = "SELECT pu_key, order_date, quantity FROM purchase WHERE "
                "ship_date = " +
                DateLit(BaseDate() + static_cast<std::int64_t>(days_.Draw(&rng_)));
      } else {
        s.shape = "zone_map_range";
        const std::size_t lo = range_starts_.Draw(&rng_) * 8;
        s.sql = StrFormat(
            "SELECT pu_key, quantity, price FROM purchase WHERE pu_key "
            "BETWEEN %zu AND %zu",
            lo, lo + 31);
      }
      return s;
    }

    void Observe(const Stmt& stmt, const QueryResult& result,
                 Tracer* tracer) override {
      (void)result;
      if (stmt.kind == StmtKind::kRead) return;
      if (stmt.kind == StmtKind::kInsert) {
        keys_.push_back(stmt.key);
        const std::int64_t lag = stmt.image[4].AsInt64() - stmt.image[3].AsInt64();
        if (lag > kShipWindowDays) late_key_ = stmt.key;
      } else if (stmt.key == late_key_) {
        late_key_ = -1;
      }
      images[stmt.key] = stmt.image;
      owner_->AfterWrite(tracer);
    }

    std::map<std::int64_t, std::vector<Value>> images;

   private:
    Stmt Insert() {
      Stmt s;
      s.kind = StmtKind::kInsert;
      s.shape = "insert";
      s.key = next_key_++;
      const std::int64_t order_date =
          BaseDate() + 700 + static_cast<std::int64_t>(keys_.size() / 64);
      const bool late = rng_.NextDouble() < 0.01;
      const std::int64_t ship =
          order_date + (late ? rng_.Uniform(kShipWindowDays + 1, 60)
                             : rng_.Uniform(0, kShipWindowDays));
      s.image = {Value::Int64(s.key),
                 Value::Int64(rng_.Uniform(0, 9999)),
                 Value::Int64(rng_.Uniform(0, 1999)),
                 Value::Date(order_date),
                 Value::Date(ship),
                 Value::Date(ship + rng_.Uniform(0, 7)),
                 Value::Int64(rng_.Uniform(1, 50)),
                 Value::Double(static_cast<double>(rng_.Uniform(100, 99999)) / 100.0),
                 Value::Double(static_cast<double>(rng_.Uniform(0, 99)) / 1000.0)};
      s.sql = "INSERT INTO purchase VALUES (";
      for (std::size_t i = 0; i < s.image.size(); ++i) {
        s.sql += (i > 0 ? ", " : "") + Literal(s.image[i]);
      }
      s.sql += ")";
      return s;
    }

    /// Brings a late shipment back inside the window.
    Stmt Correct(std::int64_t key) {
      Stmt s;
      s.kind = StmtKind::kUpdate;
      s.shape = "update_correct_late";
      s.key = key;
      s.image = images.at(key);
      const std::int64_t ship =
          s.image[3].AsInt64() + rng_.Uniform(0, kShipWindowDays);
      s.image[4] = Value::Date(ship);
      s.image[5] = Value::Date(ship + rng_.Uniform(0, 7));
      s.sql = StrFormat("UPDATE purchase SET ship_date = %s, receipt_date = "
                        "%s WHERE pu_key = %lld",
                        s.image[4].ToString().c_str(),
                        s.image[5].ToString().c_str(),
                        static_cast<long long>(key));
      return s;
    }

    Stmt Reprice(std::int64_t key) {
      Stmt s;
      s.kind = StmtKind::kUpdate;
      s.shape = "update_reprice";
      s.key = key;
      s.image = images.at(key);
      s.image[6] = Value::Int64(rng_.Uniform(1, 50));
      s.image[7] = Value::Double(static_cast<double>(rng_.Uniform(100, 99999)) / 100.0);
      s.sql = StrFormat("UPDATE purchase SET quantity = %s, price = %s WHERE "
                        "pu_key = %lld",
                        Literal(s.image[6]).c_str(), Literal(s.image[7]).c_str(),
                        static_cast<long long>(key));
      return s;
    }

    IngestMixed* owner_;
    Rng rng_;
    std::int64_t next_key_;
    std::int64_t late_key_ = -1;
    std::vector<std::int64_t> keys_;
    Zipf days_{760, 0.9};
    Zipf range_starts_{2500, 0.9};
  };

  std::string wal_dir_;
  std::shared_mutex table_mu_;
  std::atomic<std::uint64_t> writes_{0};
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "serve_lookup") return std::make_unique<ServeLookup>();
  if (name == "analytic_sc") return std::make_unique<AnalyticSc>();
  if (name == "ingest_mixed") return std::make_unique<IngestMixed>();
  return nullptr;
}

}  // namespace softbench
