#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <set>

#include "analysis/certificate.h"
#include "analysis/impact.h"
#include "analysis/invariants.h"
#include "analysis/plan_verifier.h"
#include "optimizer/planner.h"
#include "optimizer/rewriter.h"
#include "sql/binder.h"
#include "sql/parser.h"
#include "storage/recovery.h"

namespace softbench {

using softdb::QueryResult;
using softdb::Result;
using softdb::RowSet;
using softdb::SoftDb;
using softdb::Status;

int Tracer::Begin(const std::string& name) {
  Span span;
  span.name = name;
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.request = request_;
  span.start = Clock::now();
  spans_.push_back(std::move(span));
  stack_.push_back(static_cast<int>(spans_.size()) - 1);
  return stack_.back();
}

void Tracer::End(int id) {
  spans_[static_cast<std::size_t>(id)].end = Clock::now();
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

std::vector<double> Tracer::SelfMicros() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = Micros(spans_[i].start, spans_[i].end);
  }
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      self[static_cast<std::size_t>(s.parent)] -= Micros(s.start, s.end);
    }
  }
  return self;
}

std::map<std::uint64_t, std::map<std::string, double>>
Tracer::SelfByRequest() const {
  const std::vector<double> self = SelfMicros();
  std::map<std::uint64_t, std::map<std::string, double>> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    out[spans_[i].request][spans_[i].name] += self[i];
  }
  return out;
}

bool Tracer::WriteJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const Clock::time_point t0 =
      spans_.empty() ? Clock::time_point{} : spans_.front().start;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\": %zu, \"name\": \"%s\", \"request\": %llu, "
                 "\"parent\": %d, \"start_us\": %.3f, \"end_us\": %.3f}\n",
                 i, s.name.c_str(), static_cast<unsigned long long>(s.request),
                 s.parent, Micros(t0, s.start), Micros(t0, s.end));
  }
  return std::fclose(f) == 0;
}

namespace {

/// Re-validates certificates the way SoftDb::CertifyCertificates does; a
/// certificate the checker rejects fails the replay.
Status Certify(SoftDb* db, const std::vector<softdb::RewriteCertificate>& certs,
               bool epoch_fast_path) {
  if (certs.empty() || !softdb::ShouldCertifyPlans(db->options().certify_plans)) {
    return Status::OK();
  }
  const softdb::CertificateChecker checker(&db->catalog(), &db->ics(),
                                           &db->scs());
  for (const softdb::RewriteCertificate& cert : certs) {
    if (epoch_fast_path && checker.EpochsCurrent(cert)) continue;
    if (checker.Check(cert).verdict == softdb::CertificateVerdict::kInvalid) {
      return Status::Internal("replay: certificate rejected: " + cert.rule);
    }
  }
  return Status::OK();
}

/// SoftDb::RunPlan's steps: estimate and lower, certify the physical
/// plan's certificates, execute.
Result<RowSet> ReplayRunPlan(SoftDb* db, const softdb::PlanNode& plan,
                             Tracer* tracer) {
  softdb::OptimizerContext ctx = db->MakeContext();
  softdb::OperatorPtr root;
  {
    Tracer::Scope span(tracer, "optimizer.plan");
    softdb::CardinalityEstimator estimator = db->MakeEstimator();
    softdb::PhysicalPlanner planner(&ctx, &estimator);
    volatile double rows = estimator.EstimateRows(plan);
    volatile double cost = planner.EstimateCost(plan);
    (void)rows;
    (void)cost;
    const std::string text = plan.ToString();
    SOFTDB_ASSIGN_OR_RETURN(root, planner.Plan(plan));
  }
  {
    Tracer::Scope span(tracer, "analysis.certify");
    SOFTDB_RETURN_IF_ERROR(Certify(db, ctx.certificates, false));
  }
  Tracer::Scope span(tracer, "exec.execute");
  softdb::ExecContext exec;
  exec.scheduler = db->scheduler();
  exec.use_kernels = db->options().use_kernels;
  return softdb::ExecuteToCompletion(root.get(), &exec);
}

}  // namespace

Result<RowSet> ReplaySelect(SoftDb* db, const std::string& sql,
                            const QueryResult& engine, Tracer* tracer) {
  softdb::Statement stmt;
  {
    Tracer::Scope span(tracer, "sql.parse");
    SOFTDB_ASSIGN_OR_RETURN(stmt, softdb::ParseStatement(sql));
  }
  if (stmt.kind != softdb::Statement::Kind::kSelect) {
    return Status::InvalidArgument("replay: not a SELECT: " + sql);
  }

  if (engine.from_plan_cache) {
    std::shared_ptr<softdb::CachedPlan> cached = db->plan_cache().Get(sql);
    if (cached == nullptr) {
      return Status::Internal("replay: cached plan vanished: " + sql);
    }
    {
      Tracer::Scope span(tracer, "analysis.certify");
      for (const auto& [name, epoch] : db->plan_cache().ScEpochs(*cached)) {
        const softdb::SoftConstraint* sc = db->scs().Find(name);
        volatile bool stale = sc == nullptr || sc->epoch() != epoch;
        (void)stale;
      }
      SOFTDB_RETURN_IF_ERROR(Certify(db, cached->certificates, true));
      SOFTDB_RETURN_IF_ERROR(Certify(db, cached->backup_certificates, true));
    }
    return ReplayRunPlan(
        db, engine.used_backup_plan ? *cached->backup : *cached->primary,
        tracer);
  }

  softdb::PlanPtr bound;
  {
    Tracer::Scope span(tracer, "sql.bind");
    softdb::Binder binder(&db->catalog());
    SOFTDB_ASSIGN_OR_RETURN(bound, binder.BindSelect(*stmt.select));
  }
  softdb::OptimizerContext backup_ctx = db->MakeContext();
  backup_ctx.scs = nullptr;
  backup_ctx.enable_exception_asts = false;
  softdb::OptimizerContext ctx = db->MakeContext();
  if (softdb::ShouldVerifyPlans(db->options().verify_plans)) {
    Tracer::Scope span(tracer, "analysis.verify");
    softdb::PlanVerifier verifier(
        {&db->catalog(), &db->mvs(), &ctx.exception_asts});
    SOFTDB_RETURN_IF_ERROR(verifier.VerifyLogical(*bound, "bind"));
  }
  softdb::PlanPtr backup;
  softdb::PlanPtr primary;
  {
    Tracer::Scope span(tracer, "optimizer.rewrite");
    softdb::Rewriter backup_rewriter(&backup_ctx);
    SOFTDB_ASSIGN_OR_RETURN(backup, backup_rewriter.Rewrite(bound->Clone()));
    softdb::Rewriter rewriter(&ctx);
    SOFTDB_ASSIGN_OR_RETURN(primary, rewriter.Rewrite(std::move(bound)));
  }
  {
    Tracer::Scope span(tracer, "analysis.certify");
    SOFTDB_RETURN_IF_ERROR(Certify(db, ctx.certificates, false));
    SOFTDB_RETURN_IF_ERROR(Certify(db, backup_ctx.certificates, false));
  }
  return ReplayRunPlan(db, engine.used_backup_plan ? *backup : *primary,
                       tracer);
}

Status ReplayInsert(SoftDb* twin, const std::string& sql, Tracer* tracer) {
  softdb::Statement stmt;
  {
    Tracer::Scope span(tracer, "sql.parse");
    SOFTDB_ASSIGN_OR_RETURN(stmt, softdb::ParseStatement(sql));
  }
  if (stmt.kind != softdb::Statement::Kind::kInsert) {
    return Status::InvalidArgument("replay: not an INSERT: " + sql);
  }
  std::set<std::string> scope_storage;
  const std::set<std::string>* scope = nullptr;
  if (twin->options().enable_impact_analysis) {
    Tracer::Scope span(tracer, "analysis.impact");
    softdb::ImpactAnalyzer analyzer(&twin->catalog(), &twin->ics(),
                                    &twin->scs());
    Result<softdb::DmlImpact> impact = analyzer.AnalyzeInsert(*stmt.insert);
    if (impact.ok()) {
      scope_storage = impact->ImpactSet();
      scope = &scope_storage;
    }
  }
  SOFTDB_ASSIGN_OR_RETURN(softdb::Table * table,
                          twin->catalog().GetTable(stmt.insert->table));
  const softdb::Schema& schema = table->schema();
  for (const std::vector<softdb::ExprPtr>& exprs : stmt.insert->rows) {
    std::vector<softdb::Value> row;
    softdb::RowId rid = 0;
    {
      Tracer::Scope span(tracer, "storage.append");
      for (const softdb::ExprPtr& e : exprs) {
        SOFTDB_ASSIGN_OR_RETURN(softdb::Value v, e->Eval({}));
        row.push_back(std::move(v));
      }
      if (row.size() != schema.NumColumns()) {
        return Status::InvalidArgument("replay: insert arity: " + sql);
      }
      for (std::size_t i = 0; i < row.size(); ++i) {
        if (row[i].is_null() || row[i].type() == schema.Column(i).type) continue;
        if (row[i].type() != softdb::TypeId::kString &&
            schema.Column(i).type != softdb::TypeId::kString) {
          SOFTDB_ASSIGN_OR_RETURN(row[i], row[i].CastTo(schema.Column(i).type));
        }
      }
      SOFTDB_RETURN_IF_ERROR(
          twin->ics().CheckInsert(twin->catalog(), table->name(), row));
      SOFTDB_ASSIGN_OR_RETURN(rid, table->Append(row));
      twin->catalog().NotifyInsert(table, rid);
      twin->ics().AfterInsert(table->name(), row);
    }
    {
      Tracer::Scope span(tracer, "constraints.maintain");
      SOFTDB_RETURN_IF_ERROR(
          twin->scs().OnInsert(twin->catalog(), table->name(), row, scope));
      SOFTDB_RETURN_IF_ERROR(
          twin->scs().OnRowAppended(twin->catalog(), table->name(), rid, row));
    }
    {
      Tracer::Scope span(tracer, "mv.maintain");
      SOFTDB_RETURN_IF_ERROR(twin->mvs().OnBaseInsert(table->name(), row));
    }
    if (twin->wal() != nullptr) {
      Tracer::Scope span(tracer, "storage.wal_append");
      SOFTDB_RETURN_IF_ERROR(twin->wal()->LogInsert(table->name(), row));
    }
  }
  return Status::OK();
}

}  // namespace softbench
