#include "trace.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "delta/delta_exec.h"
#include "engine/designs.h"
#include "plan/physical.h"
#include "util/thread_pool.h"

namespace perfbench {

using cstore::Result;
using cstore::Status;
using cstore::core::ExecContext;
using cstore::core::QueryResult;
using cstore::core::QueryStats;
using cstore::engine::StoreDesignKind;
using cstore::plan::PhysicalPlan;
using cstore::shard::ShardedStore;

int64_t SpanLog::Now() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

int32_t SpanLog::Begin(const char* name, uint64_t op, int32_t parent) {
  const int64_t now = Now();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, op, parent, now, now});
  return static_cast<int32_t>(spans_.size() - 1);
}

void SpanLog::End(int32_t id) {
  const int64_t now = Now();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].end_ns = now;
}

void SpanLog::WriteJsonLines(std::FILE* out, int log_id) const {
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out,
                 "{\"log\":%d,\"id\":%zu,\"parent\":%d,\"op\":%llu,"
                 "\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld}\n",
                 log_id, i, s.parent, static_cast<unsigned long long>(s.op),
                 s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
}

namespace {

/// Where the calling thread's traced read records its spans.
struct Scope {
  SpanLog* log = nullptr;
  uint64_t op = 0;
  int32_t parent = -1;
};

thread_local Scope current_scope;

/// The coordinator's manifest prune rule, decided from the public manifest
/// entry and plan bounds: the owned orderdate interval always applies; the
/// per-column base bounds only while the shard has no unmerged inserts.
/// perfbench.cc checks these decisions against ShardedDesign's shard bills.
bool ManifestPrunes(const PhysicalPlan& phys, const ShardedStore::ShardPin& pin) {
  const cstore::plan::FactColumnBounds od =
      cstore::plan::FactBoundsFor(phys, "orderdate");
  if (od.hi < pin.info.orderdate_lo || od.lo > pin.info.orderdate_hi) {
    return true;
  }
  if (pin.snap.delta_rows != 0) return false;
  for (const cstore::shard::ShardInfo::ColumnBounds& b : pin.info.column_bounds) {
    const cstore::plan::FactColumnBounds q =
        cstore::plan::FactBoundsFor(phys, b.column);
    if (std::max(q.lo, b.lo) > std::min(q.hi, b.hi)) return true;
  }
  return false;
}

/// Adds one shard's bill into the query's sinks, as the coordinator does,
/// so Session::Run reports the query's totals over all shards.
void Charge(const QueryStats& s, ExecContext* ctx) {
  constexpr auto kRelaxed = std::memory_order_relaxed;
  ctx->io.pages_read.fetch_add(s.pages_read, kRelaxed);
  ctx->io.pages_written.fetch_add(s.pages_written, kRelaxed);
  ctx->telemetry.pages_skipped.fetch_add(s.pages_skipped, kRelaxed);
  ctx->telemetry.pages_all_match.fetch_add(s.pages_all_match, kRelaxed);
  ctx->telemetry.pages_scanned.fetch_add(s.pages_scanned, kRelaxed);
  ctx->telemetry.values_scanned.fetch_add(s.values_scanned, kRelaxed);
  ctx->telemetry.pages_gathered.fetch_add(s.pages_gathered, kRelaxed);
  ctx->telemetry.values_gathered.fetch_add(s.values_gathered, kRelaxed);
  ctx->rows_aggregated.fetch_add(s.rows_aggregated, kRelaxed);
  ctx->groups_emitted.fetch_add(s.groups_emitted, kRelaxed);
  ctx->delta_rows_scanned.fetch_add(s.delta_rows_scanned, kRelaxed);
}

class TracedDesign : public cstore::engine::Design {
 public:
  TracedDesign(ShardedStore* store, StoreDesignKind kind)
      : store_(store),
        kind_(kind),
        exec_name_(kind == StoreDesignKind::kColumnStore ? "core.exec"
                                                          : "row.exec") {}

  Result<QueryResult> Execute(const cstore::plan::Plan& p,
                              ExecContext& ctx) const override {
    // Copied: the per-shard tasks may run on pool workers.
    const Scope scope = current_scope;
    CSTORE_CHECK(scope.log != nullptr);
    SpanLog* const log = scope.log;

    ShardedStore::Pinned pin;
    {
      ScopedSpan span(log, "shard.pin", scope.op, scope.parent);
      pin = store_->Pin();
    }
    ctx.snapshot_epoch = pin.epoch;

    Result<PhysicalPlan> lowered = Status::Internal("not lowered");
    {
      ScopedSpan span(log, "plan.lower", scope.op, scope.parent);
      lowered = cstore::engine::LowerOnVersion(*pin.shards[0].version, kind_, p);
    }
    CSTORE_RETURN_IF_ERROR(lowered.status());
    const PhysicalPlan phys = std::move(lowered).ValueOrDie();

    if (phys.shape == PhysicalPlan::Shape::kSingleTable) {
      Result<QueryResult> r = Status::Internal("not executed");
      {
        ScopedSpan span(log, exec_name_, scope.op, scope.parent);
        r = cstore::engine::ExecuteBaseOnVersion(*pin.shards[0].version, kind_,
                                                 phys, ctx);
      }
      CSTORE_RETURN_IF_ERROR(r.status());
      QueryResult result = std::move(r).ValueOrDie();
      ScopedSpan span(log, "shard.fold", scope.op, scope.parent);
      cstore::plan::FinalizeResult(phys, &result);
      return result;
    }

    std::vector<size_t> survivors;
    std::vector<char> pruned(pin.shards.size(), 0);
    for (size_t s = 0; s < pin.shards.size(); ++s) {
      if (ManifestPrunes(phys, pin.shards[s])) {
        pruned[s] = 1;
      } else {
        survivors.push_back(s);
      }
    }
    if (survivors.empty()) {  // shard 0 still owes the empty answer's shape
      pruned[0] = 0;
      survivors.push_back(0);
    }

    // The coordinator's budget split: surviving shards share the query's
    // thread budget and run on the shared pool.
    const unsigned budget = ctx.config.ResolvedThreads();
    const unsigned workers =
        static_cast<unsigned>(std::min<size_t>(survivors.size(), budget));
    const unsigned per_shard = std::max(1u, budget / std::max(1u, workers));
    std::vector<std::unique_ptr<ExecContext>> shard_ctx;
    std::vector<QueryResult> partial(survivors.size());
    for (size_t i = 0; i < survivors.size(); ++i) {
      auto c = std::make_unique<ExecContext>(ctx.config);
      c->config.num_threads = survivors.size() == 1 ? budget : per_shard;
      c->snapshot_epoch = pin.epoch;
      shard_ctx.push_back(std::move(c));
    }
    const Status scatter = cstore::util::ParallelForStatus(
        survivors.size(), workers, [&](uint64_t i) -> Status {
          const ShardedStore::ShardPin& shard = pin.shards[survivors[i]];
          ExecContext& sctx = *shard_ctx[i];
          sctx.fact_tombstones = shard.snap.tombstones.get();
          Result<QueryResult> base = Status::Internal("not executed");
          {
            ScopedSpan span(log, exec_name_, scope.op, scope.parent);
            base = cstore::engine::ExecuteBaseOnVersion(*shard.version, kind_,
                                                        phys, sctx);
          }
          sctx.fact_tombstones = nullptr;
          CSTORE_RETURN_IF_ERROR(base.status());
          QueryResult r = std::move(base).ValueOrDie();
          if (shard.snap.delta_rows != 0) {
            ScopedSpan span(log, "delta.overlay", scope.op, scope.parent);
            QueryResult delta_partial = cstore::delta::ExecuteDelta(
                shard.version->data, *shard.version->writes, shard.snap,
                phys.query, &sctx);
            r = cstore::delta::MergeResults(std::move(r),
                                            std::move(delta_partial),
                                            phys.query);
          }
          partial[i] = std::move(r);
          return Status::OK();
        });
    CSTORE_RETURN_IF_ERROR(scatter);

    ctx.shard_bills.clear();
    size_t next_survivor = 0;
    for (size_t s = 0; s < pin.shards.size(); ++s) {
      cstore::core::ShardBill bill;
      bill.shard = static_cast<uint32_t>(s);
      bill.pruned = pruned[s] != 0;
      if (!bill.pruned) {
        bill.stats = shard_ctx[next_survivor++]->Stats();
        Charge(bill.stats, &ctx);
      }
      ctx.shard_bills.push_back(std::move(bill));
    }

    ScopedSpan span(log, "shard.fold", scope.op, scope.parent);
    QueryResult result = std::move(partial[0]);
    for (size_t i = 1; i < partial.size(); ++i) {
      result = cstore::delta::MergeResults(std::move(result),
                                           std::move(partial[i]), phys.query);
    }
    cstore::plan::FinalizeResult(phys, &result);
    return result;
  }

 private:
  ShardedStore* const store_;
  const StoreDesignKind kind_;
  const char* const exec_name_;
};

}  // namespace

TraceScope::TraceScope(SpanLog* log, uint64_t op, int32_t parent) {
  CSTORE_CHECK(current_scope.log == nullptr);
  current_scope = Scope{log, op, parent};
}

TraceScope::~TraceScope() { current_scope = Scope{}; }

void RegisterTracedDesigns(cstore::engine::Engine* engine,
                           ShardedStore* store) {
  engine->Register(kTracedCS, std::make_unique<TracedDesign>(
                                  store, StoreDesignKind::kColumnStore));
  engine->Register(kTracedT, std::make_unique<TracedDesign>(
                                 store, StoreDesignKind::kTraditional));
}

}  // namespace perfbench
