// Outside-in tracing for the benchmark's traced run.
//
// Spans are recorded by the benchmark around its calls into each layer's
// public functions; nothing inside the program is instrumented. A traced
// read goes through engine::Session::Run like any other, on a design the
// benchmark registers with the public engine::Engine::Register: "CS/traced"
// or "T/traced". That design answers the plan the way shard::ShardedDesign
// does, step by step through the public entry points the coordinator is
// built from, so every layer boundary it crosses gets its own span:
//
//   engine.run      engine::Session::Run, around the whole read (the client
//                   opens it); its self time is Session::Run's own work
//                   plus the coordinator steps between the layer calls
//   shard.pin       shard::ShardedStore::Pin
//   plan.lower      engine::LowerOnVersion
//   core.exec /     engine::ExecuteBaseOnVersion on one surviving shard,
//   row.exec        CS or row-store kind respectively
//   delta.overlay   delta::ExecuteDelta + the delta::MergeResults folding it
//   shard.fold      delta::MergeResults over shard partials +
//                   plan::FinalizeResult
//
// The set-up's writes and merge wrap shard::ShardedStore::Insert / Delete /
// MergeOnce as shard.insert / shard.delete / shard.merge. Spans stay in
// memory until the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <vector>

#include "engine/engine.h"
#include "shard/sharded_store.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// One timed call: its layer name, the op (request) it belongs to, its
/// parent span (an index into the same log, -1 for a root) and its bounds
/// in nanoseconds since the run's time origin.
struct Span {
  const char* name = "";
  uint64_t op = 0;
  int32_t parent = -1;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// An in-memory span log. Thread-safe: a read's per-shard tasks may record
/// from pool workers.
class SpanLog {
 public:
  explicit SpanLog(Clock::time_point origin) : origin_(origin) {}
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  /// Opens a span and returns its id.
  int32_t Begin(const char* name, uint64_t op, int32_t parent);
  void End(int32_t id);

  /// The recorded spans; call after every recording thread has joined.
  const std::vector<Span>& spans() const { return spans_; }

  /// Appends one JSON object per span to `out`, tagged with `log_id`.
  void WriteJsonLines(std::FILE* out, int log_id) const;

 private:
  int64_t Now() const;

  const Clock::time_point origin_;
  std::mutex mu_;  ///< guards spans_
  std::vector<Span> spans_;
};

/// Records one span over its scope.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, uint64_t op, int32_t parent)
      : log_(log), id_(log->Begin(name, op, parent)) {}
  ~ScopedSpan() { log_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int32_t id() const { return id_; }

 private:
  SpanLog* const log_;
  const int32_t id_;
};

/// While alive, a traced design run by the calling thread records its spans
/// into `log`, under op `op` and parent span `parent` (the client's
/// engine.run span around Session::Run). Scopes do not nest.
class TraceScope {
 public:
  TraceScope(SpanLog* log, uint64_t op, int32_t parent);
  ~TraceScope();
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;
};

/// The names the traced designs are registered under, by design kind.
constexpr const char* kTracedCS = "CS/traced";
constexpr const char* kTracedT = "T/traced";

/// Registers kTracedCS and kTracedT on `engine`: designs over `store` that
/// answer a plan the way shard::ShardedDesign does (one pin, one lowering,
/// manifest pruning, per-shard base execution with that shard's
/// tombstones, the delta overlay where the shard holds unmerged rows, the
/// fold), with the same shard bills and QueryStats, and a span around every
/// layer call. Running one outside a TraceScope is a programming error.
void RegisterTracedDesigns(cstore::engine::Engine* engine,
                           cstore::shard::ShardedStore* store);

}  // namespace perfbench
