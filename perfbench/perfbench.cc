// The repository benchmark: one workload, one seed, one timed window, every
// answer checked. perfbench/run.py builds this binary and passes the
// workload's set-up writes from perfbench/workloads.json; README.md explains
// the workloads and metrics.
//
// Flow of one run:
//   1. set-up, repeated kSetupReps times (the median is setup_s):
//      ssb::Generate, shard::ShardedStore::Open, and, for a workload with
//      writes, a seeded ssb::MutationStream applied through Session::Insert /
//      Delete with one ShardedStore::MergeOnce part way, which leaves a
//      standing delta; then a warm-up pass of every plan on every design
//      the clients use;
//   2. the timed window: closed-loop reader clients (engine::Session::Run);
//   3. the oracle, after the window and its peak-memory reading:
//      ssb::ReferenceExecute of every plan over regenerated data, replayed
//      to the standing epoch with ssb::ReplayAt when the workload writes;
//   4. answer gates and workload self-checks, then the report. The last
//      stdout line is the JSON result.
//
// With --trace 1 every other read of each client goes through Session::Run
// on a traced design (trace.h) that records a span around each layer call,
// the set-up's writes and merge are spanned too, and the run reports
// per-layer metrics instead of end-to-end ones. The untraced reads of the
// same run give the tracing overhead.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "engine/designs.h"
#include "engine/engine.h"
#include "plan/physical.h"
#include "shard/scatter.h"
#include "shard/sharded_store.h"
#include "simd/simd.h"
#include "ssb/generator.h"
#include "ssb/mutations.h"
#include "ssb/plan_gen.h"
#include "ssb/queries.h"
#include "ssb/reference.h"
#include "stats.h"
#include "trace.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

using namespace cstore;

namespace {

using perfbench::Clock;

// ---------------------------------------------------------------------------
// Arguments.
// ---------------------------------------------------------------------------

/// The two designs the benchmark measures: the paper's CS and RS.
enum Design : uint8_t { kCS = 0, kRS = 1 };
constexpr const char* kDesignName[] = {"CS", "T"};

/// Rows per insert op of the set-up's writes (every 4th op is a delete).
constexpr size_t kInsertRows = 256;
/// Set-ups per run; setup_s is their median.
constexpr unsigned kSetupReps = 3;
/// Random star plans beside the 13 SSB queries, drawn from a fixed seed
/// (MakePlans says why it does not follow the workload seed).
constexpr unsigned kRandomPlans = 7;
constexpr uint64_t kPlanSeed = 2008;
/// Threads per query: one, as in the paper (README.md gives the sizing).
constexpr unsigned kThreadsPerQuery = 1;

/// The deployment every workload reads (README.md gives the sizing): SF 0.1
/// in four orderdate shards; two CS and two T clients; each shard's pool at
/// 1/8 of its design's whole lineorder; the paper's 200 MB/s simulated
/// disk; shared scans on. Workloads differ in their set-up writes.
constexpr double kScaleFactor = 0.1;
constexpr unsigned kShards = 4;
constexpr Design kClients[] = {kCS, kCS, kRS, kRS};
constexpr size_t kClientCount = sizeof(kClients) / sizeof(kClients[0]);
constexpr size_t kPoolPages[2] = {64, 216};  ///< per shard, CS and T
constexpr double kDiskMbps = 200;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Set-up writes: ops applied and then merged, and ops applied after the
  /// merge and left unmerged (the standing delta). 0 and 0 = no writes.
  uint64_t merged_ops = 0;
  uint64_t standing_ops = 0;
  std::string out_dir;

  bool writes() const { return merged_ops + standing_ops > 0; }
};

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr, "perfbench: %s\n", why.c_str());
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const std::string v = argv[i + 1];
    auto num = [&] {
      char* end = nullptr;
      const double d = std::strtod(v.c_str(), &end);
      if (end == v.c_str() || *end != '\0' || d < 0) {
        Usage("bad value '" + v + "' for " + flag);
      }
      return d;
    };
    if (flag == "--workload") a.workload = v;
    else if (flag == "--seed") a.seed = static_cast<uint64_t>(num());
    else if (flag == "--seconds") a.seconds = num();
    else if (flag == "--trace") a.trace = num() != 0;
    else if (flag == "--merged-ops") a.merged_ops = static_cast<uint64_t>(num());
    else if (flag == "--standing-ops") a.standing_ops = static_cast<uint64_t>(num());
    else if (flag == "--out") a.out_dir = v;
    else Usage("unknown flag " + flag);
  }
  if (a.workload.empty()) Usage("--workload is required");
  if (a.seconds <= 0) Usage("--seconds must be positive");
  if (kClientCount > util::ThreadPool::HardwareThreads()) {
    Usage("more client threads than cores");
  }
  return a;
}

/// A derived, independent seed for one consumer of the workload seed.
uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  util::Rng rng(seed * 0x9e3779b97f4a7c15ULL + stream);
  return rng.Next();
}

// ---------------------------------------------------------------------------
// Machine fingerprint.
// ---------------------------------------------------------------------------

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  for (unsigned i = 0; i < 3; ++i) {
    if (__get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                    &regs[4 * i + 2], &regs[4 * i + 3]) == 0) {
      return "unknown";
    }
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string s(brand);
  s.erase(0, s.find_first_not_of(' '));
  return s;
#else
  return "unknown";
#endif
}

std::string Fingerprint() {
  return "{\"nproc\": " + std::to_string(util::ThreadPool::HardwareThreads()) +
         ", \"cpu\": \"" + CpuModel() + "\", \"simd\": \"" +
         std::string(simd::ActiveIsa()) + "\"}";
}

// ---------------------------------------------------------------------------
// Set-up.
// ---------------------------------------------------------------------------

/// The store and the engine over it; the engine's designs point into the
/// store, so the engine is destroyed first. A workload with writes also
/// keeps the ops it applied, with their epochs, for the oracle's replay.
struct Deployment {
  std::unique_ptr<shard::ShardedStore> store;
  std::unique_ptr<engine::Engine> engine;
  std::vector<ssb::MutationOp> ops;
  std::vector<double> write_ms;  ///< each op's latency around its call
};

struct SetupTimes {
  double generate_s = 0;
  double build_s = 0;
  double writes_s = 0;  ///< the writes and the merge between them
  double warmup_s = 0;
  double total() const { return generate_s + build_s + writes_s + warmup_s; }
};

/// The generator's parameters; ssb::Generate is deterministic in them, so
/// the oracle regenerates the same data after the window.
ssb::GenParams GenParams() {
  ssb::GenParams gen;
  gen.scale_factor = kScaleFactor;
  return gen;
}

/// Moves an op into the newest shard: each insert row's orderdate, and a
/// delete's orderdate window, map to the datekey at the same position modulo
/// `newest`, the ascending datekeys that shard owns. The standing delta then
/// lives on that shard alone, as new orders do, and the older shards keep
/// the column-bounds pruning a delta turns off.
void MoveToNewestShard(const std::vector<int64_t>& all_dates,
                       const std::vector<int64_t>& newest, ssb::MutationOp* op) {
  auto map = [&](int64_t datekey) {
    const auto it = std::lower_bound(all_dates.begin(), all_dates.end(), datekey);
    return static_cast<size_t>(it - all_dates.begin()) % newest.size();
  };
  for (ssb::LineorderRow& r : op->rows) r.orderdate = newest[map(r.orderdate)];
  for (core::FactPredicate& p : op->predicate) {
    if (p.column != "orderdate") continue;
    const size_t lo = map(p.lo);
    const size_t width = static_cast<size_t>(
        std::lower_bound(all_dates.begin(), all_dates.end(), p.hi) -
        std::lower_bound(all_dates.begin(), all_dates.end(), p.lo));
    p.lo = newest[lo];
    p.hi = newest[std::min(lo + width, newest.size() - 1)];
  }
}

/// The set-up's writes: a.merged_ops ops of the seeded stream, one
/// MergeOnce, then a.standing_ops ops moved into the newest shard and left
/// unmerged. The untraced run writes through Session::Insert / Delete; the
/// traced run calls ShardedStore's Insert / Delete / MergeOnce directly,
/// each in a span on `log`.
void ApplyWrites(const Args& a, ssb::MutationStream* stream,
                 const ssb::DateTable& dates, Deployment* d,
                 perfbench::SpanLog* log) {
  auto session = d->engine->OpenSession("CS");
  const shard::ShardInfo newest_info = d->store->Pin().shards.back().info;
  std::vector<int64_t> newest;
  for (int64_t key : dates.datekey) {
    if (key >= newest_info.orderdate_lo && key <= newest_info.orderdate_hi) {
      newest.push_back(key);
    }
  }
  auto apply = [&](uint64_t n, bool standing) {
    for (uint64_t k = 0; k < n; ++k) {
      ssb::MutationOp op = stream->Next(kInsertRows);
      if (standing) MoveToNewestShard(dates.datekey, newest, &op);
      std::vector<ssb::LineorderRow> rows = op.rows;  // ops keep theirs
      const bool insert = op.kind == ssb::MutationOp::Kind::kInsert;
      Result<engine::WriteOutcome> r = Status::Internal("not applied");
      util::Stopwatch sw;
      if (log != nullptr) {
        perfbench::ScopedSpan span(log, insert ? "shard.insert" : "shard.delete",
                                   d->ops.size(), -1);
        r = insert ? d->store->Insert("lineorder", std::move(rows))
                   : d->store->Delete("lineorder", op.predicate);
      } else {
        r = insert ? session->Insert("lineorder", std::move(rows))
                   : session->Delete("lineorder", op.predicate);
      }
      const double ms = sw.ElapsedSeconds() * 1e3;
      if (!r.ok()) {
        std::fprintf(stderr, "set-up write failed: %s\n",
                     r.status().ToString().c_str());
        std::exit(1);
      }
      op.epoch = r.ValueOrDie().epoch;
      d->ops.push_back(std::move(op));
      d->write_ms.push_back(ms);
    }
  };
  apply(a.merged_ops, false);
  {
    std::optional<perfbench::ScopedSpan> span;
    if (log != nullptr) span.emplace(log, "shard.merge", d->ops.size(), -1);
    const Status s = d->store->MergeOnce();
    if (!s.ok()) {
      std::fprintf(stderr, "set-up merge failed: %s\n", s.ToString().c_str());
      std::exit(1);
    }
  }
  apply(a.standing_ops, true);
}

/// One set-up: generate, open, write (workloads with writes), warm up. The
/// generated data moves into the store, so the benchmark holds no copy of
/// the fact table while it measures. Returns the deployment and the warm-up
/// answers' hashes per (design, plan).
Deployment SetUp(const Args& a, const std::vector<plan::Plan>& plans,
                 SetupTimes* t, std::vector<std::vector<uint64_t>>* warm_hashes,
                 perfbench::SpanLog* write_log) {
  util::Stopwatch sw;
  ssb::SsbData data = ssb::Generate(GenParams());
  t->generate_s = sw.ElapsedSeconds();

  Deployment d;
  // The stream reads the base lineorder once, here, to continue its
  // orderkey sequence; its ops then draw only from the dimensions, which
  // the stream keeps a pointer to: they stay behind in `data` when the
  // fact table moves into the store.
  std::unique_ptr<ssb::MutationStream> stream;
  if (a.writes()) {
    stream = std::make_unique<ssb::MutationStream>(data, SubSeed(a.seed, 7));
  }
  ssb::SsbData store_data;
  if (stream) {
    store_data.scale_factor = data.scale_factor;
    store_data.date = data.date;
    store_data.customer = data.customer;
    store_data.supplier = data.supplier;
    store_data.part = data.part;
    store_data.lineorder = std::move(data.lineorder);
    data.lineorder = {};
  } else {
    store_data = std::move(data);
  }

  shard::ShardedStore::Options opt;
  opt.num_shards = kShards;
  opt.store.build_column = true;
  opt.store.build_rows = true;
  opt.store.pool_pages = kPoolPages[kCS];
  opt.store.row_options.pool_pages = kPoolPages[kRS];
  opt.merge_threshold_rows = 0;  // the set-up merges, at a fixed op
  sw.Restart();
  auto opened = shard::ShardedStore::Open(std::move(store_data), opt);
  if (!opened.ok()) {
    std::fprintf(stderr, "ShardedStore::Open failed: %s\n",
                 opened.status().ToString().c_str());
    std::exit(1);
  }
  d.store = std::move(opened).ValueOrDie();
  t->build_s = sw.ElapsedSeconds();

  engine::EngineOptions eo;
  eo.shared_scans = true;
  eo.default_config = core::ExecConfig::AllOn();
  eo.default_config.num_threads = kThreadsPerQuery;
  d.engine = std::make_unique<engine::Engine>(eo);
  d.engine->AttachStore(d.store.get());
  shard::RegisterShardedDesigns(d.engine.get(), d.store.get());
  if (a.trace) perfbench::RegisterTracedDesigns(d.engine.get(), d.store.get());

  if (stream) {
    sw.Restart();
    ApplyWrites(a, stream.get(), data.date, &d, write_log);
    t->writes_s = sw.ElapsedSeconds();
  }

  sw.Restart();
  warm_hashes->assign(2, std::vector<uint64_t>(plans.size(), 0));
  for (Design design : {kCS, kRS}) {
    auto session = d.engine->OpenSession(kDesignName[design]);
    session->config().num_threads = 0;  // set-up work may use every core
    for (size_t i = 0; i < plans.size(); ++i) {
      Result<engine::QueryOutcome> r = session->Run(plans[i]);
      if (!r.ok()) {
        std::fprintf(stderr, "warm-up %s %s failed: %s\n",
                     kDesignName[design], plans[i].id().c_str(),
                     r.status().ToString().c_str());
        std::exit(1);
      }
      (*warm_hashes)[design][i] = r.ValueOrDie().result.Hash();
    }
  }
  t->warmup_s = sw.ElapsedSeconds();

  // The simulated disk charges reads from here on; loads and the warm-up
  // ran without it.
  for (const auto& shard : d.store->Pin().shards) {
    shard.version->column_db->files().SetSimulatedDiskBandwidth(kDiskMbps);
    shard.version->row_db->files().SetSimulatedDiskBandwidth(kDiskMbps);
  }
  return d;
}

// ---------------------------------------------------------------------------
// The timed window.
// ---------------------------------------------------------------------------

struct ReadSample {
  uint32_t plan = 0;
  Design design = kCS;
  bool traced = false;
  bool ok = false;
  uint64_t op = 0;
  double start_s = 0;  ///< since the window opened
  double end_s = 0;
  uint64_t epoch = 0;
  uint64_t hash = 0;
  core::QueryStats stats;
  unsigned thread_budget = 0;
  /// Per shard of a star read: pruned, from its shard bills.
  std::vector<char> pruned;
  /// A pruned shard bill that still read device pages.
  bool pruned_shard_read_pages = false;
  uint64_t unmerged_rows = 0;  ///< traced reads only
  double latency_ms() const { return (end_s - start_s) * 1e3; }
};

uint64_t FilesBytes(const storage::FileManager& files) {
  uint64_t bytes = 0;
  for (size_t f = 0; f < files.num_files(); ++f) {
    bytes += files.FileBytes(static_cast<storage::FileId>(f));
  }
  return bytes;
}

/// Device bytes of every file in the pinned versions plus unmerged delta
/// bytes, per live lineorder row.
double BytesPerRow(shard::ShardedStore* store, uint64_t* live_rows) {
  const shard::ShardedStore::Pinned pin = store->Pin();
  uint64_t bytes = 0;
  uint64_t live = 0;
  for (const auto& shard : pin.shards) {
    const engine::StoreVersion& v = *shard.version;
    bytes += FilesBytes(v.column_db->files()) + FilesBytes(v.row_db->files()) +
             v.writes->delta_bytes();
    live += v.writes->base_rows() -
            (shard.snap.tombstones ? shard.snap.tombstones->Count() : 0);
    for (uint64_t i = 0; i < shard.snap.delta_rows; ++i) {
      if (v.writes->VisibleTo(i, shard.snap)) ++live;
    }
  }
  *live_rows = live;
  return perfbench::Ratio(static_cast<double>(bytes), static_cast<double>(live));
}

/// Everything the window produced.
struct Window {
  double seconds = 0;  ///< window start to the last read's completion
  std::vector<std::vector<ReadSample>> reads;  ///< per client
  std::vector<std::unique_ptr<perfbench::SpanLog>> logs;  ///< per client
};

double Since(Clock::time_point origin, Clock::time_point t) {
  return std::chrono::duration<double>(t - origin).count();
}

Window RunWindow(const Args& a, Deployment& d,
                 const std::vector<plan::Plan>& plans) {
  Window w;
  const Clock::time_point origin = Clock::now();
  const Clock::time_point deadline =
      origin + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(a.seconds));
  std::atomic<uint64_t> next_op{0};
  w.reads.resize(kClientCount);
  for (size_t i = 0; i < kClientCount; ++i) {
    w.logs.push_back(std::make_unique<perfbench::SpanLog>(origin));
  }

  std::vector<std::thread> threads;
  for (size_t c = 0; c < kClientCount; ++c) {
    threads.emplace_back([&, c] {
      perfbench::SpanLog* log = w.logs[c].get();
      const Design design = kClients[c];
      // The client's session, and with --trace 1 its session on the traced
      // twin.
      auto session = d.engine->OpenSession(kDesignName[design]);
      std::unique_ptr<engine::Session> traced_session;
      if (a.trace) {
        traced_session = d.engine->OpenSession(
            design == kCS ? perfbench::kTracedCS : perfbench::kTracedT);
      }
      util::Rng rng(SubSeed(a.seed, 100 + c));
      std::vector<uint32_t> order(plans.size());
      std::iota(order.begin(), order.end(), 0);
      std::vector<ReadSample>& out = w.reads[c];
      for (uint64_t round = 0;; ++round) {
        for (size_t i = order.size(); i > 1; --i) {  // Fisher-Yates
          std::swap(order[i - 1], order[rng.Uniform(0, i - 1)]);
        }
        for (size_t pos = 0; pos < order.size(); ++pos) {
          if (Clock::now() >= deadline) return;
          ReadSample s;
          s.plan = order[pos];
          s.design = design;
          // Traced and untraced reads alternate, so both halves see every
          // plan and the same regime.
          s.traced = a.trace && ((round + pos) & 1) != 0;
          s.op = next_op.fetch_add(1);
          const plan::Plan& p = plans[s.plan];
          Result<engine::QueryOutcome> r = Status::Internal("not run");
          Clock::time_point t0, t1;
          if (s.traced) {
            s.unmerged_rows = d.store->unmerged_rows();
            t0 = Clock::now();
            {
              perfbench::ScopedSpan root(log, "engine.run", s.op, -1);
              perfbench::TraceScope scope(log, s.op, root.id());
              r = traced_session->Run(p);
            }
            t1 = Clock::now();
          } else {
            t0 = Clock::now();
            r = session->Run(p);
            t1 = Clock::now();
          }
          s.start_s = Since(origin, t0);
          s.end_s = Since(origin, t1);
          s.ok = r.ok();
          if (s.ok) {
            const engine::QueryOutcome& o = r.ValueOrDie();
            s.hash = o.result.Hash();
            s.epoch = o.snapshot_epoch;
            s.stats = o.stats;
            s.thread_budget = o.thread_budget;
            for (const core::ShardBill& bill : o.shard_bills) {
              s.pruned.push_back(bill.pruned ? 1 : 0);
              if (bill.pruned && bill.stats.pages_read != 0) {
                s.pruned_shard_read_pages = true;
              }
            }
          } else {
            std::fprintf(stderr, "read %s on %s failed: %s\n",
                         p.id().c_str(), kDesignName[s.design],
                         r.status().ToString().c_str());
          }
          out.push_back(std::move(s));
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  double last = 0;
  for (const auto& client : w.reads) {
    for (const ReadSample& s : client) last = std::max(last, s.end_s);
  }
  w.seconds = last;
  return w;
}

// ---------------------------------------------------------------------------
// Answer gates.
// ---------------------------------------------------------------------------

struct Gates {
  bool ok = true;
  void Fail(const std::string& what) {
    std::printf("GATE FAILED: %s\n", what.c_str());
    ok = false;
  }
};

std::string Hex(uint64_t h) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

/// Every read, traced or not, equals the reference answer of its plan over
/// the state the window read: the generated data, replayed to the standing
/// epoch when the workload writes. Every read is pinned at that epoch.
void GateAgainstReference(const Window& w, const std::vector<plan::Plan>& plans,
                          const std::vector<uint64_t>& ref,
                          uint64_t standing_epoch, Gates* g) {
  uint64_t checked[2] = {0, 0};  // per design
  for (const auto& client : w.reads) {
    for (const ReadSample& s : client) {
      if (!s.ok) continue;
      ++checked[s.design];
      if (s.epoch != standing_epoch) {
        g->Fail(std::string(kDesignName[s.design]) + " " + plans[s.plan].id() +
                " pinned epoch " + std::to_string(s.epoch) +
                ", not the standing epoch " + std::to_string(standing_epoch));
        return;
      }
      if (s.hash != ref[s.plan]) {
        g->Fail(std::string(s.traced ? "traced " : "") + kDesignName[s.design] +
                " " + plans[s.plan].id() + " hash " + Hex(s.hash) +
                " != reference " + Hex(ref[s.plan]));
        return;
      }
    }
  }
  std::printf("gate: %llu CS and %llu T reads, all pinned at epoch %llu, equal "
              "ssb::ReferenceExecute (%zu plans)\n",
              static_cast<unsigned long long>(checked[kCS]),
              static_cast<unsigned long long>(checked[kRS]),
              static_cast<unsigned long long>(standing_epoch), plans.size());
}

/// Pruned shard bills read no pages, and the traced design's prune
/// decisions equal ShardedDesign's bills plan by plan.
void GatePruning(const Window& w, const std::vector<plan::Plan>& plans,
                 Gates* g) {
  uint64_t bills = 0;
  std::map<std::pair<uint32_t, Design>, std::vector<char>> untraced;
  for (const auto& client : w.reads) {
    for (const ReadSample& s : client) {
      if (!s.ok) continue;
      if (s.pruned_shard_read_pages) {
        g->Fail(std::string(s.traced ? "traced " : "") + "pruned shard bill of " +
                plans[s.plan].id() + " read device pages");
        return;
      }
      bills += s.pruned.size();
      if (!s.traced) untraced.emplace(std::make_pair(s.plan, s.design), s.pruned);
    }
  }
  std::printf("gate: %llu shard bills, the pruned ones read 0 pages\n",
              static_cast<unsigned long long>(bills));
  uint64_t compared = 0;
  for (const auto& client : w.reads) {
    for (const ReadSample& s : client) {
      if (!s.ok || !s.traced) continue;
      auto it = untraced.find({s.plan, s.design});
      if (it == untraced.end()) continue;
      ++compared;
      if (it->second != s.pruned) {
        g->Fail("traced prune decision of " + plans[s.plan].id() +
                " differs from ShardedDesign's shard bills");
        return;
      }
    }
  }
  if (compared > 0) {
    std::printf("gate: %llu traced prune decisions equal ShardedDesign's\n",
                static_cast<unsigned long long>(compared));
  }
}

// ---------------------------------------------------------------------------
// Tallies and report.
// ---------------------------------------------------------------------------

/// Buffer-pool hits and misses per design, summed over every shard's pool.
/// No merge runs in the window, so the window's traffic is the difference
/// of a reading on each side of it.
struct PoolCounts {
  uint64_t hits[2] = {0, 0};
  uint64_t misses[2] = {0, 0};
};

/// Layer counters read on both sides of the window. The merge statistics
/// count since the store opened, so `before` holds the set-up's merge.
struct Counters {
  core::SharedScanManager::Stats scans;
  shard::ShardedStore::MergeStats merges;
  PoolCounts pools;
};

Counters ReadCounters(Deployment& d) {
  Counters c{d.engine->shared_scan_manager().stats(), d.store->merge_stats(),
             {}};
  for (const auto& shard : d.store->Pin().shards) {
    const engine::StoreVersion& v = *shard.version;
    for (Design design : {kCS, kRS}) {
      const storage::BufferPool& pool =
          design == kCS ? v.column_db->pool() : v.row_db->pool();
      c.pools.hits[design] += pool.hits();
      c.pools.misses[design] += pool.misses();
    }
  }
  return c;
}

/// The window's reads, tallied.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t reads_ok = 0;
  uint64_t delta_rows = 0;    ///< delta rows every read scanned
  std::vector<double> lat[2];  ///< untraced read latency per design
  /// Read latency per design and plan, untraced and traced.
  std::vector<std::vector<double>> by_plan[2], traced_by_plan[2];
};

Tally TallyWindow(const Window& w, size_t n_plans) {
  Tally t;
  for (Design design : {kCS, kRS}) {
    t.by_plan[design].resize(n_plans);
    t.traced_by_plan[design].resize(n_plans);
  }
  for (const auto& client : w.reads) {
    for (const ReadSample& s : client) {
      ++t.attempted;
      if (!s.ok) {
        ++t.failed;
        continue;
      }
      ++t.reads_ok;
      t.delta_rows += s.stats.delta_rows_scanned;
      (s.traced ? t.traced_by_plan : t.by_plan)[s.design][s.plan].push_back(
          s.latency_ms());
      if (!s.traced) t.lat[s.design].push_back(s.latency_ms());
    }
  }
  return t;
}

/// Checks that the workload exercised what it was chosen for, printing
/// each checked value.
void SelfChecks(const Args& a, const Deployment& d, const Tally& t,
                const Counters& before, const Counters& after, Gates* g) {
  // Both designs' pools are smaller than the data, so reads miss on both.
  const uint64_t cs = after.pools.misses[kCS] - before.pools.misses[kCS];
  const uint64_t rs = after.pools.misses[kRS] - before.pools.misses[kRS];
  std::printf(
      "check: pool misses in the window: CS %llu, T %llu (want both > 0)\n",
      static_cast<unsigned long long>(cs), static_cast<unsigned long long>(rs));
  if (cs == 0 || rs == 0) {
    g->Fail("the workload did not miss on both designs' pools");
  }
  if (a.writes()) {
    // The set-up merged once, every shard it rebuilt succeeded, and the
    // reads ran over the standing delta.
    const uint64_t unmerged = d.store->unmerged_rows();
    std::printf(
        "check: set-up merge cycles = %llu (want 1), failed merges = %llu "
        "(want 0); unmerged rows in the window = %llu, delta rows scanned "
        "per read = %.1f (want both > 0)\n",
        static_cast<unsigned long long>(before.merges.merge_cycles),
        static_cast<unsigned long long>(before.merges.failed_merges),
        static_cast<unsigned long long>(unmerged),
        perfbench::Ratio(static_cast<double>(t.delta_rows),
                         static_cast<double>(t.reads_ok)));
    if (before.merges.merge_cycles != 1 || before.merges.failed_merges != 0) {
      g->Fail("the set-up merge did not complete");
    }
    if (unmerged == 0 || t.delta_rows == 0) {
      g->Fail("the reads did not run over a standing delta");
    }
  }
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string Num(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

/// Prints a percentile with its sample count, or INVALID when fewer than
/// kMinSamplesBeyond samples lie beyond it; returns whether it is valid.
bool PrintPercentile(const char* name, const std::vector<double>& samples,
                     double q, double* value) {
  const perfbench::Percentile p = perfbench::PercentileOf(samples, q);
  *value = p.value;
  if (!p.valid) {
    std::printf(
        "%-14s INVALID: %zu samples, %zu beyond (needs %zu samples)\n", name,
        p.count, p.beyond, perfbench::MinSamplesFor(q));
    return false;
  }
  std::printf("%-14s %10.4f ms  (n=%zu, %zu beyond)\n", name, p.value, p.count,
              p.beyond);
  return true;
}

/// Per plan and design over the untraced reads: the median and the read
/// count.
void PrintPlanTable(const Tally& t, const std::vector<plan::Plan>& plans) {
  std::printf("%-28s %10s %6s %10s %6s\n", "plan", "CS p50 ms", "n",
              "T p50 ms", "n");
  for (uint32_t i = 0; i < plans.size(); ++i) {
    const std::vector<double>& cs = t.by_plan[kCS][i];
    const std::vector<double>& rs = t.by_plan[kRS][i];
    std::printf("%-28s %10.3f %6zu %10.3f %6zu\n", plans[i].id().c_str(),
                perfbench::Median(cs), cs.size(), perfbench::Median(rs),
                rs.size());
  }
}

/// Prints a per-plan summary with its plan and read counts, or INVALID when
/// a plan has fewer than kMinSamplesPerPlan reads; returns whether it is
/// valid.
bool PrintPlanSummary(const char* name,
                      const std::vector<std::vector<double>>& per_plan,
                      double* value) {
  const perfbench::PlanSummary s = perfbench::PlanMedianMean(per_plan);
  *value = s.value;
  if (!s.valid) {
    std::printf("%-14s INVALID: a plan has %zu reads (needs %zu)\n", name,
                s.fewest, perfbench::kMinSamplesPerPlan);
    return false;
  }
  std::printf("%-14s %10.4f ms  (each plan's median, mean over %zu plans, "
              ">= %zu reads each)\n",
              name, s.value, s.plans, s.fewest);
  return true;
}

/// The end-to-end metrics, from the untraced reads. Sets *valid to false
/// when a plan lacks reads for the gated summaries.
std::vector<Metric> EndToEndMetrics(const Tally& t, const Deployment& d,
                                    double setup_s, double read_qps,
                                    double peak_rss_mb, double bytes_per_row,
                                    uint64_t live_rows, bool* valid) {
  double cs_read = 0, rs_read = 0, printed_only = 0;
  *valid &= PrintPlanSummary("cs_read_ms", t.by_plan[kCS], &cs_read);
  *valid &= PrintPlanSummary("rs_read_ms", t.by_plan[kRS], &rs_read);
  // Printed, not gated. Over all reads of a design the median depends on
  // the mix of plans that ran, and T's cost clusters by the orderdate years
  // a plan touches, so its median jumped between clusters from run to run;
  // the tails follow the host's stalls.
  PrintPercentile("cs_p50_ms", t.lat[kCS], 0.5, &printed_only);
  PrintPercentile("cs_p90_ms", t.lat[kCS], 0.9, &printed_only);
  PrintPercentile("cs_p99_ms", t.lat[kCS], 0.99, &printed_only);
  PrintPercentile("rs_p50_ms", t.lat[kRS], 0.5, &printed_only);
  PrintPercentile("rs_p90_ms", t.lat[kRS], 0.9, &printed_only);
  if (!d.write_ms.empty()) {
    PrintPercentile("write_p50_ms", d.write_ms, 0.5, &printed_only);
    PrintPercentile("write_p90_ms", d.write_ms, 0.9, &printed_only);
  }
  std::printf("setup_s        %10.4f s\n", setup_s);
  std::printf("read_qps       %10.4f 1/s\n", read_qps);
  std::printf("peak_rss_mb    %10.4f MB\n", peak_rss_mb);
  std::printf("bytes_per_row  %10.4f B   (%llu live lineorder rows)\n",
              bytes_per_row, static_cast<unsigned long long>(live_rows));
  return {{"setup_s", setup_s, "s"},
          {"cs_read_ms", cs_read, "ms"},
          {"rs_read_ms", rs_read, "ms"},
          {"peak_rss_mb", peak_rss_mb, "MB"},
          {"bytes_per_row", bytes_per_row, "B"}};
}

/// The per-layer metrics, from the spans and the traced reads' bills.
std::vector<Metric> PerLayerMetrics(const Window& w, const Tally& t,
                                    const std::vector<SetupTimes>& setups,
                                    const perfbench::SpanLog& write_log,
                                    const Counters& before,
                                    const Counters& after, Deployment& d) {
  std::map<uint64_t, const ReadSample*> traced;  // by op id
  std::vector<double> budget;
  for (const auto& client : w.reads) {
    for (const ReadSample& s : client) {
      if (!s.ok) continue;
      if (s.traced) {
        traced[s.op] = &s;
      } else {
        budget.push_back(s.thread_budget);
      }
    }
  }

  // Per traced read: the root span's self time and each layer's total.
  struct OpTimes {
    int64_t self = 0, pin = 0, lower = 0, exec = 0, overlay = 0, fold = 0;
  };
  std::map<uint64_t, OpTimes> per_op;
  std::vector<double> insert_ms, delete_ms, merge_s;
  for (const perfbench::Span& s : write_log.spans()) {
    const int64_t ns = s.end_ns - s.start_ns;
    const std::string_view name = s.name;
    if (name == "shard.insert") insert_ms.push_back(ns * 1e-6);
    if (name == "shard.delete") delete_ms.push_back(ns * 1e-6);
    if (name == "shard.merge") merge_s.push_back(ns * 1e-9);
  }
  for (const auto& log : w.logs) {
    const std::vector<perfbench::Span>& spans = log->spans();
    std::map<int32_t, std::vector<perfbench::Interval>> children;
    for (const perfbench::Span& s : spans) {
      if (s.parent >= 0) children[s.parent].push_back({s.start_ns, s.end_ns});
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const perfbench::Span& s = spans[i];
      const int64_t ns = s.end_ns - s.start_ns;
      const std::string_view name = s.name;
      if (traced.count(s.op) == 0) continue;
      OpTimes& o = per_op[s.op];
      if (name == "engine.run") {
        o.self = perfbench::SelfTimeNs({s.start_ns, s.end_ns},
                                       children[static_cast<int32_t>(i)]);
      } else if (name == "shard.pin") {
        o.pin += ns;
      } else if (name == "plan.lower") {
        o.lower += ns;
      } else if (name == "core.exec" || name == "row.exec") {
        o.exec += ns;
      } else if (name == "delta.overlay") {
        o.overlay += ns;
      } else if (name == "shard.fold") {
        o.fold += ns;
      }
    }
  }

  std::vector<double> self_ms, pin_ms, lower_ms, exec_ms[2], overlay_ms,
      fold_ms, values, rows_agg, groups, delta_rows, unmerged, pages[2];
  uint64_t skipped = 0, all_match = 0, scanned = 0, decisions = 0, pruned = 0;
  for (const auto& [op, o] : per_op) {
    const ReadSample& s = *traced.at(op);
    self_ms.push_back(o.self * 1e-6);
    pin_ms.push_back(o.pin * 1e-6);
    lower_ms.push_back(o.lower * 1e-6);
    exec_ms[s.design].push_back(o.exec * 1e-6);
    overlay_ms.push_back(o.overlay * 1e-6);
    fold_ms.push_back(o.fold * 1e-6);
    delta_rows.push_back(static_cast<double>(s.stats.delta_rows_scanned));
    unmerged.push_back(static_cast<double>(s.unmerged_rows));
    pages[s.design].push_back(static_cast<double>(s.stats.pages_read));
    decisions += s.pruned.size();
    pruned += std::count(s.pruned.begin(), s.pruned.end(), 1);
    if (s.design == kCS) {
      values.push_back(static_cast<double>(s.stats.values_examined));
      rows_agg.push_back(static_cast<double>(s.stats.rows_aggregated));
      groups.push_back(static_cast<double>(s.stats.groups_emitted));
      skipped += s.stats.pages_skipped;
      all_match += s.stats.pages_all_match;
      scanned += s.stats.pages_scanned;
    }
  }

  std::vector<double> gen_s, build_s, warm_s;
  for (const SetupTimes& st : setups) {
    gen_s.push_back(st.generate_s);
    build_s.push_back(st.build_s);
    warm_s.push_back(st.warmup_s);
  }
  const engine::StoreVersion& v0 = *d.store->Pin().shards[0].version;
  const double stall_ms_per_page[2] = {
      v0.column_db->files().simulated_read_seconds_per_page() * 1e3,
      v0.row_db->files().simulated_read_seconds_per_page() * 1e3};
  uint64_t hits[2], misses[2];
  for (Design design : {kCS, kRS}) {
    hits[design] = after.pools.hits[design] - before.pools.hits[design];
    misses[design] = after.pools.misses[design] - before.pools.misses[design];
  }
  // The set-up's merge: the store's merge statistics count since it opened.
  const uint64_t rebuilt = before.merges.shards_rebuilt;
  const uint64_t clean = before.merges.shards_skipped;
  const double untraced_cs =
      perfbench::PlanMedianMean(t.by_plan[kCS]).value;
  const double traced_cs =
      perfbench::PlanMedianMean(t.traced_by_plan[kCS]).value;
  const double overhead_pct =
      untraced_cs == 0 ? 0 : 100.0 * (traced_cs / untraced_cs - 1.0);
  auto ratio = [](uint64_t num, uint64_t den) {
    return perfbench::Ratio(static_cast<double>(num), static_cast<double>(den));
  };
  using perfbench::Mean;
  using perfbench::Median;

  std::printf("traced reads %zu (CS %zu, T %zu), set-up merges %zu; tracing "
              "overhead: traced CS %.4f ms vs untraced %.4f ms (cs_read_ms)\n",
              per_op.size(), exec_ms[kCS].size(), exec_ms[kRS].size(),
              merge_s.size(), traced_cs, untraced_cs);
  return {
      {"setup.generate_s", Median(gen_s), "s"},
      {"setup.build_s", Median(build_s), "s"},
      {"setup.warmup_s", Median(warm_s), "s"},
      {"engine.run_self_ms", Mean(self_ms), "ms"},
      {"engine.thread_budget", Mean(budget), "threads"},
      {"plan.lower_ms", Mean(lower_ms), "ms"},
      {"core.exec_ms", Mean(exec_ms[kCS]), "ms"},
      {"row.exec_ms", Mean(exec_ms[kRS]), "ms"},
      {"core.values_examined", Mean(values), "count"},
      {"core.rows_aggregated", Mean(rows_agg), "count"},
      {"core.groups_emitted", Mean(groups), "count"},
      {"column.zone_skip_ratio",
       ratio(skipped + all_match, skipped + all_match + scanned), "ratio"},
      {"core.shared_scan_join_ratio",
       ratio(after.scans.attaches_in_flight - before.scans.attaches_in_flight,
             after.scans.attaches - before.scans.attaches),
       "ratio"},
      {"storage.pages_read.cs", Mean(pages[kCS]), "count"},
      {"storage.pages_read.rs", Mean(pages[kRS]), "count"},
      {"storage.stall_ms.cs", Mean(pages[kCS]) * stall_ms_per_page[kCS], "ms"},
      {"storage.stall_ms.rs", Mean(pages[kRS]) * stall_ms_per_page[kRS], "ms"},
      {"storage.pool_hit_ratio.cs", ratio(hits[kCS], hits[kCS] + misses[kCS]),
       "ratio"},
      {"storage.pool_hit_ratio.rs", ratio(hits[kRS], hits[kRS] + misses[kRS]),
       "ratio"},
      {"shard.pruned_ratio", ratio(pruned, decisions), "ratio"},
      {"shard.fold_ms", Mean(fold_ms), "ms"},
      {"shard.pin_ms", Mean(pin_ms), "ms"},
      {"delta.overlay_ms", Mean(overlay_ms), "ms"},
      {"delta.rows_scanned", Mean(delta_rows), "count"},
      {"delta.unmerged_rows", Mean(unmerged), "count"},
      {"shard.insert_ms", Mean(insert_ms), "ms"},
      {"shard.delete_ms", Mean(delete_ms), "ms"},
      {"shard.merge_s", Mean(merge_s), "s"},
      {"shard.merge_skip_ratio", ratio(clean, rebuilt + clean), "ratio"},
      {"shard.failed_merges", static_cast<double>(before.merges.failed_merges),
       "count"},
      {"trace.overhead_pct", overhead_pct, "%"},
  };
}

/// Writes the result (with the machine fingerprint), every read's latency
/// and, for a traced run, the spans into --out.
void WriteFiles(const Args& a, const std::string& fingerprint,
                const std::vector<Metric>& metrics, const Window& w,
                const perfbench::SpanLog& write_log) {
  if (a.out_dir.empty()) return;
  const std::string stem = a.out_dir + "/" + a.workload + "-seed" +
                           std::to_string(a.seed) + "-trace" +
                           (a.trace ? "1" : "0");
  if (std::FILE* f = std::fopen((stem + ".result.json").c_str(), "w")) {
    std::fprintf(f, "{\"machine\": %s, \"metrics\": {", fingerprint.c_str());
    for (size_t i = 0; i < metrics.size(); ++i) {
      std::fprintf(f, "%s\"%s\": %s", i ? ", " : "", metrics[i].name.c_str(),
                   Num(metrics[i].value).c_str());
    }
    std::fprintf(f, "}}\n");
    std::fclose(f);
  }
  if (std::FILE* f = std::fopen((stem + ".reads.tsv").c_str(), "w")) {
    std::fprintf(f, "plan\tdesign\ttraced\tok\tstart_s\tlatency_ms\tdelta_rows\n");
    for (const auto& client : w.reads) {
      for (const ReadSample& s : client) {
        std::fprintf(f, "%u\t%s\t%d\t%d\t%.6f\t%.6f\t%llu\n", s.plan,
                     kDesignName[s.design], s.traced ? 1 : 0, s.ok ? 1 : 0,
                     s.start_s, s.latency_ms(),
                     static_cast<unsigned long long>(s.stats.delta_rows_scanned));
      }
    }
    std::fclose(f);
  }
  if (!a.trace) return;
  if (std::FILE* f = std::fopen((stem + ".spans.jsonl").c_str(), "w")) {
    for (size_t i = 0; i < w.logs.size(); ++i) {
      w.logs[i]->WriteJsonLines(f, static_cast<int>(i));
    }
    write_log.WriteJsonLines(f, static_cast<int>(w.logs.size()));
    std::fclose(f);
  }
}

void PrintResult(bool correct, const Tally& t,
                 const std::vector<Metric>& metrics) {
  std::string s = "{\"correct\": " + std::string(correct ? "true" : "false") +
                  ", \"attempted\": " + std::to_string(t.attempted) +
                  ", \"failed\": " + std::to_string(t.failed) +
                  ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) s += ", ";
    s += "\"" + metrics[i].name + "\": {\"value\": " + Num(metrics[i].value) +
         ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  s += "}}";
  std::printf("%s\n", s.c_str());
  std::fflush(stdout);
}

/// The 13 SSB queries plus kRandomPlans random star plans drawn from the
/// fixed kPlanSeed, the same for every workload seed: now and then the
/// generator emits a plan that groups by customer region x city x part
/// brand and runs ~50x longer than any SSB query, so a seed-drawn set made
/// every percentile depend on whether the seed drew one. Dimension-only
/// plans are skipped: they scan one small dimension table in ~0.1 ms and
/// touch no fact data.
std::vector<plan::Plan> MakePlans() {
  std::vector<plan::Plan> plans = ssb::AllQueries();
  const size_t want = plans.size() + kRandomPlans;
  util::Rng rng(kPlanSeed);
  while (plans.size() < want) {
    plan::Plan p = ssb::RandomPlan(rng.Next());
    Result<plan::PhysicalPlan> phys = plan::LowerToPhysical(p);
    if (phys.ok() &&
        phys.ValueOrDie().shape == plan::PhysicalPlan::Shape::kStar) {
      plans.push_back(std::move(p));
    }
  }
  return plans;
}

/// Each design's pool next to the data it caches, over all shards.
void PrintSizes(Deployment& d) {
  uint64_t lineorder[2] = {0, 0}, files[2] = {0, 0};
  for (const auto& shard : d.store->Pin().shards) {
    const engine::StoreVersion& v = *shard.version;
    lineorder[kCS] += v.column_db->lineorder().SizeBytes();
    lineorder[kRS] += v.row_db->lineorder().SizeBytes();
    files[kCS] += FilesBytes(v.column_db->files());
    files[kRS] += FilesBytes(v.row_db->files());
  }
  for (Design design : {kCS, kRS}) {
    std::printf(
        "%s: pool %zu pages x %u shards = %.2f MB; lineorder %.2f MB, all "
        "files %.2f MB\n",
        kDesignName[design], kPoolPages[design], kShards,
        static_cast<double>(kPoolPages[design] * kShards * storage::kPageSize) /
            1e6,
        static_cast<double>(lineorder[design]) / 1e6,
        static_cast<double>(files[design]) / 1e6);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = ParseArgs(argc, argv);
  const std::string fingerprint = Fingerprint();
  std::printf("perfbench %s seed=%llu seconds=%g trace=%d machine=%s\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              a.seconds, a.trace ? 1 : 0, fingerprint.c_str());
  std::printf("fixed: SF %g in %u shards; clients CS, CS, T, T at %u thread "
              "per query; pools %zu (CS) / %zu (T) pages per shard; %g MB/s "
              "simulated disk; shared scans; %u set-ups; 13 SSB + %u random "
              "plans (plan seed %llu)\n",
              kScaleFactor, kShards, kThreadsPerQuery, kPoolPages[kCS],
              kPoolPages[kRS], kDiskMbps, kSetupReps, kRandomPlans,
              static_cast<unsigned long long>(kPlanSeed));
  const std::vector<plan::Plan> plans = MakePlans();

  // Set-up, several times; the last deployment is the one measured. The
  // traced run keeps every set-up's write and merge spans.
  perfbench::SpanLog write_log(Clock::now());
  Deployment d;
  std::vector<SetupTimes> setups;
  std::vector<std::vector<uint64_t>> warm;
  for (unsigned r = 0; r < kSetupReps; ++r) {
    // Release the previous deployment, and the heap it leaves behind, so
    // every set-up starts from the same footprint.
    d = Deployment{};
    malloc_trim(0);
    SetupTimes t;
    d = SetUp(a, plans, &t, &warm, a.trace ? &write_log : nullptr);
    setups.push_back(t);
    std::printf("setup %u: generate %.3f s, build %.3f s, writes %.3f s, "
                "warm-up %.3f s\n",
                r, t.generate_s, t.build_s, t.writes_s, t.warmup_s);
  }
  PrintSizes(d);
  if (a.writes()) {
    std::printf("set-up writes: %zu ops (%llu merged, then %llu standing), "
                "%llu unmerged rows\n",
                d.ops.size(), static_cast<unsigned long long>(a.merged_ops),
                static_cast<unsigned long long>(a.standing_ops),
                static_cast<unsigned long long>(d.store->unmerged_rows()));
  }

  const uint64_t standing_epoch = d.store->Pin().epoch;
  const Counters before = ReadCounters(d);
  const Window w = RunWindow(a, d, plans);
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  const double peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  const Counters after = ReadCounters(d);
  uint64_t live_rows = 0;
  const double bytes_per_row = BytesPerRow(d.store.get(), &live_rows);
  const Tally t = TallyWindow(w, plans.size());

  // The oracle, outside set-up, the window and the memory reading: the
  // generator is deterministic, so it regenerates the data the store was
  // built from, and a workload with writes replays its ops onto it.
  ssb::SsbData data = ssb::Generate(GenParams());
  if (a.writes()) data = ssb::ReplayAt(data, d.ops, standing_epoch);
  std::vector<uint64_t> ref(plans.size());
  CSTORE_CHECK(util::ParallelForStatus(
                   plans.size(), util::ThreadPool::HardwareThreads(),
                   [&](uint64_t i) {
                     ref[i] = ssb::ReferenceExecute(data, plans[i]).Hash();
                     return Status::OK();
                   })
                   .ok());
  Gates gates;
  for (Design design : {kCS, kRS}) {
    for (size_t i = 0; i < plans.size(); ++i) {
      if (warm[design][i] != ref[i]) {
        gates.Fail(std::string("warm-up ") + kDesignName[design] + " " +
                   plans[i].id() + " != reference");
      }
    }
  }
  std::printf("gate: warm-up answers of %zu plans on CS and T equal "
              "ssb::ReferenceExecute%s\n",
              plans.size(),
              a.writes() ? " over ssb::ReplayAt at the standing epoch" : "");
  GateAgainstReference(w, plans, ref, standing_epoch, &gates);
  GatePruning(w, plans, &gates);
  SelfChecks(a, d, t, before, after, &gates);

  const double read_qps =
      perfbench::Ratio(static_cast<double>(t.reads_ok), w.seconds);
  std::printf("window %.3f s: %llu reads attempted, %llu failed (failed_ratio "
              "%.6f), %.1f reads/s\n",
              w.seconds, static_cast<unsigned long long>(t.attempted),
              static_cast<unsigned long long>(t.failed),
              perfbench::Ratio(static_cast<double>(t.failed),
                               static_cast<double>(t.attempted)),
              read_qps);
  PrintPlanTable(t, plans);

  bool valid = true;
  std::vector<double> setup_total;
  for (const SetupTimes& st : setups) setup_total.push_back(st.total());
  const std::vector<Metric> metrics =
      a.trace ? PerLayerMetrics(w, t, setups, write_log, before, after, d)
              : EndToEndMetrics(t, d, perfbench::Median(setup_total),
                                read_qps, peak_rss_mb, bytes_per_row,
                                live_rows, &valid);
  if (a.trace) {
    for (const Metric& m : metrics) {
      std::printf("%-28s %14.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
  }
  WriteFiles(a, fingerprint, metrics, w, write_log);

  if (!valid) {
    std::printf("run invalid: a plan has fewer than %zu reads\n",
                perfbench::kMinSamplesPerPlan);
    return 1;
  }
  PrintResult(gates.ok, t, metrics);
  return gates.ok ? 0 : 1;
}
