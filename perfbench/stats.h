// The benchmark's own arithmetic: percentiles with their sample rule,
// per-plan summaries, ratios, and span self time. Header-only and free of
// engine dependencies so stats_test.cc can pin every formula.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace perfbench {

/// A percentile is reported only when at least this many samples lie beyond
/// it: p99 needs 1,000 samples, p90 needs 100, the median needs 20.
inline constexpr size_t kMinSamplesBeyond = 10;

struct Percentile {
  double value = 0;
  size_t count = 0;   ///< samples the percentile was taken over
  size_t beyond = 0;  ///< samples ranked above it
  bool valid = false;
};

/// The nearest rank (1-based) of the `q` percentile among `n` samples:
/// ceil(q * n), at least 1.
inline size_t NearestRank(size_t n, double q) {
  // The epsilon keeps a q * n that is an integer in exact arithmetic (0.99 *
  // 1000) from rounding up one rank through binary floating point.
  const double exact = q * static_cast<double>(n);
  const auto rank = static_cast<size_t>(std::ceil(exact - 1e-9));
  return std::clamp<size_t>(rank, 1, std::max<size_t>(n, 1));
}

/// Nearest-rank percentile (`q` in (0, 1)) of `samples`. Valid when at
/// least kMinSamplesBeyond samples rank above it.
inline Percentile PercentileOf(std::vector<double> samples, double q) {
  Percentile p;
  p.count = samples.size();
  if (samples.empty()) return p;
  std::sort(samples.begin(), samples.end());
  const size_t rank = NearestRank(samples.size(), q);
  p.value = samples[rank - 1];
  p.beyond = samples.size() - rank;
  p.valid = p.beyond >= kMinSamplesBeyond;
  return p;
}

/// The smallest sample count for which the q-percentile is valid.
inline size_t MinSamplesFor(double q) {
  size_t n = 1;
  while (n - NearestRank(n, q) < kMinSamplesBeyond) ++n;
  return n;
}

/// Median of `samples` (nearest rank, no validity rule), 0 when empty: the
/// per-layer summaries use it where the sample rule does not apply.
inline double Median(std::vector<double> samples) {
  if (samples.empty()) return 0;
  return PercentileOf(std::move(samples), 0.5).value;
}

inline double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0;
  double sum = 0;
  for (double v : samples) sum += v;
  return sum / static_cast<double>(samples.size());
}

/// A per-plan summary needs at least this many reads of every plan.
inline constexpr size_t kMinSamplesPerPlan = 10;

struct PlanSummary {
  double value = 0;   ///< mean over the plans of each plan's median
  size_t plans = 0;
  size_t fewest = 0;  ///< reads of the plan read least often
  bool valid = false;
};

/// Each plan's median (nearest rank), averaged over the plans. Over a fixed
/// plan set the mean does not depend on the order the plans ran in or on
/// how often each ran. Valid when every plan has at least
/// kMinSamplesPerPlan reads.
inline PlanSummary PlanMedianMean(
    const std::vector<std::vector<double>>& per_plan) {
  PlanSummary s;
  s.plans = per_plan.size();
  if (per_plan.empty()) return s;
  s.fewest = per_plan.front().size();
  double sum = 0;
  for (const std::vector<double>& reads : per_plan) {
    s.fewest = std::min(s.fewest, reads.size());
    sum += Median(reads);
  }
  s.value = sum / static_cast<double>(s.plans);
  s.valid = s.fewest >= kMinSamplesPerPlan;
  return s;
}

/// num / den, or 0 when nothing was attempted.
inline double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

/// A half-open time interval [begin, end) in nanoseconds.
using Interval = std::pair<int64_t, int64_t>;

/// A span's self time: its duration minus the part of [begin, end) that the
/// union of its children's intervals covers. Children may overlap each
/// other (parallel shard tasks) and may stick out of the parent; only the
/// covered part inside the parent is subtracted, once.
inline int64_t SelfTimeNs(Interval span, std::vector<Interval> children) {
  std::sort(children.begin(), children.end());
  int64_t covered = 0;
  int64_t cursor = span.first;
  for (const Interval& c : children) {
    const int64_t lo = std::max(c.first, cursor);
    const int64_t hi = std::min(c.second, span.second);
    if (hi > lo) {
      covered += hi - lo;
      cursor = hi;
    }
  }
  return (span.second - span.first) - covered;
}

}  // namespace perfbench
