// Unit tests for the benchmark's percentile, per-plan summary, ratio and
// self-time arithmetic (perfbench/stats.h). Exits non-zero on the first failure; the
// build runs it before every benchmark run.
#include "stats.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

namespace {

int failures = 0;

void Expect(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "stats_test:%d: FAILED: %s\n", line, what);
    ++failures;
  }
}
#define EXPECT(cond) Expect((cond), #cond, __LINE__)

bool Near(double a, double b) { return std::fabs(a - b) < 1e-12; }

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void TestPercentile() {
  using perfbench::PercentileOf;
  // Nearest rank: p50 of 1..100 is the 50th value, p99 of 1..1000 the 990th.
  perfbench::Percentile p = PercentileOf(OneTo(100), 0.5);
  EXPECT(Near(p.value, 50) && p.count == 100 && p.beyond == 50 && p.valid);
  p = PercentileOf(OneTo(1000), 0.99);
  EXPECT(Near(p.value, 990) && p.beyond == 10 && p.valid);
  // One sample short of the floor: nine beyond, flagged invalid.
  p = PercentileOf(OneTo(999), 0.99);
  EXPECT(Near(p.value, 990) && p.beyond == 9 && !p.valid);
  p = PercentileOf(OneTo(100), 0.9);
  EXPECT(Near(p.value, 90) && p.beyond == 10 && p.valid);
  EXPECT(!PercentileOf(OneTo(99), 0.9).valid);
  // Empty and single samples never crash and are never valid.
  EXPECT(PercentileOf({}, 0.5).count == 0 && !PercentileOf({}, 0.5).valid);
  p = PercentileOf({7.0}, 0.99);
  EXPECT(Near(p.value, 7) && p.beyond == 0 && !p.valid);
  // The floors the benchmark prints.
  EXPECT(perfbench::MinSamplesFor(0.99) == 1000);
  EXPECT(perfbench::MinSamplesFor(0.9) == 100);
  EXPECT(perfbench::MinSamplesFor(0.5) == 20);
  EXPECT(Near(perfbench::Median({3, 1, 2}), 2));
  EXPECT(Near(perfbench::Median({}), 0));
  EXPECT(Near(perfbench::Mean({1, 2, 6}), 3));
}

void TestRatio() {
  EXPECT(Near(perfbench::Ratio(1, 4), 0.25));
  EXPECT(Near(perfbench::Ratio(0, 0), 0));  // nothing attempted
  EXPECT(Near(perfbench::Ratio(3, 3), 1));
}

void TestPlanSummary() {
  using perfbench::PlanMedianMean;
  // The 5th of 10 and the 10th of 20 (times ten): (5 + 100) / 2.
  std::vector<std::vector<double>> plans = {OneTo(10), OneTo(20)};
  for (double& v : plans[1]) v *= 10;
  perfbench::PlanSummary s = PlanMedianMean(plans);
  EXPECT(Near(s.value, 52.5) && s.plans == 2 && s.fewest == 10 && s.valid);
  // How often a plan ran does not weigh it: one plan read 10 times, one 20.
  EXPECT(Near(PlanMedianMean({OneTo(10), OneTo(20)}).value, 7.5));
  // A plan read fewer than ten times makes the summary invalid.
  s = PlanMedianMean({OneTo(10), OneTo(9)});
  EXPECT(s.fewest == 9 && !s.valid);
  s = PlanMedianMean({OneTo(10), {}});
  EXPECT(s.fewest == 0 && !s.valid);
  EXPECT(!PlanMedianMean({}).valid);
}

void TestSelfTime() {
  using perfbench::SelfTimeNs;
  EXPECT(SelfTimeNs({0, 100}, {}) == 100);
  EXPECT(SelfTimeNs({0, 100}, {{10, 20}, {30, 50}}) == 70);
  // Overlapping children (parallel shards) are subtracted once.
  EXPECT(SelfTimeNs({0, 100}, {{10, 60}, {20, 40}, {50, 70}}) == 40);
  // Children sticking out of the parent only count inside it.
  EXPECT(SelfTimeNs({10, 100}, {{0, 20}, {90, 120}}) == 70);
  EXPECT(SelfTimeNs({0, 100}, {{0, 100}}) == 0);
}

}  // namespace

int main() {
  TestPercentile();
  TestRatio();
  TestPlanSummary();
  TestSelfTime();
  if (failures != 0) return 1;
  std::fprintf(stderr, "stats_test: all checks passed\n");
  return 0;
}
