// Self-tests of the benchmark harness: percentile math, span self time,
// seed determinism of the workloads, and the open-loop schedule. run.py
// runs this before every benchmark run; a failure stops the run.

#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "core/engine.h"
#include "stats.h"
#include "workload.h"

namespace {

using namespace jimbench;

int failures = 0;

void Expect(bool condition, const std::string& what) {
  if (!condition) {
    ++failures;
    std::cerr << "jimbench_selftest: FAILED: " << what << "\n";
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void TestPercentiles() {
  Samples s;
  for (int i = 1; i <= 101; ++i) s.Add(i);
  Samples shuffled;
  for (int i = 101; i >= 1; --i) shuffled.Add(i);
  Expect(Near(s.Quantile(0.5), 51), "median of 1..101 is 51");
  Expect(Near(shuffled.Quantile(0.5), 51), "median ignores insertion order");
  Expect(Near(s.Quantile(0.99), 100), "p99 of 1..101 is 100");
  Expect(Near(s.Quantile(0.0), 1) && Near(s.Quantile(1.0), 101),
         "p0/p100 are the extremes");
  Samples pair;
  pair.Add(10);
  pair.Add(20);
  Expect(Near(pair.Quantile(0.25), 12.5), "linear interpolation between ranks");
  Expect(Near(Samples().Quantile(0.5), 0), "empty set reports 0");
  s.Add(1000);  // samples added after a query refresh the sorted copy
  Expect(Near(s.Quantile(1.0), 1000), "quantile sees samples added later");

  // "Highest percentile with at least ten samples beyond it".
  // p99 sits at rank 0.99 * (n - 1): 902 samples leave ranks 892..901
  // beyond it, 901 samples only 892..900.
  Expect(SamplesBeyond(902, 0.99) == 10, "902 samples: 10 beyond p99");
  Expect(SamplesBeyond(901, 0.99) == 9, "901 samples: 9 beyond p99");
  Expect(HighestSupportedQuantile(902) == 0.99, "902 samples support p99");
  Expect(HighestSupportedQuantile(901) == 0.95, "901 samples fall to p95");
  Expect(HighestSupportedQuantile(200) == 0.95, "200 samples support p95");
  Expect(HighestSupportedQuantile(100) == 0.90, "100 samples support p90");
  Expect(HighestSupportedQuantile(40) == 0.75, "40 samples support p75");
  Expect(HighestSupportedQuantile(5) == 0.50, "5 samples fall back to p50");
  Expect(QuantileLabel(0.95) == "p95", "quantile label");
  Expect(TailQuantile(100000) == kTailQuantile, "large samples: the tail");
  Expect(TailQuantile(100) == 0.90, "small samples: a supported lower one");
  Samples few;
  for (int i = 1; i <= 100; ++i) few.Add(i);
  Expect(Near(TailValue(few), few.Quantile(0.90)),
         "tail of 100 samples is their p90");
}

void TestSelfTime() {
  // Parent [0, 100) with children [10,30) [20,50) [60,70) [90,120): the
  // overlapping pair covers [10,50), the last child is clipped at 100.
  const std::vector<std::pair<int64_t, int64_t>> children = {
      {60, 70}, {10, 30}, {90, 120}, {20, 50}};
  const int64_t covered = CoveredLength(children, 0, 100);
  Expect(covered == 60, "children cover 40 + 10 + 10 of the parent");
  Expect(100 - covered == 40, "parent self time is 40");
  Expect(CoveredLength({}, 0, 100) == 0, "no children, no coverage");
  Expect(CoveredLength({{0, 100}, {10, 20}}, 0, 100) == 100,
         "a nested child adds nothing");
  Expect(CoveredLength({{-5, 3}}, 0, 100) == 3,
         "a child starting before its parent is clipped");
}

void TestSeedDeterminism() {
  for (const std::string& name : WorkloadNames()) {
    const Workload w = FindWorkload(name).value();
    if (name == "lookahead-100k") continue;  // same code path, 10x the data
    auto store = MakeInstance(w, 7);
    auto again = MakeInstance(w, 7);
    const jim::core::InferenceEngine prototype(store);
    const jim::core::InferenceEngine prototype_again(again);
    Expect(prototype.num_classes() == prototype_again.num_classes(),
           name + ": same seed, same instance");
    Oracle oracle(store);
    Oracle oracle_again(again);
    bool same_specs = true;
    bool other_seed_differs = false;
    double labels = 0, labels_again = 0;
    for (uint64_t i = 0; i < 12; ++i) {
      const SessionSpec a = MakeSessionSpec(w, *store, 7, i);
      const SessionSpec b = MakeSessionSpec(w, *again, 7, i);
      const SessionSpec c = MakeSessionSpec(w, *store, 8, i);
      same_specs = same_specs && a.goal == b.goal &&
                   a.strategy == b.strategy && a.seed == b.seed;
      other_seed_differs = other_seed_differs || a.goal != c.goal;
      labels += static_cast<double>(LabelsToIdentify(prototype, a, oracle));
      labels_again += static_cast<double>(
          LabelsToIdentify(prototype_again, b, oracle_again));
    }
    Expect(same_specs, name + ": same seed, same goals and strategies");
    Expect(other_seed_differs, name + ": another seed, other goals");
    Expect(labels == labels_again && labels > 0,
           name + ": same seed, same labels_per_session");
  }
  const Workload interleaved = FindWorkload("interleaved-10k").value();
  auto store = MakeInstance(interleaved, 3);
  bool strategies_vary = false;
  const std::string first = MakeSessionSpec(interleaved, *store, 3, 0).strategy;
  for (uint64_t i = 1; i < 30; ++i) {
    strategies_vary = strategies_vary ||
                      MakeSessionSpec(interleaved, *store, 3, i).strategy !=
                          first;
  }
  Expect(strategies_vary, "interleaved-10k mixes its strategies");
}

void TestOpenLoopSchedule() {
  // Two users' timelines consumed in different interleavings (as two runs
  // whose responses arrive at different times would) give the same times.
  const double think = 0.25;
  std::vector<double> a0, a1, b0, b1;
  {
    UserSchedule u0(11, 0, think), u1(11, 1, think);
    for (int i = 0; i < 50; ++i) {
      a0.push_back(u0.due());
      u0.Advance();
    }
    for (int i = 0; i < 50; ++i) {
      a1.push_back(u1.due());
      u1.Advance();
    }
  }
  {
    UserSchedule u1(11, 1, think), u0(11, 0, think);
    for (int i = 0; i < 50; ++i) {
      b1.push_back(u1.due());
      u1.Advance();
      b0.push_back(u0.due());
      u0.Advance();
    }
  }
  Expect(a0 == b0 && a1 == b1, "schedule fixed by (seed, user), not order");
  Expect(a0 != a1, "users have independent timelines");
  UserSchedule other(12, 0, think);
  Expect(other.due() != a0[0], "another seed, another schedule");
  bool increasing = true;
  for (size_t i = 1; i < a0.size(); ++i) increasing &= a0[i] > a0[i - 1];
  Expect(increasing, "due times increase");
  // The mean think time is the configured one (law of large numbers).
  UserSchedule longrun(5, 0, think);
  for (int i = 0; i < 20000; ++i) longrun.Advance();
  Expect(std::fabs(longrun.due() / 20001 - think) < 0.01,
         "mean think time matches the offered rate");
}

}  // namespace

int main() {
  TestPercentiles();
  TestSelfTime();
  TestSeedDeterminism();
  TestOpenLoopSchedule();
  if (failures != 0) {
    std::cerr << "jimbench_selftest: " << failures << " check(s) failed\n";
    return 1;
  }
  std::cerr << "jimbench_selftest: all checks passed\n";
  return 0;
}
