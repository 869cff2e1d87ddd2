// SpeculativeSession, the trail-backed substrate of the minimax search,
// pinned against its references:
//   - apply/undo round-trips restore the state and the live list exactly;
//   - the trail-based minimax agrees with a naive state-copying solver, both
//     for the worst-case question count and for OptimalStrategy's
//     per-candidate scores.

#include <algorithm>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/jim.h"
#include "gtest/gtest.h"
#include "util/check.h"
#include "util/logging.h"
#include "util/rng.h"
#include "workload/synthetic.h"
#include "workload/travel.h"

namespace jim::core {
namespace {

// Like the parity suites, run with the invariant auditor on: every
// JIM_AUDIT checkpoint (engine construction and labeling) re-derives the
// worklist and knowledge-cache contracts while these assertions run.
const bool kAuditInvariantsOn = [] {
  ::jim::util::SetAuditInvariants(true);
  return true;
}();

workload::SyntheticWorkload MakeWorkload(uint64_t seed, size_t tuples,
                                         size_t attrs) {
  util::Rng rng(seed);
  workload::SyntheticSpec spec;
  spec.num_attributes = attrs;
  spec.num_tuples = tuples;
  spec.domain_size = 4;
  spec.goal_constraints = 2;
  return workload::MakeSyntheticWorkload(spec, rng);
}

TEST(SpeculationTest, TrailUndoRestoresStateAndLiveList) {
  const auto workload = MakeWorkload(31, /*tuples=*/120, /*attrs=*/5);
  const InferenceEngine engine(workload.instance);
  SpeculativeSession session(engine);
  session.CheckInvariants();

  const std::string key0 = session.state().CanonicalKey();
  const std::vector<size_t> live0 = session.LiveClasses();
  ASSERT_EQ(live0, engine.InformativeClasses());

  // Depth-3 apply/undo walk over a few branches: after every unwind the
  // state key and the live list must be bit-for-bit the originals.
  const std::vector<Label> labels = {Label::kPositive, Label::kNegative};
  size_t branches = 0;
  for (size_t i = 0; i < std::min<size_t>(live0.size(), 3); ++i) {
    for (Label first : labels) {
      session.Apply(live0[i], first);
      session.CheckInvariants();
      const std::string key1 = session.state().CanonicalKey();
      const std::vector<size_t> live1 = session.LiveClasses();
      EXPECT_LT(live1.size(), live0.size());
      if (!live1.empty()) {
        for (Label second : labels) {
          session.Apply(live1.front(), second);
          session.CheckInvariants();
          if (session.num_live() > 0) {
            session.Apply(session.FirstLive(), Label::kNegative);
            session.Undo();
          }
          session.Undo();
          EXPECT_EQ(session.state().CanonicalKey(), key1);
          EXPECT_EQ(session.LiveClasses(), live1);
          ++branches;
        }
      }
      session.Undo();
      session.CheckInvariants();
      EXPECT_EQ(session.state().CanonicalKey(), key0);
      EXPECT_EQ(session.LiveClasses(), live0);
      EXPECT_EQ(session.depth(), 0u);
    }
  }
  EXPECT_GT(branches, 0u);
}

/// The pre-trail minimax, verbatim: full-engine rescan per node, an
/// InferenceState copy per answer branch. Kept here as the oracle the
/// trail-based solver must agree with.
class NaiveMinimaxReference {
 public:
  explicit NaiveMinimaxReference(const InferenceEngine& engine)
      : engine_(engine) {}

  size_t Solve(const InferenceState& state) {
    const std::string key = state.CanonicalKey();
    auto it = memo_.find(key);
    if (it != memo_.end()) return it->second;
    std::vector<size_t> live;
    for (size_t c = 0; c < engine_.num_classes(); ++c) {
      if (engine_.class_status(c) != ClassStatus::kInformative) continue;
      if (state.Classify(engine_.tuple_class(c).partition) ==
          TupleClassification::kInformative) {
        live.push_back(c);
      }
    }
    size_t best = live.empty() ? 0 : SIZE_MAX;
    for (size_t c : live) {
      size_t worst = 0;
      for (Label label : {Label::kPositive, Label::kNegative}) {
        InferenceState next = state;
        JIM_CHECK_OK(
            next.ApplyLabel(engine_.tuple_class(c).partition, label));
        worst = std::max(worst, Solve(next));
      }
      best = std::min(best, 1 + worst);
      if (best == 1) break;
    }
    memo_.emplace(key, best);
    return best;
  }

 private:
  const InferenceEngine& engine_;
  std::unordered_map<std::string, size_t> memo_;
};

TEST(SpeculationTest, TrailMinimaxMatchesNaiveReference) {
  // Small instances keep the naive reference tractable.
  {
    auto instance = workload::Figure1InstancePtr();
    const InferenceEngine engine(instance);
    NaiveMinimaxReference naive(engine);
    EXPECT_EQ(OptimalWorstCaseQuestions(engine),
              naive.Solve(engine.state()));
  }
  for (uint64_t seed : {1u, 9u}) {
    util::Rng rng(seed);
    workload::SyntheticSpec spec;
    spec.num_attributes = 4;
    spec.num_tuples = 25;
    spec.domain_size = 3;
    spec.goal_constraints = 1;
    const auto workload = workload::MakeSyntheticWorkload(spec, rng);
    const InferenceEngine engine(workload.instance);
    NaiveMinimaxReference naive(engine);
    EXPECT_EQ(OptimalWorstCaseQuestions(engine), naive.Solve(engine.state()))
        << "seed=" << seed;
  }
}

TEST(SpeculationTest, OptimalStrategyScoresUnchangedOnFigure1) {
  // End-to-end: the rewritten solver drives OptimalStrategy::Score; its
  // per-candidate worst cases must match state-copy recomputation.
  auto instance = workload::Figure1InstancePtr();
  const InferenceEngine engine(instance);
  OptimalStrategy strategy;
  const std::vector<size_t>& candidates = engine.InformativeClasses();
  const std::vector<double> scores = strategy.Score(engine);
  ASSERT_EQ(scores.size(), candidates.size());
  NaiveMinimaxReference naive(engine);
  for (size_t i = 0; i < candidates.size(); ++i) {
    size_t worst = 0;
    for (Label label : {Label::kPositive, Label::kNegative}) {
      InferenceState next = engine.state();
      ASSERT_TRUE(
          next.ApplyLabel(engine.tuple_class(candidates[i]).partition, label)
              .ok());
      worst = std::max(worst, naive.Solve(next));
    }
    EXPECT_EQ(scores[i], -static_cast<double>(worst)) << "candidate " << i;
  }
}

}  // namespace
}  // namespace jim::core
