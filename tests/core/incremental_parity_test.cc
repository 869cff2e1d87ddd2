// Randomized parity tests for the incremental classification engine: the
// cached/incremental paths (knowledge cache + worklist propagation,
// the SimulateLabelBoth kernel, StateKey memo keys) must agree exactly with
// the naive references (fresh-state Classify, NaiveSimulateLabelBoth,
// CanonicalKey)
// over seeded random sessions.

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/inference_state.h"
#include "core/strategies.h"
#include "naive_lookahead.h"
#include "util/rng.h"
#include "workload/synthetic.h"
#include "util/check.h"

namespace jim::core {
namespace {

// Parity suites run with the invariant auditor on (see util/check.h): every
// JIM_AUDIT checkpoint inside the engine re-derives its CheckInvariants
// contract while the parity assertions run, so a divergence is caught at
// the mutation that introduced it, not at the final transcript diff.
const bool kAuditInvariantsOn = [] {
  ::jim::util::SetAuditInvariants(true);
  return true;
}();

workload::SyntheticWorkload MakeWorkload(uint64_t seed, size_t tuples,
                                         size_t attributes) {
  util::Rng rng(seed);
  workload::SyntheticSpec spec;
  spec.num_tuples = tuples;
  spec.num_attributes = attributes;
  spec.domain_size = 3;  // small domain: rich accidental-equality structure
  spec.goal_constraints = 2;
  return workload::MakeSyntheticWorkload(spec, rng);
}

/// Replays the engine's label history into a fresh InferenceState and
/// classifies every class from scratch — the naive reference the incremental
/// engine must match.
void ExpectStatusesMatchFreshState(const InferenceEngine& engine) {
  InferenceState fresh(engine.store().num_attributes());
  for (const LabeledExample& example : engine.history()) {
    const size_t cls = engine.class_of_tuple(example.tuple_index);
    ASSERT_TRUE(
        fresh.ApplyLabel(engine.tuple_class(cls).partition, example.label)
            .ok());
  }
  size_t informative_count = 0;
  for (size_t c = 0; c < engine.num_classes(); ++c) {
    const ClassStatus status = engine.class_status(c);
    if (status == ClassStatus::kLabeledPositive ||
        status == ClassStatus::kLabeledNegative) {
      continue;  // explicit labels are engine bookkeeping, not classification
    }
    const TupleClassification expected =
        fresh.Classify(engine.tuple_class(c).partition);
    switch (expected) {
      case TupleClassification::kInformative:
        EXPECT_EQ(status, ClassStatus::kInformative) << "class " << c;
        ++informative_count;
        break;
      case TupleClassification::kForcedPositive:
        EXPECT_EQ(status, ClassStatus::kForcedPositive) << "class " << c;
        break;
      case TupleClassification::kForcedNegative:
        EXPECT_EQ(status, ClassStatus::kForcedNegative) << "class " << c;
        break;
    }
    // The cached knowledge of informative classes must be the true
    // K_c = θ_P ∧ Part(c) under the current state.
    if (expected == TupleClassification::kInformative) {
      EXPECT_EQ(engine.ClassKnowledge(c),
                fresh.theta_p().Meet(engine.tuple_class(c).partition))
          << "stale knowledge cache for class " << c;
    }
  }
  EXPECT_EQ(engine.InformativeClasses().size(), informative_count);
  // The worklist mirrors the statuses exactly, ascending.
  std::vector<size_t> expected_worklist;
  for (size_t c = 0; c < engine.num_classes(); ++c) {
    if (engine.class_status(c) == ClassStatus::kInformative) {
      expected_worklist.push_back(c);
    }
  }
  EXPECT_EQ(engine.InformativeClasses(), expected_worklist);
}

TEST(IncrementalParityTest, CachedClassificationMatchesFreshStateReplay) {
  // Wider instances too: at 8 attributes the knowledge partitions carry far
  // more co-block pairs than at 5, and at 12 the 66 attribute pairs need two
  // pair words.
  util::Rng rng(11);
  for (const size_t attributes : {5u, 8u, 12u}) {
    for (uint64_t seed = 1; seed <= 6; ++seed) {
      SCOPED_TRACE("attributes=" + std::to_string(attributes) +
                   " seed=" + std::to_string(seed));
      const auto workload = MakeWorkload(seed, 120, attributes);
      InferenceEngine engine(workload.instance);
      ExpectStatusesMatchFreshState(engine);
      while (!engine.IsDone()) {
        const std::vector<size_t>& informative = engine.InformativeClasses();
        const size_t cls = rng.PickOne(informative);
        const Label label =
            rng.UniformInt(0, 1) == 0 ? Label::kPositive : Label::kNegative;
        ASSERT_TRUE(engine.SubmitClassLabel(cls, label).ok());
        ExpectStatusesMatchFreshState(engine);
      }
    }
  }
}

TEST(IncrementalParityTest, SimulateLabelBothMatchesTwoSimulateLabelCalls) {
  util::Rng rng(23);
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    const auto workload = MakeWorkload(seed, 150, 6);
    InferenceEngine engine(workload.instance);
    while (!engine.IsDone()) {
      // Compare every informative candidate at every step of the session.
      const std::vector<size_t> informative = engine.InformativeClasses();
      InferenceEngine::LookaheadCache cache;
      engine.PrepareLookahead(cache);
      for (size_t position = 0; position < informative.size(); ++position) {
        const auto both = engine.SimulateLabelBoth(position, cache);
        const auto naive = NaiveSimulateLabelBoth(engine, informative[position]);
        EXPECT_EQ(both.positive.pruned_classes, naive.positive.pruned_classes);
        EXPECT_EQ(both.positive.pruned_tuples, naive.positive.pruned_tuples);
        EXPECT_EQ(both.negative.pruned_classes, naive.negative.pruned_classes);
        EXPECT_EQ(both.negative.pruned_tuples, naive.negative.pruned_tuples);
      }
      const size_t cls = rng.PickOne(informative);
      const Label label =
          rng.UniformInt(0, 1) == 0 ? Label::kPositive : Label::kNegative;
      ASSERT_TRUE(engine.SubmitClassLabel(cls, label).ok());
    }
  }
}

TEST(IncrementalParityTest, SimulatedImpactMatchesActualSubmission) {
  // SimulateLabelBoth's prediction must equal the real pruning when the
  // label is then submitted — across whole random sessions.
  util::Rng rng(37);
  for (uint64_t seed = 10; seed <= 13; ++seed) {
    const auto workload = MakeWorkload(seed, 100, 5);
    InferenceEngine engine(workload.instance);
    while (!engine.IsDone()) {
      const std::vector<size_t> informative = engine.InformativeClasses();
      const size_t before = engine.NumInformativeTuples();
      const size_t position = static_cast<size_t>(rng.UniformInt(
          0, static_cast<int64_t>(informative.size()) - 1));
      const size_t cls = informative[position];
      const Label label =
          rng.UniformInt(0, 1) == 0 ? Label::kPositive : Label::kNegative;
      InferenceEngine::LookaheadCache cache;
      engine.PrepareLookahead(cache);
      const auto both = engine.SimulateLabelBoth(position, cache);
      const auto predicted =
          label == Label::kPositive ? both.positive : both.negative;
      ASSERT_TRUE(engine.SubmitClassLabel(cls, label).ok());
      EXPECT_EQ(before - engine.NumInformativeTuples(),
                predicted.pruned_tuples);
      EXPECT_EQ(informative.size() - engine.InformativeClasses().size(),
                predicted.pruned_classes);
    }
  }
}

TEST(IncrementalParityTest, StateKeyMatchesCanonicalKey) {
  // Two states agree on StateKey iff they agree on the string CanonicalKey —
  // across the states reached by random sessions on a fixed instance.
  const auto workload = MakeWorkload(3, 80, 5);
  util::Rng rng(51);
  std::vector<InferenceState> states;
  std::vector<std::string> canonical;
  for (int session = 0; session < 6; ++session) {
    InferenceEngine engine(workload.instance);
    states.push_back(engine.state());
    canonical.push_back(engine.state().CanonicalKey());
    while (!engine.IsDone()) {
      const size_t cls = rng.PickOne(engine.InformativeClasses());
      const Label label =
          rng.UniformInt(0, 1) == 0 ? Label::kPositive : Label::kNegative;
      ASSERT_TRUE(engine.SubmitClassLabel(cls, label).ok());
      states.push_back(engine.state());
      canonical.push_back(engine.state().CanonicalKey());
    }
  }
  std::vector<InferenceState::StateKey> keys;
  keys.reserve(states.size());
  for (const InferenceState& state : states) {
    keys.push_back(state.MakeStateKey());
  }
  for (size_t i = 0; i < states.size(); ++i) {
    for (size_t j = 0; j < states.size(); ++j) {
      EXPECT_EQ(keys[i] == keys[j], canonical[i] == canonical[j])
          << "states " << i << " / " << j;
      if (keys[i] == keys[j]) {
        EXPECT_EQ(InferenceState::StateKeyHash{}(keys[i]),
                  InferenceState::StateKeyHash{}(keys[j]));
      }
    }
  }
}

TEST(IncrementalParityTest, LookaheadPickUnchangedByFastPath) {
  // Score parity (tested above) already forces identical picks for every
  // aggregate; this cross-checks the end result once: the strategy's pick
  // equals the argmax of naively-scored candidates (ties toward the smaller
  // class id, matching the documented determinism).
  const auto workload = MakeWorkload(7, 150, 6);
  InferenceEngine engine(workload.instance);
  auto strategy = MakeStrategy("lookahead-minmax").value();
  int steps = 0;
  while (!engine.IsDone() && steps < 8) {
    const size_t pick = strategy->PickClass(engine);
    const std::vector<size_t>& candidates = engine.InformativeClasses();
    size_t best = candidates.front();
    size_t best_score = 0;
    bool first = true;
    for (size_t cls : candidates) {
      const auto both = NaiveSimulateLabelBoth(engine, cls);
      const size_t score =
          std::min(both.positive.pruned_tuples, both.negative.pruned_tuples);
      if (first || score > best_score) {
        best = cls;
        best_score = score;
        first = false;
      }
    }
    EXPECT_EQ(pick, best) << "step " << steps;
    ASSERT_TRUE(engine.SubmitClassLabel(pick, Label::kNegative).ok());
    ++steps;
  }
}

}  // namespace
}  // namespace jim::core
