// Verdict parity for the engine's side-effect-free label check: over seeded
// random transcripts that mix informative labels, consistent labels on
// grayed-out tuples, repeats, relabels with the opposite answer and
// contradictions with θ_P / the antichain, InferenceEngine::CheckLabel must
// give exactly the verdict a real submission gives, a rejected submission
// must leave the engine untouched, and the per-tuple view (tuple_status)
// must match a reference recomputed from history() alone.

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/inference_state.h"
#include "naive_lookahead.h"
#include "util/check.h"
#include "util/rng.h"
#include "workload/synthetic.h"

namespace jim::core {
namespace {

// Parity suites run with the invariant auditor on (see util/check.h), so
// every Submit — accepted or rejected — re-derives CheckInvariants.
const bool kAuditInvariantsOn = [] {
  ::jim::util::SetAuditInvariants(true);
  return true;
}();

workload::SyntheticWorkload MakeWorkload(uint64_t seed) {
  util::Rng rng(seed);
  workload::SyntheticSpec spec;
  spec.num_tuples = 120;
  spec.num_attributes = 5;
  spec.domain_size = 3;  // small domain: many shared classes
  spec.goal_constraints = 2;
  return workload::MakeSyntheticWorkload(spec, rng);
}

void ExpectSameStats(const InferenceEngine::Stats& a,
                     const InferenceEngine::Stats& b) {
  EXPECT_EQ(a.interactions, b.interactions);
  EXPECT_EQ(a.wasted_interactions, b.wasted_interactions);
  EXPECT_EQ(a.informative_tuples, b.informative_tuples);
  EXPECT_EQ(a.informative_classes, b.informative_classes);
  EXPECT_EQ(a.forced_positive_tuples, b.forced_positive_tuples);
  EXPECT_EQ(a.forced_negative_tuples, b.forced_negative_tuples);
  EXPECT_EQ(a.explicitly_labeled_tuples, b.explicitly_labeled_tuples);
}

/// tuple_status of every tuple, recomputed from history() alone: a tuple in
/// the history shows its own label; every other tuple shows how a fresh
/// InferenceState, replayed from the history, classifies it.
std::vector<TupleStatus> ReferenceTupleStatuses(const InferenceEngine& engine) {
  InferenceState fresh(engine.store().num_attributes());
  std::vector<TupleStatus> expected(engine.num_tuples(),
                                    TupleStatus::kInformative);
  std::vector<bool> labeled(engine.num_tuples(), false);
  for (const LabeledExample& example : engine.history()) {
    const lat::Partition& part =
        engine.tuple_class(engine.class_of_tuple(example.tuple_index))
            .partition;
    EXPECT_TRUE(fresh.ApplyLabel(part, example.label).ok());
    labeled[example.tuple_index] = true;
    expected[example.tuple_index] = example.label == Label::kPositive
                                        ? TupleStatus::kLabeledPositive
                                        : TupleStatus::kLabeledNegative;
  }
  for (size_t t = 0; t < engine.num_tuples(); ++t) {
    if (labeled[t]) continue;
    switch (fresh.Classify(
        engine.tuple_class(engine.class_of_tuple(t)).partition)) {
      case TupleClassification::kInformative:
        expected[t] = TupleStatus::kInformative;
        break;
      case TupleClassification::kForcedPositive:
        expected[t] = TupleStatus::kForcedPositive;
        break;
      case TupleClassification::kForcedNegative:
        expected[t] = TupleStatus::kForcedNegative;
        break;
    }
  }
  return expected;
}

std::vector<TupleStatus> TupleStatuses(const InferenceEngine& engine) {
  std::vector<TupleStatus> statuses;
  for (size_t t = 0; t < engine.num_tuples(); ++t) {
    statuses.push_back(engine.tuple_status(t));
  }
  return statuses;
}

TEST(LabelVerdictParityTest, CheckLabelMatchesSubmissionOnRandomTranscripts) {
  size_t accepted = 0;
  size_t wasted = 0;
  size_t rejected = 0;
  size_t relabels = 0;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    const auto workload = MakeWorkload(seed);
    const InferenceEngine prototype(workload.instance);
    // Sessions run on a clone, like the daemon's, so the copy-on-write
    // paths are exercised too.
    InferenceEngine engine = prototype;
    util::Rng rng(100 + seed);
    // Past IsDone every label is on an uninformative tuple: keep going a
    // little to cover wasted labels and contradictions on a settled state.
    for (size_t step = 0; step < 80; ++step) {
      size_t tuple = static_cast<size_t>(rng.UniformInt(
          0, static_cast<int64_t>(engine.num_tuples()) - 1));
      if (!engine.history().empty() && rng.Bernoulli(0.2)) {
        // A relabel of an explicitly labeled tuple: a repeat or the
        // opposite answer.
        tuple = rng.PickOne(engine.history()).tuple_index;
        ++relabels;
      }
      const Label label =
          rng.Bernoulli(0.5) ? Label::kPositive : Label::kNegative;
      const size_t cls = engine.class_of_tuple(tuple);

      const InferenceEngine::Stats stats_before = engine.GetStats();
      const std::vector<size_t> worklist_before = engine.InformativeClasses();
      const std::vector<TupleStatus> statuses_before = TupleStatuses(engine);

      const util::Status verdict = engine.CheckLabel(cls, label);
      // The check itself changes nothing — not even a COW detach on a clone.
      InferenceEngine clone = engine;
      ASSERT_TRUE(clone.CheckLabel(cls, label).code() == verdict.code());
      EXPECT_EQ(&clone.InformativeClasses(), &engine.InformativeClasses());
      const bool informative =
          engine.class_status(cls) == ClassStatus::kInformative;
      const InferenceEngine::LabelImpact predicted =
          informative ? NaiveSimulateLabel(engine, cls, label)
                      : InferenceEngine::LabelImpact{};
      // The class path, on the clone: same verdict, and an accepted label
      // reports what it pruned — the simulation's prediction, or nothing
      // for a wasted label.
      InferenceEngine::LabelImpact impact;
      const util::Status submitted =
          clone.SubmitClassLabel(cls, label, &impact);
      ASSERT_EQ(verdict.code(), submitted.code())
          << "seed " << seed << " step " << step << ": check says "
          << verdict << ", submit says " << submitted;
      EXPECT_EQ(verdict.message(), submitted.message());

      // The tuple path, on the session engine itself.
      const util::Status status = engine.SubmitTupleLabel(tuple, label);
      ASSERT_EQ(status.code(), verdict.code());
      if (!status.ok()) {
        ++rejected;
        ExpectSameStats(engine.GetStats(), stats_before);
        EXPECT_EQ(engine.InformativeClasses(), worklist_before);
        EXPECT_EQ(TupleStatuses(engine), statuses_before);
        engine.CheckInvariants();
      } else {
        ++accepted;
        if (!informative) ++wasted;
        EXPECT_EQ(impact.pruned_classes, predicted.pruned_classes);
        EXPECT_EQ(impact.pruned_tuples, predicted.pruned_tuples);
        const InferenceEngine::Stats stats_after = engine.GetStats();
        EXPECT_EQ(impact.pruned_classes, stats_before.informative_classes -
                                             stats_after.informative_classes);
        EXPECT_EQ(impact.pruned_tuples, stats_before.informative_tuples -
                                            stats_after.informative_tuples);
      }
      ASSERT_EQ(TupleStatuses(engine), ReferenceTupleStatuses(engine))
          << "seed " << seed << " step " << step;
    }
    // Out-of-range ids get the same verdict from both paths too.
    EXPECT_EQ(engine.CheckLabel(engine.num_classes(), Label::kPositive).code(),
              util::StatusCode::kOutOfRange);
    EXPECT_EQ(
        engine.SubmitClassLabel(engine.num_classes(), Label::kPositive).code(),
        util::StatusCode::kOutOfRange);
  }
  // The transcripts really covered every kind of verdict.
  EXPECT_GT(accepted - wasted, 0u);
  EXPECT_GT(wasted, 0u);
  EXPECT_GT(rejected, 0u);
  EXPECT_GT(relabels, 0u);
}

TEST(LabelVerdictParityTest, OppositeRelabelIsRejectedWithItsOwnMessage) {
  const auto workload = MakeWorkload(42);
  InferenceEngine engine(workload.instance);
  const size_t cls = engine.InformativeClasses().front();
  ASSERT_TRUE(engine.SubmitClassLabel(cls, Label::kPositive).ok());
  const util::Status verdict = engine.CheckLabel(cls, Label::kNegative);
  EXPECT_EQ(verdict.code(), util::StatusCode::kFailedPrecondition);
  EXPECT_EQ(verdict.message(),
            "tuple was already labeled with the opposite label");
  EXPECT_TRUE(engine.CheckLabel(cls, Label::kPositive).ok());
}

}  // namespace
}  // namespace jim::core
