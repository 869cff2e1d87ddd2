// Copy-on-write semantics of InferenceEngine clones: the class table is
// shared outright, the knowledge table K_c is shared until the clone's
// first positive label, and no mutation of a clone is ever visible through
// its siblings or the prototype. Sharing of the knowledge table shows as
// equal ClassKnowledgeBits addresses.

#include <memory>

#include "core/engine.h"
#include "core/jim.h"
#include "gtest/gtest.h"
#include "naive_lookahead.h"
#include "util/rng.h"
#include "workload/synthetic.h"

namespace jim::core {
namespace {

workload::SyntheticWorkload MakeWorkload(uint64_t seed) {
  util::Rng rng(seed);
  workload::SyntheticSpec spec;
  spec.num_attributes = 6;
  spec.num_tuples = 150;
  spec.domain_size = 4;
  spec.goal_constraints = 2;
  return workload::MakeSyntheticWorkload(spec, rng);
}

/// First still-informative class of an engine.
size_t AnyInformative(const InferenceEngine& engine) {
  const auto& informative = engine.InformativeClasses();
  EXPECT_FALSE(informative.empty());
  return informative.front();
}

TEST(EngineCowTest, CloneSharesClassTableAndKnowledge) {
  const auto workload = MakeWorkload(1);
  const InferenceEngine prototype(workload.instance);
  const InferenceEngine clone = prototype;

  // Shared storage is observable through accessor addresses: same objects,
  // not equal copies.
  const size_t c = AnyInformative(prototype);
  EXPECT_EQ(&clone.tuple_class(c), &prototype.tuple_class(c));
  EXPECT_EQ(clone.ClassKnowledgeBits(c), prototype.ClassKnowledgeBits(c));
}

TEST(EngineCowTest, PositiveLabelDetachesKnowledge) {
  const auto workload = MakeWorkload(2);
  const InferenceEngine prototype(workload.instance);
  InferenceEngine clone = prototype;

  const size_t labeled = AnyInformative(clone);
  // Remember a class that stays informative in the clone so its (refreshed)
  // K_c can be compared across the engines afterwards.
  ASSERT_TRUE(clone.SubmitClassLabel(labeled, Label::kPositive).ok());

  // The class table is immutable and stays shared...
  EXPECT_EQ(&clone.tuple_class(labeled), &prototype.tuple_class(labeled));
  // ...but the knowledge table detached: the clone refreshed its own copy.
  EXPECT_NE(clone.ClassKnowledgeBits(labeled),
            prototype.ClassKnowledgeBits(labeled));

  // The prototype saw nothing: same informative pool, no history, and its
  // K_c is still the construction-time value Part(c) (θ_P = ⊤).
  EXPECT_EQ(prototype.history().size(), 0u);
  EXPECT_EQ(prototype.class_status(labeled), ClassStatus::kInformative);
  EXPECT_EQ(prototype.ClassKnowledge(labeled),
            prototype.tuple_class(labeled).partition);
}

TEST(EngineCowTest, NegativeLabelsNeverCopyTheKnowledge) {
  const auto workload = MakeWorkload(3);
  const InferenceEngine prototype(workload.instance);
  InferenceEngine clone = prototype;

  // Negative labels grow the forbidden antichain but never touch K_c, so
  // the clone keeps sharing the cache through any number of them.
  for (int i = 0; i < 3 && !clone.IsDone(); ++i) {
    const size_t c = AnyInformative(clone);
    ASSERT_TRUE(clone.SubmitClassLabel(c, Label::kNegative).ok());
    EXPECT_EQ(clone.ClassKnowledgeBits(0), prototype.ClassKnowledgeBits(0))
        << "after negative label " << i;
  }
}

TEST(EngineCowTest, CloneBehavesExactlyLikeAFreshEngine) {
  const auto workload = MakeWorkload(4);
  const InferenceEngine prototype(workload.instance);

  InferenceEngine clone = prototype;
  InferenceEngine fresh(workload.instance);

  // Drive both with the same labels; every observable must stay equal.
  util::Rng rng(99);
  while (!fresh.IsDone()) {
    ASSERT_FALSE(clone.IsDone());
    const auto& informative = fresh.InformativeClasses();
    const size_t c = informative[static_cast<size_t>(rng.UniformInt(
        0, static_cast<int64_t>(informative.size()) - 1))];
    const Label label = rng.Bernoulli(0.5) ? Label::kPositive
                                           : Label::kNegative;
    ASSERT_EQ(fresh.SubmitClassLabel(c, label).ok(),
              clone.SubmitClassLabel(c, label).ok());
    ASSERT_EQ(fresh.InformativeClasses(), clone.InformativeClasses());
    ASSERT_EQ(fresh.GetStats().informative_tuples,
              clone.GetStats().informative_tuples);
  }
  EXPECT_TRUE(clone.IsDone());
  EXPECT_EQ(fresh.Result().ToString(), clone.Result().ToString());
  EXPECT_EQ(prototype.history().size(), 0u);  // never touched
}

TEST(EngineCowTest, CloneSharesSessionArraysUntilFirstLabel) {
  const auto workload = MakeWorkload(6);
  const InferenceEngine prototype(workload.instance);
  InferenceEngine clone = prototype;

  // The flat session arrays (worklist, statuses) are shared by address,
  // like the class table — EngineCopy is pointer bumps only.
  EXPECT_EQ(&clone.InformativeClasses(), &prototype.InformativeClasses());

  // Any label — even a negative one, which never touches the knowledge
  // cache — detaches the session arrays.
  const size_t c = AnyInformative(clone);
  ASSERT_TRUE(clone.SubmitClassLabel(c, Label::kNegative).ok());
  EXPECT_NE(&clone.InformativeClasses(), &prototype.InformativeClasses());

  // The prototype's view is untouched.
  EXPECT_EQ(prototype.class_status(c), ClassStatus::kInformative);
  EXPECT_EQ(prototype.history().size(), 0u);
  EXPECT_EQ(prototype.GetStats().explicitly_labeled_tuples, 0u);
  // A second label on the (now sole-owner) clone does not re-copy.
  if (!clone.IsDone()) {
    const std::vector<size_t>* before = &clone.InformativeClasses();
    ASSERT_TRUE(
        clone.SubmitClassLabel(AnyInformative(clone), Label::kNegative).ok());
    EXPECT_EQ(&clone.InformativeClasses(), before);
  }
}

TEST(EngineCowTest, WastedLabelOnCloneLeavesPrototypeUntouched) {
  const auto workload = MakeWorkload(7);
  const InferenceEngine prototype(workload.instance);
  InferenceEngine clone = prototype;

  const size_t c = AnyInformative(clone);
  ASSERT_TRUE(clone.SubmitClassLabel(c, Label::kPositive).ok());
  // Re-labeling the same class consistently is a wasted interaction — it
  // records only the history and the labeled-tuple list, both plain value
  // members of the clone.
  const size_t tuple = clone.tuple_class(c).tuple_indices.front();
  ASSERT_TRUE(clone.SubmitTupleLabel(tuple, Label::kPositive).ok());
  EXPECT_EQ(clone.GetStats().wasted_interactions, 1u);
  EXPECT_EQ(prototype.tuple_status(tuple), TupleStatus::kInformative);
  EXPECT_EQ(prototype.GetStats().wasted_interactions, 0u);
}

TEST(EngineCowTest, SiblingClonesAreIndependent) {
  const auto workload = MakeWorkload(5);
  const InferenceEngine prototype(workload.instance);
  InferenceEngine a = prototype;
  InferenceEngine b = prototype;

  const size_t c = AnyInformative(prototype);
  ASSERT_TRUE(a.SubmitClassLabel(c, Label::kPositive).ok());
  ASSERT_TRUE(b.SubmitClassLabel(c, Label::kNegative).ok());

  EXPECT_EQ(a.class_status(c), ClassStatus::kLabeledPositive);
  EXPECT_EQ(b.class_status(c), ClassStatus::kLabeledNegative);
  EXPECT_EQ(prototype.class_status(c), ClassStatus::kInformative);

  // SimulateLabelBoth on the untouched prototype still agrees with the
  // naive reference (the caches of a/b diverged, the prototype's did not).
  InferenceEngine::LookaheadCache cache;
  prototype.PrepareLookahead(cache);
  // AnyInformative picked the worklist's front: position 0.
  const auto both = prototype.SimulateLabelBoth(0, cache);
  const auto naive = NaiveSimulateLabelBoth(prototype, c);
  EXPECT_EQ(both.positive.pruned_tuples, naive.positive.pruned_tuples);
  EXPECT_EQ(both.negative.pruned_tuples, naive.negative.pruned_tuples);
}

}  // namespace
}  // namespace jim::core
