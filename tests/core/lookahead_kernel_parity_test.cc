// Parity tests for the bit-parallel lookahead kernel and the class-level
// result check, on instances the benchmark workloads never reach:
//   - 1, 11, 12 and 14 attributes (0, 55, 66 and 91 attribute pairs: no
//     pair word at all, a full single word, and two words), with NULL cells
//     and sessions biased toward negative labels so the forbidden-zone
//     antichain is non-empty;
//   - every candidate's kernel result equals two naive SimulateLabel calls,
//     and the cutoff-pruned pick equals the exhaustive argmax;
//   - InferenceEngine::InstanceEquivalent agrees with the tuple-scanning
//     InstanceEquivalent(store, …) on equivalent and non-equivalent
//     predicate pairs.

#include <limits>
#include <memory>
#include <vector>

#include "core/engine.h"
#include "core/join_predicate.h"
#include "core/strategies.h"
#include "exec/thread_pool.h"
#include "gtest/gtest.h"
#include "util/check.h"
#include "util/rng.h"
#include "workload/synthetic.h"

namespace jim::core {
namespace {

// Like the other parity suites, run with the invariant auditor on, which
// also re-derives every lookahead cache bitset from Partition::Pairs().
const bool kAuditInvariantsOn = [] {
  ::jim::util::SetAuditInvariants(true);
  return true;
}();

/// A synthetic instance over `attrs` attributes with roughly one cell in
/// eight replaced by NULL.
std::shared_ptr<const rel::Relation> MakeInstanceWithNulls(uint64_t seed,
                                                           size_t attrs,
                                                           size_t tuples) {
  util::Rng rng(seed);
  workload::SyntheticSpec spec;
  spec.num_attributes = attrs;
  spec.num_tuples = tuples;
  spec.domain_size = 3;
  spec.goal_constraints = attrs > 2 ? 2 : attrs - 1;
  const auto workload = workload::MakeSyntheticWorkload(spec, rng);
  auto relation = std::make_shared<rel::Relation>(
      workload.instance->name(), workload.instance->schema());
  for (rel::Tuple row : workload.instance->rows()) {
    for (rel::Value& cell : row) {
      if (rng.UniformInt(0, 7) == 0) cell = rel::Value::Null();
    }
    JIM_CHECK_OK(relation->AddRow(std::move(row)));
  }
  return relation;
}

std::vector<LookaheadStrategy::Objective> AllObjectives() {
  return {LookaheadStrategy::Objective::kMinMax,
          LookaheadStrategy::Objective::kExpected,
          LookaheadStrategy::Objective::kEntropy};
}

TEST(LookaheadKernelParityTest, KernelMatchesNaiveAcrossPairWordCounts) {
  size_t checked_with_antichain = 0;
  for (size_t attrs : {1u, 11u, 12u, 14u}) {
    const size_t pairs = attrs * (attrs - 1) / 2;
    for (uint64_t seed : {1u, 2u}) {
      InferenceEngine engine(MakeInstanceWithNulls(seed, attrs, 120));
      InferenceEngine::LookaheadBoundsCache bounds;
      engine.PrepareLookaheadBounds(bounds);
      EXPECT_EQ(bounds.words, (pairs + 63) / 64) << "attrs=" << attrs;
      util::Rng rng(seed * 31 + attrs);
      while (!engine.IsDone()) {
        engine.PrepareLookaheadBounds(bounds);
        const bool has_antichain = !engine.state().negatives().empty();
        const std::vector<size_t> informative = engine.InformativeClasses();
        for (size_t c : informative) {
          InferenceEngine::LabelImpactPair both;
          double unused_bound = 0;
          ASSERT_TRUE(engine.SimulateLabelBothBounded(
              c, bounds, nullptr, -std::numeric_limits<double>::infinity(),
              &both, &unused_bound));
          const auto plus = engine.SimulateLabel(c, Label::kPositive);
          const auto minus = engine.SimulateLabel(c, Label::kNegative);
          EXPECT_EQ(both.positive.pruned_classes, plus.pruned_classes)
              << "attrs=" << attrs << " class=" << c;
          EXPECT_EQ(both.positive.pruned_tuples, plus.pruned_tuples)
              << "attrs=" << attrs << " class=" << c;
          EXPECT_EQ(both.negative.pruned_classes, minus.pruned_classes)
              << "attrs=" << attrs << " class=" << c;
          EXPECT_EQ(both.negative.pruned_tuples, minus.pruned_tuples)
              << "attrs=" << attrs << " class=" << c;
          if (has_antichain) ++checked_with_antichain;
        }
        for (auto objective : AllObjectives()) {
          LookaheadStrategy exhaustive(objective);
          exhaustive.set_thread_pool(nullptr);
          exhaustive.set_cutoff_enabled(false);
          const size_t reference = exhaustive.PickClass(engine);
          LookaheadStrategy serial(objective);
          serial.set_thread_pool(nullptr);
          EXPECT_EQ(serial.PickClass(engine), reference) << "attrs=" << attrs;
          exec::ThreadPool pool(2);
          LookaheadStrategy parallel(objective);
          parallel.set_thread_pool(&pool);
          EXPECT_EQ(parallel.PickClass(engine), reference)
              << "attrs=" << attrs;
        }
        // Two negatives for every positive, so forbidden zones accumulate.
        const size_t pick = rng.PickOne(informative);
        const Label label =
            rng.UniformInt(0, 2) == 0 ? Label::kPositive : Label::kNegative;
        ASSERT_TRUE(engine.SubmitClassLabel(pick, label).ok());
      }
    }
  }
  EXPECT_GT(checked_with_antichain, 0u)
      << "no candidate was checked against a non-empty antichain";
}

TEST(LookaheadKernelParityTest, ClassLevelEquivalenceMatchesTupleScan) {
  size_t equivalent = 0;
  size_t non_equivalent = 0;
  for (size_t attrs : {3u, 6u, 12u}) {
    for (uint64_t seed : {4u, 5u}) {
      const InferenceEngine engine(MakeInstanceWithNulls(seed, attrs, 200));
      const rel::Schema& schema = engine.store().schema();
      util::Rng rng(seed * 17 + attrs);
      for (int round = 0; round < 40; ++round) {
        const JoinPredicate p1(
            schema, workload::RandomPartitionWithRank(
                        attrs, rng.UniformInt(0, 2), rng));
        // The closure of p1 over the instance — the meet of the value
        // partitions of every tuple it selects — selects exactly the same
        // tuples; an unrelated random predicate usually does not.
        lat::Partition closure = lat::Partition::Top(attrs);
        const util::DynamicBitset selected = p1.SelectedRows(engine.store());
        for (size_t t = 0; t < engine.num_tuples(); ++t) {
          if (selected.Test(t)) {
            closure =
                closure.Meet(engine.tuple_class(engine.class_of_tuple(t))
                                 .partition);
          }
        }
        const JoinPredicate random(
            schema, workload::RandomPartitionWithRank(
                        attrs, rng.UniformInt(0, 2), rng));
        for (const JoinPredicate& p2 : {JoinPredicate(schema, closure),
                                        random}) {
          const bool expected = InstanceEquivalent(engine.store(), p1, p2);
          EXPECT_EQ(engine.InstanceEquivalent(p1, p2), expected)
              << p1.ToString() << " vs " << p2.ToString();
          EXPECT_EQ(engine.InstanceEquivalent(p2, p1), expected);
          ++(expected ? equivalent : non_equivalent);
        }
      }
    }
  }
  EXPECT_GT(equivalent, 0u);
  EXPECT_GT(non_equivalent, 0u);
}

}  // namespace
}  // namespace jim::core
