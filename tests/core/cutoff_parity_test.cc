// Lookahead picks pinned to the naive reference (tests/core/naive_lookahead.h:
// every candidate scored from two full-rescan SimulateLabel calls):
//   - PickClass returns the reference argmax serially and at 1/2/8 threads;
//   - full session transcripts equal those of a session driven by the
//     reference picks.
// The suite keeps its name from the cutoff pruning it was written for; the
// contract — picks bitwise equal to the exhaustive argmax — is unchanged.
// The speculative trail and minimax checks live in speculation_test.cc.

#include <tuple>
#include <vector>

#include "core/jim.h"
#include "exec/thread_pool.h"
#include "gtest/gtest.h"
#include "naive_lookahead.h"
#include "util/check.h"
#include "util/rng.h"
#include "workload/synthetic.h"

namespace jim::core {
namespace {

// Like the other parity suites, run with the invariant auditor on: every
// JIM_AUDIT checkpoint (engine construction and labeling) re-derives the
// watch/worklist/pair-cover contracts while these assertions run.
const bool kAuditInvariantsOn = [] {
  ::jim::util::SetAuditInvariants(true);
  return true;
}();

workload::SyntheticWorkload MakeWorkload(uint64_t seed, size_t tuples = 300,
                                         size_t attrs = 6) {
  util::Rng rng(seed);
  workload::SyntheticSpec spec;
  spec.num_attributes = attrs;
  spec.num_tuples = tuples;
  spec.domain_size = 4;
  spec.goal_constraints = 2;
  return workload::MakeSyntheticWorkload(spec, rng);
}

std::vector<LookaheadStrategy::Objective> AllObjectives() {
  return {LookaheadStrategy::Objective::kMinMax,
          LookaheadStrategy::Objective::kExpected,
          LookaheadStrategy::Objective::kEntropy};
}

using Transcript = std::vector<std::tuple<size_t, size_t, Label, size_t>>;

TEST(CutoffParityTest, PickMatchesExhaustiveAcrossThreadCounts) {
  for (uint64_t seed : {3u, 14u, 159u}) {
    const auto workload = MakeWorkload(seed);
    const InferenceEngine engine(workload.instance);
    ASSERT_FALSE(engine.InformativeClasses().empty());

    for (auto objective : AllObjectives()) {
      LookaheadStrategy serial(objective);
      serial.set_thread_pool(nullptr);
      const size_t reference = NaiveLookaheadPick(engine, serial);
      EXPECT_EQ(serial.PickClass(engine), reference) << "seed=" << seed;

      for (size_t threads : {1u, 2u, 8u}) {
        exec::ThreadPool pool(threads);
        LookaheadStrategy parallel(objective);
        parallel.set_thread_pool(&pool);
        EXPECT_EQ(parallel.PickClass(engine), reference)
            << "seed=" << seed << " threads=" << threads;
      }
    }
  }
}

TEST(CutoffParityTest, TranscriptsMatchExhaustiveAcrossThreadCounts) {
  for (uint64_t seed : {11u, 97u}) {
    const auto workload = MakeWorkload(seed);

    // The reference session: every question is the naive argmax.
    Transcript reference;
    {
      const LookaheadStrategy objective(LookaheadStrategy::Objective::kEntropy);
      InferenceEngine engine(workload.instance);
      ExactOracle oracle(workload.goal);
      while (!engine.IsDone()) {
        const size_t pick = NaiveLookaheadPick(engine, objective);
        const size_t tuple = engine.tuple_class(pick).tuple_indices.front();
        const Label answer =
            oracle.LabelFor(engine.store().DecodeTuple(tuple));
        InferenceEngine::LabelImpact impact;
        ASSERT_TRUE(engine.SubmitClassLabel(pick, answer, &impact).ok());
        reference.emplace_back(pick, tuple, answer, impact.pruned_tuples);
      }
    }
    ASSERT_FALSE(reference.empty());

    for (size_t threads : {1u, 2u, 8u}) {
      exec::ThreadPool pool(threads);
      LookaheadStrategy lookahead(LookaheadStrategy::Objective::kEntropy);
      lookahead.set_thread_pool(&pool);
      const SessionResult result =
          RunSession(workload.instance, workload.goal, lookahead);
      EXPECT_TRUE(result.identified_goal);
      Transcript transcript;
      for (const SessionStep& step : result.steps) {
        transcript.emplace_back(step.class_id, step.tuple_index, step.label,
                                step.pruned_tuples);
      }
      EXPECT_EQ(transcript, reference)
          << "seed=" << seed << " threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace jim::core
