// Lookahead picks pinned to the naive reference (tests/core/naive_lookahead.h:
// every sampled candidate scored from NaiveSimulateLabelBoth's full rescans):
//   - PickClass returns the reference argmax for every objective, again on
//     repeated calls and engine copies, and a strided candidate sample
//     scores exactly the reference's slots;
//   - full session transcripts — synthetic workloads and the paper's
//     Figure 1 — equal those of a session driven by the reference picks;
//   - a hot metrics registry and an attached tracer change none of them.
// The speculative trail and minimax checks live in speculation_test.cc;
// the kernel's own edge cases in lookahead_kernel_parity_test.cc.

#include <limits>
#include <memory>
#include <tuple>
#include <vector>

#include "core/jim.h"
#include "gtest/gtest.h"
#include "naive_lookahead.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/rng.h"
#include "workload/synthetic.h"
#include "workload/travel.h"

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

/// A mode-4 session, step by step: asked class, shown tuple, answer, and
/// pruning count.
using Transcript = std::vector<std::tuple<size_t, size_t, Label, size_t>>;

Transcript TranscriptOf(const SessionResult& result) {
  Transcript transcript;
  for (const SessionStep& step : result.steps) {
    transcript.emplace_back(step.class_id, step.tuple_index, step.label,
                            step.pruned_tuples);
  }
  return transcript;
}

/// The reference session: every question is the naive argmax for
/// `objective`, shown as the class's first member, answered by `goal`.
Transcript NaiveTranscript(const InferenceEngine& fresh,
                           const JoinPredicate& goal,
                           LookaheadStrategy::Objective objective) {
  const LookaheadStrategy reference(objective);
  InferenceEngine engine = fresh;
  ExactOracle oracle(goal);
  Transcript transcript;
  while (!engine.IsDone()) {
    const size_t pick = NaiveLookaheadPick(engine, reference);
    const size_t tuple = engine.tuple_class(pick).tuple_indices.front();
    const Label answer = oracle.LabelFor(engine.store().DecodeTuple(tuple));
    InferenceEngine::LabelImpact impact;
    EXPECT_TRUE(engine.SubmitClassLabel(pick, answer, &impact).ok());
    transcript.emplace_back(pick, tuple, answer, impact.pruned_tuples);
  }
  return transcript;
}

TEST(LookaheadParityTest, PickMatchesNaiveArgmaxForEveryObjective) {
  for (uint64_t seed : {3u, 14u, 159u}) {
    const auto workload = MakeWorkload(seed);
    const InferenceEngine engine(workload.instance);
    ASSERT_FALSE(engine.InformativeClasses().empty());

    for (auto objective : AllObjectives()) {
      LookaheadStrategy lookahead(objective);
      EXPECT_EQ(lookahead.PickClass(engine),
                NaiveLookaheadPick(engine, lookahead))
          << "seed=" << seed;
    }
  }
}

TEST(LookaheadParityTest, PickMatchesNaiveArgmax) {
  // The pick is the argmax of the naive rescan scores, ties toward
  // the smallest index.
  for (uint64_t seed : {7u, 21u, 77u}) {
    const auto workload = MakeWorkload(seed);
    const InferenceEngine engine(workload.instance);

    LookaheadStrategy lookahead(LookaheadStrategy::Objective::kEntropy);
    EXPECT_EQ(lookahead.PickClass(engine),
              NaiveLookaheadPick(engine, lookahead))
        << "seed=" << seed;
  }
}

TEST(LookaheadParityTest, PickClassIsIdenticalAcrossCallsAndEngineCopies) {
  // Each pick prepares its own lookahead cache, so asking again — with the
  // same strategy object, a fresh one, or on a copy of the engine — returns
  // the same class, and that class is the naive argmax.
  for (uint64_t seed : {7u, 21u, 77u}) {
    const auto workload = MakeWorkload(seed);
    const InferenceEngine engine(workload.instance);
    const InferenceEngine copy = engine;

    LookaheadStrategy lookahead(LookaheadStrategy::Objective::kEntropy);
    const size_t reference = NaiveLookaheadPick(engine, lookahead);
    EXPECT_EQ(lookahead.PickClass(engine), reference) << "seed=" << seed;
    EXPECT_EQ(lookahead.PickClass(copy), reference) << "seed=" << seed;
    EXPECT_EQ(lookahead.PickClass(engine), reference) << "seed=" << seed;
    LookaheadStrategy fresh(LookaheadStrategy::Objective::kEntropy);
    EXPECT_EQ(fresh.PickClass(copy), reference) << "seed=" << seed;
  }
}

TEST(LookaheadParityTest, SampledCandidateCapMatchesNaive) {
  // max_candidates smaller than the worklist scores an evenly spaced
  // subsample: the sampled slots carry the naive scores exactly, the rest
  // stay -inf, and the pick is the naive argmax over the same sample.
  const auto workload = MakeWorkload(42, /*tuples=*/500);
  const InferenceEngine engine(workload.instance);
  const std::vector<size_t>& candidates = engine.InformativeClasses();
  const size_t n = candidates.size();
  constexpr size_t kCap = 7;
  ASSERT_GT(n, kCap + 1);

  LookaheadStrategy lookahead(LookaheadStrategy::Objective::kEntropy,
                              /*alpha=*/1.0, /*max_candidates=*/kCap);
  std::vector<double> expected(n, -std::numeric_limits<double>::infinity());
  for (size_t j = 0; j < kCap; ++j) {
    const size_t c = candidates[j * n / kCap];
    const auto both = NaiveSimulateLabelBoth(engine, c);
    expected[j * n / kCap] = lookahead.ObjectiveValue(
        both.positive.pruned_tuples, both.negative.pruned_tuples);
  }
  EXPECT_EQ(lookahead.Score(engine), expected);
  EXPECT_EQ(lookahead.PickClass(engine),
            NaiveLookaheadPick(engine, lookahead, kCap));
}

TEST(LookaheadParityTest, TranscriptsMatchNaive) {
  for (uint64_t seed : {11u, 97u}) {
    const auto workload = MakeWorkload(seed);
    const Transcript reference =
        NaiveTranscript(InferenceEngine(workload.instance), workload.goal,
                        LookaheadStrategy::Objective::kEntropy);
    ASSERT_FALSE(reference.empty());

    LookaheadStrategy lookahead(LookaheadStrategy::Objective::kEntropy);
    const SessionResult result =
        RunSession(workload.instance, workload.goal, lookahead);
    EXPECT_TRUE(result.identified_goal);
    EXPECT_EQ(result.interactions, reference.size());
    EXPECT_EQ(TranscriptOf(result), reference) << "seed=" << seed;
  }
}

TEST(LookaheadParityTest, FullSessionTranscriptsMatchNaiveForEveryObjective) {
  // One strategy object drives two sessions per workload; both transcripts
  // are the naive reference's, for every objective.
  for (uint64_t seed : {11u, 97u}) {
    const auto workload = MakeWorkload(seed);
    for (auto objective : AllObjectives()) {
      const Transcript reference = NaiveTranscript(
          InferenceEngine(workload.instance), workload.goal, objective);
      ASSERT_FALSE(reference.empty());

      LookaheadStrategy lookahead(objective);
      for (int run = 0; run < 2; ++run) {
        const SessionResult result =
            RunSession(workload.instance, workload.goal, lookahead);
        EXPECT_TRUE(result.identified_goal);
        EXPECT_EQ(result.interactions, reference.size());
        EXPECT_EQ(TranscriptOf(result), reference)
            << "seed=" << seed << " run=" << run;
      }
    }
  }
}

/// Runs one lookahead session on `instance` with the metrics registry set
/// to `metrics_on` (and, when on, a tracer attached), restoring the
/// registry's previous state afterwards.
SessionResult RunObserved(std::shared_ptr<const rel::Relation> instance,
                          const JoinPredicate& goal,
                          LookaheadStrategy::Objective objective,
                          bool metrics_on) {
  const bool metrics_were_enabled = obs::MetricsEnabled();
  obs::SetMetricsEnabled(metrics_on);
  LookaheadStrategy lookahead(objective);
  obs::SessionTracer tracer;
  ExactOracle oracle(goal);
  SessionOptions options;
  if (metrics_on) options.tracer = &tracer;
  InferenceEngine engine(std::move(instance));
  SessionResult result =
      RunSessionOnEngine(engine, goal, lookahead, oracle, options);
  if (metrics_on) {
    EXPECT_EQ(tracer.steps().size(), result.steps.size());
  }
  obs::SetMetricsEnabled(metrics_were_enabled);
  return result;
}

TEST(LookaheadParityTest, MetricsAndTracingNeverPerturbTranscripts) {
  // The observability determinism contract: with the metrics registry hot
  // and a tracer attached, the transcript is the naive reference's, exactly
  // as with metrics off. Metrics observe the session; they must never
  // steer it.
  const auto workload = MakeWorkload(11);
  const auto objective = LookaheadStrategy::Objective::kEntropy;
  const Transcript reference = NaiveTranscript(
      InferenceEngine(workload.instance), workload.goal, objective);
  for (const bool metrics_on : {false, true}) {
    const SessionResult result =
        RunObserved(workload.instance, workload.goal, objective, metrics_on);
    EXPECT_TRUE(result.identified_goal);
    EXPECT_EQ(TranscriptOf(result), reference) << "metrics=" << metrics_on;
  }
}

TEST(LookaheadParityTest, Figure1SessionTranscriptParity) {
  // The paper's own instance, end to end.
  const auto instance = workload::Figure1InstancePtr();
  const auto goal =
      JoinPredicate::Parse(instance->schema(), workload::kQ2).value();
  const auto objective = LookaheadStrategy::Objective::kMinMax;
  const Transcript reference =
      NaiveTranscript(InferenceEngine(instance), goal, objective);
  ASSERT_FALSE(reference.empty());
  for (const bool metrics_on : {false, true}) {
    const SessionResult result =
        RunObserved(instance, goal, objective, metrics_on);
    EXPECT_TRUE(result.identified_goal);
    EXPECT_EQ(TranscriptOf(result), reference) << "metrics=" << metrics_on;
  }
}

}  // namespace
}  // namespace jim::core
