// The naive lookahead references the parity suites pin the engine to:
//   - NaiveSimulateLabel: one answer's impact from a naive partition-based
//     copy of the inference state (naive_inference_state.h) and a rescan of
//     every informative class;
//   - NaiveSimulateLabelBoth: both answers, from two such rescans;
//   - NaiveLookaheadPick: every sampled candidate scored from those counts,
//     then the argmax with ties toward the smallest worklist index.
// All three read only the engine's public API.

#ifndef JIM_TESTS_CORE_NAIVE_LOOKAHEAD_H_
#define JIM_TESTS_CORE_NAIVE_LOOKAHEAD_H_

#include <algorithm>
#include <cstddef>
#include <vector>

#include "core/engine.h"
#include "core/inference_state.h"
#include "core/strategies.h"
#include "naive_inference_state.h"
#include "util/check.h"

namespace jim::core {

/// What labeling informative class `class_id` with `label` would prune: the
/// labeled class plus every other informative class that a copy of the
/// state, with the label applied, no longer classifies as informative.
inline InferenceEngine::LabelImpact NaiveSimulateLabel(
    const InferenceEngine& engine, size_t class_id, Label label) {
  JIM_CHECK_LT(class_id, engine.num_classes());
  JIM_CHECK(engine.class_status(class_id) == ClassStatus::kInformative);
  NaiveInferenceState hypothetical(engine.state());
  // An informative class accepts either label by definition.
  JIM_CHECK_OK(
      hypothetical.ApplyLabel(engine.tuple_class(class_id).partition, label));
  InferenceEngine::LabelImpact impact;
  impact.pruned_classes = 1;
  impact.pruned_tuples = engine.tuple_class(class_id).size();
  for (size_t c = 0; c < engine.num_classes(); ++c) {
    if (c == class_id ||
        engine.class_status(c) != ClassStatus::kInformative) {
      continue;
    }
    if (hypothetical.Classify(engine.tuple_class(c).partition) !=
        TupleClassification::kInformative) {
      ++impact.pruned_classes;
      impact.pruned_tuples += engine.tuple_class(c).size();
    }
  }
  return impact;
}

/// Both answers' impacts of informative class `class_id`:
/// {NaiveSimulateLabel(+), NaiveSimulateLabel(−)}.
inline InferenceEngine::LabelImpactPair NaiveSimulateLabelBoth(
    const InferenceEngine& engine, size_t class_id) {
  return {NaiveSimulateLabel(engine, class_id, Label::kPositive),
          NaiveSimulateLabel(engine, class_id, Label::kNegative)};
}

/// The class LookaheadStrategy(objective of `strategy`, max_candidates)
/// should pick on `engine`: the same evenly spaced sample (candidate j of
/// cap lands on worklist slot j·n/cap), scored by `strategy`'s objective
/// over NaiveSimulateLabelBoth counts. Requires !engine.IsDone().
inline size_t NaiveLookaheadPick(const InferenceEngine& engine,
                                 const LookaheadStrategy& strategy,
                                 size_t max_candidates = 256) {
  const std::vector<size_t>& candidates = engine.InformativeClasses();
  const size_t n = candidates.size();
  const size_t cap = max_candidates == 0 ? n : std::min(n, max_candidates);
  size_t best = candidates[0];
  double best_score = 0;
  for (size_t j = 0; j < cap; ++j) {
    const size_t c = candidates[j * n / cap];
    const InferenceEngine::LabelImpactPair both =
        NaiveSimulateLabelBoth(engine, c);
    const double score = strategy.ObjectiveValue(
        both.positive.pruned_tuples, both.negative.pruned_tuples);
    if (j == 0 || score > best_score) {
      best = c;
      best_score = score;
    }
  }
  return best;
}

}  // namespace jim::core

#endif  // JIM_TESTS_CORE_NAIVE_LOOKAHEAD_H_
