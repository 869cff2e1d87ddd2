// The naive lookahead reference the parity suites pin LookaheadStrategy to:
// every sampled candidate scored from two full-rescan SimulateLabel calls,
// then the argmax with ties toward the smallest worklist index.

#ifndef JIM_TESTS_CORE_NAIVE_LOOKAHEAD_H_
#define JIM_TESTS_CORE_NAIVE_LOOKAHEAD_H_

#include <algorithm>
#include <cstddef>
#include <vector>

#include "core/engine.h"
#include "core/strategies.h"

namespace jim::core {

/// The class LookaheadStrategy(objective of `strategy`, max_candidates)
/// should pick on `engine`: the same evenly spaced sample (candidate j of
/// cap lands on worklist slot j·n/cap), scored by `strategy`'s objective
/// over naive SimulateLabel counts. Requires !engine.IsDone().
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
    const double score = strategy.ObjectiveValue(
        engine.SimulateLabel(c, Label::kPositive).pruned_tuples,
        engine.SimulateLabel(c, Label::kNegative).pruned_tuples);
    if (j == 0 || score > best_score) {
      best = c;
      best_score = score;
    }
  }
  return best;
}

}  // namespace jim::core

#endif  // JIM_TESTS_CORE_NAIVE_LOOKAHEAD_H_
