#include "core/strategies.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <unordered_map>

#include "core/speculation.h"
#include "util/logging.h"

namespace jim::core {

size_t Strategy::PickClass(const InferenceEngine& engine) {
  const std::vector<size_t>& candidates = engine.InformativeClasses();
  JIM_CHECK(!candidates.empty()) << "PickClass on a finished engine";
  const std::vector<double> scores = Score(engine);
  JIM_CHECK_EQ(scores.size(), candidates.size());
  size_t best = 0;
  for (size_t i = 1; i < candidates.size(); ++i) {
    if (scores[i] > scores[best]) best = i;
  }
  return candidates[best];
}

std::vector<size_t> Strategy::TopK(const InferenceEngine& engine, size_t k) {
  const std::vector<size_t>& candidates = engine.InformativeClasses();
  const std::vector<double> scores = Score(engine);
  JIM_CHECK_EQ(scores.size(), candidates.size());
  std::vector<size_t> order(candidates.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&scores](size_t a, size_t b) {
    return scores[a] > scores[b];
  });
  std::vector<size_t> top;
  top.reserve(std::min(k, order.size()));
  for (size_t i = 0; i < order.size() && i < k; ++i) {
    top.push_back(candidates[order[i]]);
  }
  return top;
}

// ---------------------------------------------------------------- Random --

RandomStrategy::RandomStrategy(uint64_t seed) : rng_(seed) {}

std::vector<double> RandomStrategy::Score(const InferenceEngine& engine) {
  const std::vector<size_t>& candidates = engine.InformativeClasses();
  // Random scores, weighted so that larger classes are proportionally more
  // likely to take the maximum — this approximates a uniform pick over
  // informative tuples when used through TopK.
  std::vector<double> scores(candidates.size());
  for (size_t i = 0; i < candidates.size(); ++i) {
    const double u = rng_.UniformDouble();
    const double weight =
        static_cast<double>(engine.tuple_class(candidates[i]).size());
    // max of `weight` i.i.d. uniforms has CDF u^weight; u^(1/weight) samples
    // it, making argmax distributed proportionally to class sizes.
    scores[i] = std::pow(u, 1.0 / weight);
  }
  return scores;
}

size_t RandomStrategy::PickClass(const InferenceEngine& engine) {
  // Exact tuple-uniform choice: pick a random informative tuple and return
  // its class.
  const std::vector<size_t>& candidates = engine.InformativeClasses();
  JIM_CHECK(!candidates.empty());
  size_t total = 0;
  for (size_t c : candidates) total += engine.tuple_class(c).size();
  int64_t pick = rng_.UniformInt(0, static_cast<int64_t>(total) - 1);
  for (size_t c : candidates) {
    pick -= static_cast<int64_t>(engine.tuple_class(c).size());
    if (pick < 0) return c;
  }
  return candidates.back();
}

// ----------------------------------------------------------------- Local --

LocalStrategy::LocalStrategy(Direction direction) : direction_(direction) {}

std::string_view LocalStrategy::name() const {
  return direction_ == Direction::kBottomUp ? "local-bottom-up"
                                            : "local-top-down";
}

std::vector<double> LocalStrategy::Score(const InferenceEngine& engine) {
  const std::vector<size_t>& candidates = engine.InformativeClasses();
  std::vector<double> scores(candidates.size());
  for (size_t i = 0; i < candidates.size(); ++i) {
    // Candidates are informative, so the engine's cached rank of
    // K = θ_P ∧ Part(t) is fresh — no meet needed.
    const double rank =
        static_cast<double>(engine.ClassKnowledgeRank(candidates[i]));
    scores[i] = direction_ == Direction::kBottomUp ? -rank : rank;
  }
  return scores;
}

// ------------------------------------------------------------- Lookahead --

LookaheadStrategy::LookaheadStrategy(Objective objective, double alpha,
                                     size_t max_candidates)
    : objective_(objective), alpha_(alpha), max_candidates_(max_candidates) {
  switch (objective_) {
    case Objective::kMinMax:
      name_ = "lookahead-minmax";
      break;
    case Objective::kExpected:
      name_ = "lookahead-expected";
      break;
    case Objective::kEntropy:
      name_ = "lookahead-entropy";
      break;
  }
}

std::string_view LookaheadStrategy::name() const { return name_; }

double LookaheadStrategy::Aggregate(size_t n_plus, size_t n_minus) const {
  const double a = static_cast<double>(n_plus);
  const double b = static_cast<double>(n_minus);
  switch (objective_) {
    case Objective::kMinMax:
      return std::min(a, b);
    case Objective::kExpected:
      return (a + b) / 2.0;
    case Objective::kEntropy: {
      const double total = a + b;
      const double p = a / total;
      double entropy;
      if (std::abs(alpha_ - 1.0) < 1e-9) {
        // Shannon (limit of the Tsallis family as α → 1), in nats.
        entropy = 0.0;
        if (p > 0) entropy -= p * std::log(p);
        if (p < 1) entropy -= (1 - p) * std::log(1 - p);
      } else {
        // Tsallis entropy H_α(p) = (1 - p^α - (1-p)^α) / (α - 1).
        entropy =
            (1.0 - std::pow(p, alpha_) - std::pow(1 - p, alpha_)) /
            (alpha_ - 1.0);
      }
      return total * entropy;
    }
  }
  return 0;
}

std::vector<double> LookaheadStrategy::Score(const InferenceEngine& engine) {
  // Deterministic candidate cap: score an evenly spaced subsample when the
  // pool is too large; unsampled candidates keep -inf and are never picked.
  InferenceEngine::LookaheadCache cache;
  engine.PrepareLookahead(cache);
  const size_t n = cache.worklist_size;
  const size_t cap = max_candidates_ == 0 ? n : std::min(n, max_candidates_);
  std::vector<double> scores(n, -std::numeric_limits<double>::infinity());
  // Sampled candidate j lands on worklist slot j*n/cap, which is also its
  // position in the cache.
  for (size_t j = 0; j < cap; ++j) {
    const size_t i = j * n / cap;
    const InferenceEngine::LabelImpactPair both =
        engine.SimulateLabelBoth(i, cache);
    scores[i] =
        Aggregate(both.positive.pruned_tuples, both.negative.pruned_tuples);
  }
  return scores;
}

// --------------------------------------------------------------- Optimal --

namespace {

/// Memoized minimax over inference states, explored on one
/// SpeculativeSession: labels are applied and undone on the trail, so a tree
/// node costs O(classes pruned by its label) bookkeeping instead of the old
/// full-engine rescan (classify *every* class) plus an InferenceState copy
/// per answer branch. A state is summarized by its compact StateKey
/// (sorted pair-set words + precomputed hash — no string rendering on the
/// memo path); the candidate iteration order is the session's ascending live
/// list, exactly the worklist order the rescan produced, so memoized values
/// and tie-breaks are unchanged.
class MinimaxSolver {
 public:
  MinimaxSolver(const InferenceEngine& engine, size_t node_budget)
      : session_(engine), node_budget_(node_budget) {}

  /// Worst-case questions needed from the session's current state.
  size_t Solve() {
    InferenceState::StateKey key = session_.state().MakeStateKey();
    auto it = memo_.find(key);
    if (it != memo_.end()) return it->second;
    JIM_CHECK_LT(nodes_++, node_budget_)
        << "optimal strategy exceeded its node budget";

    // Iterating the live list directly is safe across the recursive
    // Apply/Undo below: every Apply is undone before the next NextLive read,
    // and the dancing-links restore is exact.
    size_t best = session_.num_live() == 0 ? 0 : SIZE_MAX;
    for (size_t c = session_.FirstLive(); c != session_.LiveEnd();
         c = session_.NextLive(c)) {
      const size_t cost = 1 + WorstAnswer(c);
      best = std::min(best, cost);
      if (best == 1) break;  // cannot do better than one question
    }
    memo_.emplace(std::move(key), best);
    return best;
  }

  /// max over the two answers of Solve(current state + answer).
  size_t WorstAnswer(size_t class_id) {
    size_t worst = 0;
    for (Label label : {Label::kPositive, Label::kNegative}) {
      session_.Apply(class_id, label);
      worst = std::max(worst, Solve());
      session_.Undo();
    }
    return worst;
  }

 private:
  SpeculativeSession session_;
  size_t node_budget_;
  size_t nodes_ = 0;
  std::unordered_map<InferenceState::StateKey, size_t,
                     InferenceState::StateKeyHash>
      memo_;
};

}  // namespace

OptimalStrategy::OptimalStrategy(size_t node_budget)
    : node_budget_(node_budget) {}

std::vector<double> OptimalStrategy::Score(const InferenceEngine& engine) {
  const std::vector<size_t>& candidates = engine.InformativeClasses();
  MinimaxSolver solver(engine, node_budget_);
  std::vector<double> scores(candidates.size());
  for (size_t i = 0; i < candidates.size(); ++i) {
    scores[i] = -static_cast<double>(solver.WorstAnswer(candidates[i]));
  }
  return scores;
}

size_t OptimalWorstCaseQuestions(const InferenceEngine& engine,
                                 size_t node_budget) {
  MinimaxSolver solver(engine, node_budget);
  return solver.Solve();
}

// --------------------------------------------------------------- Factory --

util::StatusOr<std::unique_ptr<Strategy>> MakeStrategy(std::string_view name,
                                                       uint64_t seed,
                                                       double alpha) {
  std::unique_ptr<Strategy> strategy;
  if (name == "random") {
    strategy = std::make_unique<RandomStrategy>(seed);
  } else if (name == "local-bottom-up") {
    strategy = std::make_unique<LocalStrategy>(LocalStrategy::Direction::kBottomUp);
  } else if (name == "local-top-down") {
    strategy = std::make_unique<LocalStrategy>(LocalStrategy::Direction::kTopDown);
  } else if (name == "lookahead-minmax") {
    strategy = std::make_unique<LookaheadStrategy>(
        LookaheadStrategy::Objective::kMinMax);
  } else if (name == "lookahead-expected") {
    strategy = std::make_unique<LookaheadStrategy>(
        LookaheadStrategy::Objective::kExpected);
  } else if (name == "lookahead-entropy") {
    strategy = std::make_unique<LookaheadStrategy>(
        LookaheadStrategy::Objective::kEntropy, alpha);
  } else if (name == "optimal") {
    strategy = std::make_unique<OptimalStrategy>();
  } else {
    return util::InvalidArgumentError("unknown strategy '" +
                                      std::string(name) + "'");
  }
  return strategy;
}

std::vector<std::string> KnownStrategyNames() {
  return {"random",           "local-bottom-up",    "local-top-down",
          "lookahead-minmax", "lookahead-expected", "lookahead-entropy",
          "optimal"};
}

}  // namespace jim::core
