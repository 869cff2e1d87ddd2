#ifndef JIM_CORE_STRATEGIES_H_
#define JIM_CORE_STRATEGIES_H_

#include <cstddef>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/engine.h"
#include "util/rng.h"
#include "util/status.h"

namespace jim::core {

/// A strategy Υ: given the engine's current knowledge, decides which
/// informative tuple (class) the user is asked to label next. The paper
/// distinguishes *local* strategies (cheap, fixed lattice orders), *lookahead*
/// strategies (score candidates by the quantity of information their label
/// would bring, via a generalized entropy), the *random* baseline, and the
/// exponential-time *optimal* strategy.
class Strategy {
 public:
  virtual ~Strategy() = default;

  virtual std::string_view name() const = 0;

  /// Scores for each informative class, parallel to
  /// engine.InformativeClasses(); higher is better. Scores are comparable
  /// within one call only.
  virtual std::vector<double> Score(const InferenceEngine& engine) = 0;

  /// True iff PickClass reads nothing but the engine, so two strategies of
  /// the same name pick the same class from equal engine states. The
  /// serving daemon shares such picks across sessions.
  virtual bool stateless() const { return true; }

  /// The class to ask about next: by default the argmax of Score over all
  /// informative classes, ties broken toward the smallest class id (which
  /// makes local strategies fully deterministic). Requires !engine.IsDone().
  virtual size_t PickClass(const InferenceEngine& engine);

  /// The `k` best classes, best first (used by interaction mode 3,
  /// "proposing top-k informative tuples").
  std::vector<size_t> TopK(const InferenceEngine& engine, size_t k);
};

/// Uniform choice among informative *tuples* (so classes are weighted by
/// their member counts, matching a user clicking a random non-grayed row).
class RandomStrategy : public Strategy {
 public:
  explicit RandomStrategy(uint64_t seed);
  std::string_view name() const override { return "random"; }
  std::vector<double> Score(const InferenceEngine& engine) override;
  size_t PickClass(const InferenceEngine& engine) override;
  /// Every pick advances the RNG.
  bool stateless() const override { return false; }

 private:
  util::Rng rng_;
};

/// Local strategy: fixed order by the lattice rank of the knowledge
/// K = θ_P ∧ Part(t). Bottom-up asks about the *least* constrained candidate
/// first (rank ascending); top-down the most constrained (rank descending).
/// O(1) per candidate — the cheap end of the paper's spectrum.
class LocalStrategy : public Strategy {
 public:
  enum class Direction { kBottomUp, kTopDown };
  explicit LocalStrategy(Direction direction);
  std::string_view name() const override;
  std::vector<double> Score(const InferenceEngine& engine) override;

 private:
  Direction direction_;
};

/// Lookahead strategy: simulates both answers for each candidate and scores
/// by how much of the instance gets pruned. `Objective` selects the
/// aggregation of the two pruning counts (n⁺, n⁻):
///   kMinMax    — min(n⁺, n⁻): maximize guaranteed progress;
///   kExpected  — (n⁺ + n⁻) / 2: maximize average progress;
///   kEntropy   — (n⁺+n⁻) · H_α(n⁺/(n⁺+n⁻)): the generalized-entropy
///                objective the paper alludes to (Tsallis family; α = 1 is
///                Shannon entropy).
/// `max_candidates` bounds the number of candidates scored per step (a
/// deterministic sample keeps huge instances interactive), 0 = unlimited.
///
/// Each decision prepares the engine's LookaheadCache once — the per-pair
/// worklist bitsets — and scores every sampled candidate exactly, serially,
/// with InferenceEngine::SimulateLabelBoth over it: per worklist word, one
/// word-wide AND or OR per attribute pair, plus one OR per pair of the
/// candidate's knowledge that each forbidden zone splits. There is no
/// cutoff; the pick is Strategy::PickClass's argmax over Score (ties toward
/// the smallest index). A candidate costs well under a microsecond, so one
/// pick is not worth splitting across cores; the daemon gets its throughput
/// from serving many sessions at once.
class LookaheadStrategy : public Strategy {
 public:
  enum class Objective { kMinMax, kExpected, kEntropy };

  LookaheadStrategy(Objective objective, double alpha = 1.0,
                    size_t max_candidates = 256);
  std::string_view name() const override;
  std::vector<double> Score(const InferenceEngine& engine) override;

  /// Accepts only nullptr: scoring is always serial. Kept so the frozen
  /// benchmark's two `set_thread_pool(nullptr)` calls still compile; delete
  /// it together with those calls at the next benchmark change.
  void set_thread_pool(std::nullptr_t) {}

  /// The aggregate objective itself, exposed so tests can rebuild the
  /// argmax from naive rescan counts (tests/core/naive_lookahead.h).
  double ObjectiveValue(size_t n_plus, size_t n_minus) const {
    return Aggregate(n_plus, n_minus);
  }
  Objective objective() const { return objective_; }
  double alpha() const { return alpha_; }

 private:
  double Aggregate(size_t n_plus, size_t n_minus) const;

  Objective objective_;
  double alpha_;
  size_t max_candidates_;
  std::string name_;
};

/// Exact minimax strategy: explores the full game tree of (question, answer)
/// pairs and asks the question minimizing the worst-case number of remaining
/// interactions. Exponential time and memory (memoized on canonical states);
/// the paper: "it requires exponential time, which unfortunately renders it
/// unusable in practice". Guarded by a node budget: exceeding it aborts via
/// JIM_CHECK, so use only on tiny instances (bench S4).
class OptimalStrategy : public Strategy {
 public:
  /// The most informative classes the search is known to finish on: 16
  /// classes take 142 ms (bench_optimal_gap, 5 attributes × 25 tuples),
  /// while 152 classes ran past 120 s. A serving daemon refuses the
  /// strategy on larger instances rather than stall a handler on a search
  /// that may end only at the node budget's abort.
  static constexpr size_t kMaxInformativeClasses = 16;

  explicit OptimalStrategy(size_t node_budget = 2'000'000);
  std::string_view name() const override { return "optimal"; }
  std::vector<double> Score(const InferenceEngine& engine) override;

 private:
  size_t node_budget_;
};

/// Worst-case number of questions an optimal questioner needs from the
/// engine's current state (the minimax value of the inference game).
/// `node_budget` bounds the memoized search.
size_t OptimalWorstCaseQuestions(const InferenceEngine& engine,
                                 size_t node_budget = 2'000'000);

/// Factory. Known names: "random", "local-bottom-up", "local-top-down",
/// "lookahead-minmax", "lookahead-expected", "lookahead-entropy", "optimal".
/// `seed` feeds randomized strategies; `alpha` the entropy family.
util::StatusOr<std::unique_ptr<Strategy>> MakeStrategy(std::string_view name,
                                                       uint64_t seed = 1,
                                                       double alpha = 1.0);

/// All strategy names accepted by MakeStrategy, in presentation order.
std::vector<std::string> KnownStrategyNames();

}  // namespace jim::core

#endif  // JIM_CORE_STRATEGIES_H_
