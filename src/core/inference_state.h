#ifndef JIM_CORE_INFERENCE_STATE_H_
#define JIM_CORE_INFERENCE_STATE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/example.h"
#include "lattice/antichain.h"
#include "lattice/pair_set.h"
#include "lattice/partition.h"
#include "util/status.h"

namespace jim::core {

/// How the current knowledge classifies a tuple (via its value partition).
enum class TupleClassification {
  /// Every consistent predicate selects the tuple — its label is determined;
  /// asking the user would be wasted effort ("uninformative", grayed out).
  kForcedPositive,
  /// No consistent predicate selects the tuple — also uninformative.
  kForcedNegative,
  /// Consistent predicates disagree on the tuple: labeling it narrows the
  /// hypothesis space. These are the only tuples worth asking about.
  kInformative,
};

/// The complete knowledge accumulated from the user's labels, in canonical
/// form (see DESIGN.md §1):
///
///   θ_P  — the meet of Part(t) over all positive examples: the most
///          constrained predicate consistent with the positives. Every
///          consistent predicate refines θ_P; with an honest user θ_P itself
///          is always consistent and is what JIM returns on termination.
///   𝒩   — an antichain of maximal *forbidden* partitions: one M = θ_P ∧
///          Part(s) per (non-redundant) negative example s. A predicate θ is
///          inconsistent iff θ ≤ M for some member.
///
/// Both are stored as attribute-pair sets (lattice/pair_set.h): θ_P is
/// PairWords(n) words and the antichain a flat list of member pair sets, in
/// no particular order. The representation is exact — a partition is
/// determined by its pair set, meet is AND, θ ≤ M is a subset test and
/// K = θ_P is word equality — so classifying a tuple or applying a label is
/// a loop over ⌈P ÷ 64⌉ words per member, with no partition algebra and no
/// allocation past the antichain's own growth. Partition values are built
/// on demand for the callers that want them (theta_p(), negatives(),
/// CountConsistent, CanonicalKey).
///
/// The state is deliberately independent of the instance: it summarizes
/// labels in O(poly(#attributes)) space regardless of how many tuples were
/// labeled. The engine layers tuple bookkeeping on top.
class InferenceState {
 public:
  /// Initial state over `num_attributes` attributes: θ_P = ⊤ (no positives
  /// yet), no negatives. Every partition is consistent.
  explicit InferenceState(size_t num_attributes);

  size_t num_attributes() const { return num_attributes_; }
  /// Words per pair set: lat::PairWords(num_attributes()), 0 for n ≤ 1.
  size_t pair_words() const { return words_; }
  /// pairs(θ_P), pair_words() words.
  const uint64_t* theta_p_bits() const { return theta_p_.data(); }
  /// The antichain's member pair sets, back to back, pair_words() words
  /// each (see num_negatives()).
  const std::vector<uint64_t>& negative_bits() const { return negatives_; }
  size_t num_negatives() const { return num_negatives_; }

  /// θ_P and the antichain as partition values, built on each call.
  lat::Partition theta_p() const;
  lat::Antichain negatives() const;
  bool has_positive_example() const { return has_positive_example_; }

  /// True iff `candidate` is consistent with every label so far.
  bool IsConsistent(const lat::Partition& candidate) const;

  /// Classifies a tuple by its value partition Part(t).
  TupleClassification Classify(const lat::Partition& tuple_partition) const;

  /// Classify on pair sets: `pairs` is pairs(Part(t)), or any pair set whose
  /// meet with θ_P is K = θ_P ∧ Part(t) (the engine passes its cached K_c).
  /// Forced positive iff θ_P ⊆ pairs; forced negative iff θ_P ∩ pairs lies
  /// in some member. Allocation-free.
  TupleClassification ClassifyPairs(const uint64_t* pairs) const;

  /// The verdict on labeling a tuple of this classification: kOk, or
  /// kFailedPrecondition when the label contradicts it (a forced-positive
  /// tuple labeled negative or vice versa). Pure; the one place the
  /// contradiction rule lives (ApplyLabel and InferenceEngine::CheckLabel
  /// both defer to it).
  static util::Status CheckLabel(TupleClassification classification,
                                 Label label);

  /// Incorporates a label. Errors (kFailedPrecondition, see CheckLabel) if
  /// the label contradicts the current knowledge; the state is unchanged in
  /// that case. Labeling consistently with a forced classification is
  /// accepted as a no-op (interaction mode 1 lets users waste effort that
  /// way).
  util::Status ApplyLabel(const lat::Partition& tuple_partition, Label label);

  /// ApplyLabel for a tuple already classified, with the label already
  /// accepted by CheckLabel: the engine knows both from its incremental
  /// status, so a class is never re-classified. `knowledge` is
  /// K = θ_P ∧ Part(t) (read only when the tuple is informative).
  ///   negative: drop the members ⊆ K, then add K;
  ///   positive: θ_P ← K, clip every member to it, keep the maximal ones.
  void ApplyClassified(const uint64_t* knowledge,
                       TupleClassification classification, Label label);

  /// Exact number of consistent predicates, by enumerating refinements of
  /// θ_P. Exponential; JIM_CHECK-fails if the refinement count exceeds
  /// `limit`. Only tests call it: the hypothesis-count checks of the
  /// inference-state suites and the Figure 1 scenario.
  uint64_t CountConsistent(uint64_t limit = 1 << 22) const;

  /// Canonical memoization key: θ_P plus the sorted antichain.
  std::string CanonicalKey() const;

  /// Compact memoization key: pairs(θ_P), then the member pair sets in
  /// ascending word order, with a precomputed 64-bit hash. Pair sets are
  /// exact and fixed-width and the members are sorted, so two states share
  /// a StateKey iff they share a CanonicalKey — without building a single
  /// string. This is what MinimaxSolver memoizes on.
  struct StateKey {
    std::vector<uint64_t> encoded;
    uint64_t hash = 0;

    friend bool operator==(const StateKey& a, const StateKey& b) {
      return a.hash == b.hash && a.encoded == b.encoded;
    }
  };
  struct StateKeyHash {
    size_t operator()(const StateKey& key) const {
      return static_cast<size_t>(key.hash);
    }
  };
  StateKey MakeStateKey() const;

  /// O(1) state exchange (vector-swap of θ_P and the antichain): what the
  /// speculative-search trail (core/speculation.h) uses to undo a label —
  /// the pre-label state parks in a pooled frame and swaps back on Undo, so
  /// an apply/undo pair never reallocates in steady state.
  void Swap(InferenceState& other) noexcept;

  /// Invariant audit (see util/check.h): θ_P and every member are pair sets
  /// of partitions of the right arity (transitively closed, no bit past P),
  /// the members are pairwise incomparable, every member lies strictly
  /// below θ_P (ApplyClassified inserts θ_P ∧ Part(s) and re-clips on every
  /// θ_P shrink), θ_P itself stays consistent, and with no positive example
  /// yet θ_P is still ⊤. JIM_CHECK-fails on any violation.
  void CheckInvariants() const;

 private:
  /// True iff `pairs` lies in some member (θ ≤ M).
  bool Dominated(const uint64_t* pairs) const;

  size_t num_attributes_;
  size_t words_;
  std::vector<uint64_t> theta_p_;
  std::vector<uint64_t> negatives_;
  size_t num_negatives_ = 0;
  bool has_positive_example_ = false;
};

}  // namespace jim::core

#endif  // JIM_CORE_INFERENCE_STATE_H_
