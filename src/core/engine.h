#ifndef JIM_CORE_ENGINE_H_
#define JIM_CORE_ENGINE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/example.h"
#include "core/inference_state.h"
#include "core/join_predicate.h"
#include "core/tuple_store.h"
#include "lattice/pair_set.h"
#include "lattice/partition.h"
#include "relational/relation.h"
#include "util/bitset.h"
#include "util/status.h"

namespace jim::core {

/// An equivalence class of tuples: all tuples of the instance sharing the
/// same value partition Part(t). Tuples in one class are interchangeable for
/// inference — labeling any member forces the labels of all the others — so
/// the engine reasons over classes and the paper's "label propagation"
/// (graying out uninformative tuples) falls out for free.
struct TupleClass {
  lat::Partition partition;
  std::vector<size_t> tuple_indices;

  size_t size() const { return tuple_indices.size(); }
};

/// Lifecycle of a class during a session.
enum class ClassStatus {
  /// Labeling a member tuple would narrow the hypothesis space.
  kInformative,
  /// All consistent predicates select these tuples (uninformative, grayed).
  kForcedPositive,
  /// No consistent predicate selects these tuples (uninformative, grayed).
  kForcedNegative,
  /// The user explicitly labeled a member positive / negative.
  kLabeledPositive,
  kLabeledNegative,
};

std::string_view ClassStatusToString(ClassStatus status);

/// Per-tuple view of the class lifecycle. A tuple shows as *labeled* only if
/// the user labeled that very tuple; class-mates of a labeled tuple show as
/// *forced* (they are exactly the tuples the demo grays out).
enum class TupleStatus {
  kInformative,
  kForcedPositive,
  kForcedNegative,
  kLabeledPositive,
  kLabeledNegative,
};

/// True for statuses whose tuples belong to the final join result.
inline bool IsPositive(ClassStatus status) {
  return status == ClassStatus::kForcedPositive ||
         status == ClassStatus::kLabeledPositive;
}

/// The Join Inference Machine: drives the interactive scenario of the paper
/// (Figure 2). Holds the instance, the inference state, and per-class
/// bookkeeping; each accepted label triggers propagation that reclassifies
/// (and effectively grays out) tuples that became uninformative. That
/// propagation is one scan over the informative classes: an instance over n
/// attributes has at most Bell(n) classes (203 at n = 6), so retesting each
/// against what the label changed is cheaper than maintaining an index of
/// which classes a label can affect.
///
/// Everything a label touches is an attribute-pair set (lattice/pair_set.h):
/// θ_P and the forbidden zones inside InferenceState, and the per-class
/// knowledge K_c here. A pair set determines its partition, meet is AND,
/// K ≤ K′ is a subset test and K = θ_P is word equality, so propagation is
/// exact and costs ⌈P ÷ 64⌉ words per test (P = n(n−1)/2; one word up to 11
/// attributes). Partition values are built only for callers that want one.
///
/// The engine consumes the instance through the TupleStore seam: class
/// construction (Part(t) for every tuple) runs on integer codes — one serial
/// pass that turns each tuple's codes into its pair set and groups equal
/// pair sets in a flat hash table, with first-occurrence class ids — and
/// never touches a Value.
///
/// The engine is strategy-agnostic: strategies (src/core/strategies.h) pick
/// which informative class to ask about next; interaction modes 1-4 of the
/// demonstration are built on top in src/core/session.h.
class InferenceEngine {
 public:
  /// Builds the engine over `store`: class ids in first-occurrence tuple
  /// order, each class's members ascending.
  explicit InferenceEngine(std::shared_ptr<const TupleStore> store);

  /// Convenience: wraps `relation` into a RelationTupleStore (encoding every
  /// cell through one shared dictionary) and builds over that.
  explicit InferenceEngine(std::shared_ptr<const rel::Relation> relation);

  /// Copies are cheap clones: the class table, its pair sets and the tuple →
  /// class map are shared outright (immutable), and both the per-class
  /// knowledge cache and
  /// the session arrays (statuses, worklist) are copy-on-write
  /// — a clone defers those costs until its first label, and then pays
  /// O(classes), never O(tuples): the only per-tuple session state, the
  /// explicitly labeled tuples, is a sorted list of O(labels) entries. This
  /// is what lets BatchSessionRunner fan independent sessions out over
  /// clones of one built engine. Clones may be labeled from different
  /// threads concurrently (a mutating clone detaches before it writes); only
  /// cloning an engine *while another thread mutates that same engine* is a
  /// race, so clone before fanning out.
  InferenceEngine(const InferenceEngine&) = default;
  InferenceEngine& operator=(const InferenceEngine&) = default;

  /// The instance, through the storage seam.
  const TupleStore& store() const { return *store_; }
  const std::shared_ptr<const TupleStore>& store_ptr() const {
    return store_;
  }
  const InferenceState& state() const { return state_; }

  size_t num_tuples() const { return store_->num_tuples(); }
  size_t num_classes() const { return classes_->size(); }
  const TupleClass& tuple_class(size_t class_id) const {
    return (*classes_)[class_id];
  }
  ClassStatus class_status(size_t class_id) const {
    return session_->class_status[class_id];
  }
  size_t class_of_tuple(size_t tuple_index) const {
    return (*class_of_tuple_)[tuple_index];
  }
  /// pairs(Part(c)) (lattice/pair_set.h): lat::PairWords(n) words inside the
  /// immutable class pair-set table, which clones share like the class
  /// table.
  const uint64_t* ClassPairBits(size_t class_id) const {
    return class_pairs_->data() + class_id * pair_words_;
  }

  /// Status of an individual tuple (see TupleStatus). This is what the demo
  /// UI renders: explicit labels as +/−, forced tuples grayed out. O(1), plus
  /// an O(log labels) lookup for members of labeled classes.
  TupleStatus tuple_status(size_t tuple_index) const;

  /// Ids of classes that are still worth asking about, ascending. Returns a
  /// reference to the engine's live worklist: any Submit*Label call compacts
  /// it (and, on a clone, detaches the copy-on-write session arrays),
  /// invalidating the reference — copy first if you need the list across a
  /// labeling.
  const std::vector<size_t>& InformativeClasses() const {
    return session_->informative;
  }

  /// Cached knowledge K_c = θ_P ∧ Part(c) of an *informative* class (the
  /// cache goes stale — harmlessly — once a class leaves the pool), built
  /// as a partition value from its pair set on each call. The cache is
  /// maintained incrementally on pair sets: a positive label shrinks θ_P,
  /// and since the new θ_P refines the old one, pairs(K_c') = pairs(K_c) ∩
  /// pairs(θ_P') over the already-shrunk cache; negative labels leave θ_P
  /// (and the cache) alone.
  lat::Partition ClassKnowledge(size_t class_id) const {
    return lat::PartitionFromPairBits(store_->num_attributes(),
                                      ClassKnowledgeBits(class_id));
  }
  /// pairs(K_c): lat::PairWords(n) words inside the copy-on-write knowledge
  /// table, so clones sharing that table return the same address.
  const uint64_t* ClassKnowledgeBits(size_t class_id) const {
    return knowledge_->pairs.data() + class_id * pair_words_;
  }
  /// Rank of K_c in O(1), for an informative class: Propagate refreshes it
  /// whenever K_c shrinks (what the local strategies score).
  size_t ClassKnowledgeRank(size_t class_id) const {
    return knowledge_->rank[class_id];
  }

  /// Total member count over informative classes.
  size_t NumInformativeTuples() const;

  /// True when every class is labeled or forced: all consistent predicates
  /// are instance-equivalent and Result() is the canonical answer.
  bool IsDone() const;

  /// Tuples already *certain* to belong to the final join result (labeled
  /// positive or forced positive), regardless of how inference ends — the
  /// "certain answers" the demo can show at any point. Monotone: the set
  /// only grows as labels arrive.
  util::DynamicBitset CertainResultTuples() const;

  /// Tuples certain to be excluded from the final join result.
  util::DynamicBitset CertainNonResultTuples() const;

  /// The inferred predicate so far: θ_P, the maximal consistent predicate.
  /// After IsDone() this identifies the goal up to instance-equivalence.
  JoinPredicate Result() const;

  /// Number of classes/tuples a label moves out of the informative pool,
  /// the labeled class included: zero exactly for a wasted label.
  struct LabelImpact {
    size_t pruned_classes = 0;
    size_t pruned_tuples = 0;
  };

  /// The verdict Submit*Label would give `label` on `class_id`, without
  /// applying it: kOutOfRange for a bad id, kFailedPrecondition for a
  /// relabel with the opposite answer or a contradiction with θ_P / the
  /// antichain, else OK. O(1) and side-effect free — it reads the class's
  /// incremental status, which the audit pins to a fresh classification.
  /// Labeling paths call it first, so an accepted verdict means the label
  /// cannot fail.
  util::Status CheckLabel(size_t class_id, Label label) const;

  /// Labels the tuple (mode-1 entry point: any tuple, informative or not).
  /// Returns kFailedPrecondition and leaves the engine unchanged when the
  /// label contradicts earlier labels (see CheckLabel). A consistent label on
  /// an uninformative tuple is accepted, counted as a wasted interaction, and
  /// does not change the state.
  util::Status SubmitTupleLabel(size_t tuple_index, Label label);

  /// Labels (the representative tuple of) a class. When accepted and
  /// `impact` is non-null, stores what the label pruned: for an informative
  /// class, exactly the matching answer of SimulateLabelBoth at its worklist
  /// position, which the parity suites pin to a full state-copy rescan.
  util::Status SubmitClassLabel(size_t class_id, Label label,
                                LabelImpact* impact = nullptr);

  /// Both answers' impacts of one candidate.
  struct LabelImpactPair {
    LabelImpact positive;
    LabelImpact negative;
  };

  /// Per-decision lookahead state, built once by PrepareLookahead and read,
  /// never written, by every candidate of that decision. Partitions are pair
  /// sets (lattice/pair_set.h): bit k of a pair bitset is the k-th attribute
  /// pair i < j (row-major over the upper triangle), set iff i and j share
  /// a block, so K ≤ K′ iff pairs(K) ⊆ pairs(K′) and pairs(K ∧ K′) =
  /// pairs(K) ∩ pairs(K′). pair_bits and antichain_bits are copies of the
  /// engine's K_c words and the state's zone words, never re-derived from
  /// partitions. The cache also holds that relation transposed: per pair p,
  /// the worklist bitset S_p = {d : p ∈ pairs(K_d)}, which every candidate
  /// reads instead of re-deriving it class by class. A candidate reads only
  /// the slices of the pairs its answers depend on (see SimulateLabelBoth),
  /// O(W/64 · (P + Σ_m |L∖m|)) words for W classes and P pairs.
  struct LookaheadCache {
    static constexpr unsigned kCountShift = 40;  ///< see nibble_sums
    size_t worklist_size = 0;   ///< W, the worklist it was prepared for
    size_t num_pairs = 0;       ///< P = n(n−1)/2
    size_t pair_words = 0;      ///< words per pair bitset: ⌈P ÷ 64⌉
    size_t worklist_words = 0;  ///< words per worklist bitset: ⌈W ÷ 64⌉
    std::vector<uint64_t> pair_bits;       ///< pairs(K_d), by worklist position
    std::vector<uint64_t> antichain_bits;  ///< pairs(m), per antichain member
    /// Word w of S_p at [w · P + p]: a candidate's pass over one worklist
    /// word reads within P consecutive words.
    std::vector<uint64_t> pair_slices;
    /// Class count and tuple sum of every subset of each worklist nibble,
    /// packed as count · 2^kCountShift + tuples: entry [(16w + k) · 16 + v]
    /// covers the positions 64w + 4k + i for the set bits i of v. A worklist
    /// bitset then sums in 16 table reads per word.
    std::vector<uint64_t> nibble_sums;
  };
  /// Fills `cache` for the current worklist. O(worklist · n²). Invalidated
  /// by any accepted label (like InformativeClasses()). Under JIM_AUDIT the
  /// pair bitsets are re-derived from from-scratch partition meets through
  /// Partition::Pairs() and compared.
  void PrepareLookahead(LookaheadCache& cache) const;

  /// The lookahead kernel: both answers' impacts of labeling the informative
  /// class c at worklist position `position` (c = InformativeClasses()
  /// [position]; candidates are addressed by position because the cache is
  /// indexed that way) — what a copy of the state with that label applied
  /// would move out of the pool, which the parity suites pin to exactly that
  /// naive rescan (tests/core/naive_lookahead.h). With L = pairs(K_c), every
  /// still-informative class d (c included) is counted from the cache's
  /// slices, one worklist word at a time:
  ///   negative answer: the new forbidden zone is K_c, so d is pruned iff
  ///     K_d ≤ K_c, i.e. d lies in no S_p with p ∉ L: N = ¬⋃_{p∉L} S_p;
  ///   positive answer: the new θ_P is K_c, so d is forced positive iff
  ///     K_c ≤ K_d (d ∈ ⋂_{p∈L} S_p), and forced negative iff K_c ∧ K_d lies
  ///     under an antichain member m (d ∈ ¬⋃_{p∈L∖m} S_p; restricting the
  ///     antichain to the new θ_P cannot change that test for partitions
  ///     below it): U = ⋂_{p∈L} S_p ∪ ⋃_m ¬⋃_{p∈L∖m} S_p.
  /// n⁻ and n⁺ are the class counts and size sums over N and U. Each term
  /// reads only the slices it depends on, walking set bits: the ⋂ over L,
  /// the ⋃ over the P − |L| valid pairs outside L, and per antichain member
  /// m the ⋃ over L∖m — O(W/64 · (P + Σ_m |L∖m|)) word operations, against
  /// O(W/64 · P · (1 + |A|)) for masking every pair per term. Every
  /// candidate is scored in full — there is no bound or early exit — and
  /// each call adds one to engine.simulate_label_both. One code path serves
  /// every pair and worklist width. Reads only the engine and `cache`, so
  /// any number of threads may score candidates of one engine concurrently.
  LabelImpactPair SimulateLabelBoth(size_t position,
                                    const LookaheadCache& cache) const;

  /// True iff the predicates with partitions p1 and p2 select exactly the
  /// same tuples of the instance — InstanceEquivalent(store(), P1, P2)
  /// decided over the class table instead of the tuples: P selects class c
  /// iff P ≤ Part(c), i.e. pairs(P) ⊆ pairs(Part(c)) (NULLs are singletons
  /// in Part(c), matching JoinPredicate::SelectsCodes). ⌈P ÷ 64⌉ words per
  /// class. Takes partitions, so a goal kept without its schema (a serving
  /// session's) needs no JoinPredicate around it.
  bool InstanceEquivalent(const lat::Partition& p1,
                          const lat::Partition& p2) const;

  /// Progress counters for the demo UI and session traces.
  struct Stats {
    size_t num_tuples = 0;
    size_t num_classes = 0;
    size_t interactions = 0;       ///< accepted labels (user effort)
    size_t wasted_interactions = 0;///< accepted labels that taught nothing
    size_t informative_tuples = 0;
    size_t informative_classes = 0;
    size_t forced_positive_tuples = 0;
    size_t forced_negative_tuples = 0;
    size_t explicitly_labeled_tuples = 0;
  };
  Stats GetStats() const;

  /// Explicit labels in submission order.
  const LabeledExamples& history() const { return history_; }

  /// Invariant audit (see util/check.h), re-deriving the engine's contracts
  /// from scratch and JIM_CHECK-failing on any disagreement:
  ///   - the inference state is internally consistent (θ_P / antichain),
  ///     and θ_P and the antichain equal the partition meets re-derived
  ///     from history(): θ_P = ⋀ Part over positive labels, the zones the
  ///     maximal θ_P ∧ Part(s) over negative labels s;
  ///   - classes partition the tuple set and agree with class_of_tuple;
  ///   - the worklist is exactly the ascending list of kInformative classes;
  ///   - for every informative class, the cached K_c words and rank equal a
  ///     from-scratch θ_P ∧ Part(c) partition meet, and the incremental
  ///     status of every class matches a fresh InferenceState::Classify;
  ///   - the labeled-tuple list is exactly the tuples of history(), and every
  ///     history label agrees with its class's kLabeled* status;
  ///   - the copy-on-write holders are attached and correctly sized.
  /// O(classes · (n² + antichain)); tests call it directly, and every
  /// construction/labeling runs it under JIM_AUDIT (the parity suites and
  /// the ci.sh audit stage enable that mode).
  void CheckInvariants() const;

 private:
  /// The flat per-class session arrays, grouped under one copy-on-write
  /// holder so a clone shares them until its first accepted label (an engine
  /// copy is then shared_ptr bumps, not vector copies).
  struct SessionArrays {
    std::vector<ClassStatus> class_status;
    /// Ids of informative classes, ascending — the dense worklist that
    /// Propagate scans and compacts.
    std::vector<size_t> informative;
  };

  void BuildClasses();
  /// Shared implementation of the two Submit entry points: CheckLabel, then
  /// apply. `tuple_index` is the tuple recorded in the history (the one
  /// actually shown to the user).
  util::Status LabelImpl(size_t class_id, size_t tuple_index, Label label,
                         LabelImpact* impact);

  /// Reclassification after a state change: one scan over the dense
  /// worklist of still-informative classes (uninformativeness is monotone,
  /// so settled classes are never revisited), compacting it in place.
  /// Returns the classes/tuples that left the pool. Callers must hold the
  /// session arrays uniquely (constructor, or LabelImpl after
  /// MutableSession).
  ///
  /// After a negative label, `new_zone` is the labeled class's K_c words,
  /// the forbidden zone just added: θ_P and every older zone are unchanged,
  /// so a class leaves the pool iff pairs(K_c) ⊆ `new_zone` (one subset
  /// test each). Otherwise (construction, or a positive label shrank θ_P;
  /// `new_zone` is nullptr) each cache entry is refreshed in place,
  /// K_c ← K_c ∩ θ_P, and InferenceState::ClassifyPairs decides it: forced
  /// positive iff K_c == θ_P, else forced negative iff a zone contains K_c.
  /// A survivor whose K_c lost a pair gets its rank recomputed.
  LabelImpact Propagate(const uint64_t* new_zone);
  /// Drops `class_id` from the worklist (on explicit labeling).
  void RemoveFromWorklist(size_t class_id);

  /// K_c for every class as one flat table: pair sets back to back
  /// (pair_words_ words per class) and their ranks. A detach copies the two
  /// vectors, no per-class heap objects.
  struct KnowledgeTable {
    std::vector<uint64_t> pairs;
    std::vector<uint32_t> rank;
  };

  /// Detaches knowledge_ from any sharers (copy-on-first-mutate) and returns
  /// the sole-owner table. Everything that writes K_c goes through here.
  /// Each real copy counts one engine.cow_detaches.
  KnowledgeTable& MutableKnowledge();
  /// Same for the session arrays; every accepted label detaches once up
  /// front (a no-op on a sole owner).
  SessionArrays& MutableSession();

  std::shared_ptr<const TupleStore> store_;
  InferenceState state_;
  /// The class table and the tuple → class map are immutable once
  /// BuildClasses returns, so every clone of an engine shares them outright.
  std::shared_ptr<const std::vector<TupleClass>> classes_;
  /// pairs(Part(c)) per class, pair_words_ words each (see ClassPairBits).
  std::shared_ptr<const std::vector<uint64_t>> class_pairs_;
  std::shared_ptr<const std::vector<size_t>> class_of_tuple_;
  /// Per-session flat arrays, copy-on-write across clones (see
  /// SessionArrays).
  std::shared_ptr<SessionArrays> session_;
  /// Words per pair set over this instance's attributes.
  size_t pair_words_ = 0;
  /// K_c per class; fresh for informative classes (see ClassKnowledge).
  /// Copy-on-write: clones share the table until their first knowledge
  /// mutation (a positive label), which makes engine copies cheap enough to
  /// fan batches of sessions out over clones (exec::BatchSessionRunner).
  /// Negative-only histories never pay for a copy at all.
  std::shared_ptr<KnowledgeTable> knowledge_;
  LabeledExamples history_;
  /// Tuples the user labeled explicitly, ascending and distinct: the
  /// tuple-level view of history_ that tuple_status binary-searches. The
  /// label itself is the class's kLabeled* status (a class accepts only one
  /// answer), so this holds indices only — O(labels), a plain value member.
  std::vector<size_t> labeled_tuples_;
  size_t wasted_interactions_ = 0;
};

}  // namespace jim::core

#endif  // JIM_CORE_ENGINE_H_
