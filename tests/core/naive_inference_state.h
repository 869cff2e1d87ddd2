// The naive inference-state reference the parity suites pin InferenceState
// to: θ_P as a lat::Partition and the forbidden zones as a lat::Antichain,
// every classification and label computed with partition meets and
// refinement tests. This is the representation InferenceState used before
// it moved to attribute-pair sets; it reads only the lattice API.

#ifndef JIM_TESTS_CORE_NAIVE_INFERENCE_STATE_H_
#define JIM_TESTS_CORE_NAIVE_INFERENCE_STATE_H_

#include <cstdint>
#include <string>

#include "core/example.h"
#include "core/inference_state.h"
#include "lattice/antichain.h"
#include "lattice/enumeration.h"
#include "lattice/partition.h"
#include "util/check.h"
#include "util/status.h"

namespace jim::core {

class NaiveInferenceState {
 public:
  /// θ_P = ⊤, no negatives.
  explicit NaiveInferenceState(size_t num_attributes)
      : theta_p_(lat::Partition::Top(num_attributes)) {}

  /// The same knowledge as `state`, rebuilt from its partition values.
  explicit NaiveInferenceState(const InferenceState& state)
      : theta_p_(state.theta_p()), negatives_(state.negatives()) {}

  const lat::Partition& theta_p() const { return theta_p_; }
  const lat::Antichain& negatives() const { return negatives_; }

  bool IsConsistent(const lat::Partition& candidate) const {
    return candidate.Refines(theta_p_) && !negatives_.DominatedBy(candidate);
  }

  TupleClassification Classify(const lat::Partition& tuple_partition) const {
    const lat::Partition knowledge = theta_p_.Meet(tuple_partition);
    // All consistent θ refine θ_P; they all select t iff the meet lost
    // nothing.
    if (knowledge == theta_p_) return TupleClassification::kForcedPositive;
    // Some consistent θ selects t iff K escapes every forbidden zone.
    if (negatives_.DominatedBy(knowledge)) {
      return TupleClassification::kForcedNegative;
    }
    return TupleClassification::kInformative;
  }

  util::Status ApplyLabel(const lat::Partition& tuple_partition, Label label) {
    const TupleClassification classification = Classify(tuple_partition);
    RETURN_IF_ERROR(InferenceState::CheckLabel(classification, label));
    if (classification != TupleClassification::kInformative) {
      return util::OkStatus();  // uninformative: nothing to learn
    }
    const lat::Partition knowledge = theta_p_.Meet(tuple_partition);
    if (label == Label::kPositive) {
      theta_p_ = knowledge;
      // Only the part of each forbidden zone below the new θ_P remains.
      negatives_.RestrictTo(theta_p_);
    } else {
      negatives_.Insert(knowledge);
    }
    return util::OkStatus();
  }

  uint64_t CountConsistent() const {
    uint64_t count = 0;
    lat::VisitRefinements(theta_p_, [this, &count](const lat::Partition& q) {
      if (!negatives_.DominatedBy(q)) ++count;
      return true;
    });
    return count;
  }

  /// θ_P plus the antichain's canonical (sorted) rendering.
  std::string CanonicalKey() const {
    return theta_p_.ToString() + "#" + negatives_.ToString();
  }

 private:
  lat::Partition theta_p_;
  lat::Antichain negatives_;
};

}  // namespace jim::core

#endif  // JIM_TESTS_CORE_NAIVE_INFERENCE_STATE_H_
