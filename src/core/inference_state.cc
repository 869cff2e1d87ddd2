#include "core/inference_state.h"

#include <algorithm>

#include "lattice/enumeration.h"
#include "util/hash.h"
#include "util/logging.h"

namespace jim::core {

InferenceState::InferenceState(size_t num_attributes)
    : num_attributes_(num_attributes),
      words_(lat::PairWords(num_attributes)),
      theta_p_(words_, 0) {
  // θ_P = ⊤: every pair, and no bit past the last one.
  lat::FillPairBits(lat::Partition::Top(num_attributes), theta_p_.data());
}

lat::Partition InferenceState::theta_p() const {
  return lat::PartitionFromPairBits(num_attributes_, theta_p_.data());
}

lat::Antichain InferenceState::negatives() const {
  lat::Antichain antichain;
  for (size_t m = 0; m < num_negatives_; ++m) {
    antichain.Insert(lat::PartitionFromPairBits(
        num_attributes_, negatives_.data() + m * words_));
  }
  return antichain;
}

bool InferenceState::Dominated(const uint64_t* pairs) const {
  for (size_t m = 0; m < num_negatives_; ++m) {
    if (lat::PairSubset(pairs, negatives_.data() + m * words_, words_)) {
      return true;
    }
  }
  return false;
}

bool InferenceState::IsConsistent(const lat::Partition& candidate) const {
  std::vector<uint64_t> pairs(words_);
  lat::FillPairBits(candidate, pairs.data());
  return lat::PairSubset(pairs.data(), theta_p_.data(), words_) &&
         !Dominated(pairs.data());
}

TupleClassification InferenceState::Classify(
    const lat::Partition& tuple_partition) const {
  std::vector<uint64_t> pairs(words_);
  lat::FillPairBits(tuple_partition, pairs.data());
  return ClassifyPairs(pairs.data());
}

TupleClassification InferenceState::ClassifyPairs(
    const uint64_t* pairs) const {
  // All consistent θ refine θ_P; they all select t iff θ_P ≤ Part(t), i.e.
  // iff the meet K = θ_P ∧ Part(t) did not lose a pair of θ_P.
  if (lat::PairSubset(theta_p_.data(), pairs, words_)) {
    return TupleClassification::kForcedPositive;
  }
  // Some consistent θ selects t iff K (the maximal sub-θ_P predicate
  // selecting t) escapes every forbidden zone: K ⊆ m iff θ_P ∩ pairs ∩ ¬m
  // is empty.
  for (size_t m = 0; m < num_negatives_; ++m) {
    const uint64_t* member = negatives_.data() + m * words_;
    bool inside = true;
    for (size_t w = 0; w < words_ && inside; ++w) {
      inside = (theta_p_[w] & pairs[w] & ~member[w]) == 0;
    }
    if (inside) return TupleClassification::kForcedNegative;
  }
  return TupleClassification::kInformative;
}

util::Status InferenceState::CheckLabel(TupleClassification classification,
                                        Label label) {
  if (label == Label::kPositive &&
      classification == TupleClassification::kForcedNegative) {
    return util::FailedPreconditionError(
        "positive label contradicts earlier labels: no consistent join "
        "predicate selects this tuple");
  }
  if (label == Label::kNegative &&
      classification == TupleClassification::kForcedPositive) {
    return util::FailedPreconditionError(
        "negative label contradicts earlier labels: every consistent join "
        "predicate selects this tuple");
  }
  return util::OkStatus();
}

util::Status InferenceState::ApplyLabel(const lat::Partition& tuple_partition,
                                        Label label) {
  std::vector<uint64_t> knowledge(words_);
  lat::FillPairBits(tuple_partition, knowledge.data());
  const TupleClassification classification = ClassifyPairs(knowledge.data());
  RETURN_IF_ERROR(CheckLabel(classification, label));
  for (size_t w = 0; w < words_; ++w) knowledge[w] &= theta_p_[w];
  ApplyClassified(knowledge.data(), classification, label);
  return util::OkStatus();
}

void InferenceState::ApplyClassified(const uint64_t* knowledge,
                                     TupleClassification classification,
                                     Label label) {
  if (label == Label::kPositive) has_positive_example_ = true;
  // A label consistent with a forced classification teaches nothing.
  if (classification != TupleClassification::kInformative) return;
  uint64_t* const members = negatives_.data();
  if (label == Label::kNegative) {
    // K is informative, so no member contains it: drop the members it
    // contains, then append it.
    size_t kept = 0;
    for (size_t m = 0; m < num_negatives_; ++m) {
      const uint64_t* member = members + m * words_;
      if (lat::PairSubset(member, knowledge, words_)) continue;
      if (kept != m) std::copy(member, member + words_, members + kept * words_);
      ++kept;
    }
    negatives_.resize(kept * words_);
    negatives_.insert(negatives_.end(), knowledge, knowledge + words_);
    num_negatives_ = kept + 1;
    return;
  }
  // Positive: θ_P ← K. Only the part of each forbidden zone below the new
  // θ_P remains meaningful, so every member is clipped to it; then a member
  // leaves if it lies in one already kept (duplicates included) or strictly
  // in a later one. A member dropped for lying in a later one that is
  // itself dropped lies in whatever member dropped that one, so the kept
  // set is exactly the maximal clipped members, each once.
  std::copy(knowledge, knowledge + words_, theta_p_.begin());
  for (size_t m = 0; m < num_negatives_; ++m) {
    for (size_t w = 0; w < words_; ++w) members[m * words_ + w] &= theta_p_[w];
  }
  size_t kept = 0;
  for (size_t m = 0; m < num_negatives_; ++m) {
    const uint64_t* member = members + m * words_;
    bool redundant = false;
    for (size_t k = 0; k < kept && !redundant; ++k) {
      redundant = lat::PairSubset(member, members + k * words_, words_);
    }
    for (size_t later = m + 1; later < num_negatives_ && !redundant;
         ++later) {
      const uint64_t* other = members + later * words_;
      redundant = lat::PairSubset(member, other, words_) &&
                  !lat::PairEqual(member, other, words_);
    }
    if (redundant) continue;
    if (kept != m) std::copy(member, member + words_, members + kept * words_);
    ++kept;
  }
  negatives_.resize(kept * words_);
  num_negatives_ = kept;
}

uint64_t InferenceState::CountConsistent(uint64_t limit) const {
  const lat::Partition theta = theta_p();
  JIM_CHECK_LE(lat::CountRefinements(theta), limit);
  uint64_t count = 0;
  std::vector<uint64_t> pairs(words_);
  lat::VisitRefinements(theta, [this, &count, &pairs](const lat::Partition& q) {
    lat::FillPairBits(q, pairs.data());
    if (!Dominated(pairs.data())) ++count;
    return true;
  });
  return count;
}

void InferenceState::CheckInvariants() const {
  JIM_CHECK_EQ(words_, lat::PairWords(num_attributes_));
  JIM_CHECK_EQ(theta_p_.size(), words_);
  JIM_CHECK_EQ(negatives_.size(), num_negatives_ * words_);
  // A pair set of a partition round-trips through its partition: that
  // rejects non-transitive sets and stray bits past the last pair.
  std::vector<uint64_t> round_trip(words_);
  const auto check_pair_set = [&](const uint64_t* bits, const char* what) {
    const lat::Partition p = lat::PartitionFromPairBits(num_attributes_, bits);
    p.CheckInvariants();
    lat::FillPairBits(p, round_trip.data());
    JIM_CHECK(lat::PairEqual(bits, round_trip.data(), words_))
        << what << " is not the pair set of a partition";
  };
  check_pair_set(theta_p_.data(), "θ_P");
  if (!has_positive_example_) {
    std::vector<uint64_t> top(words_);
    lat::FillPairBits(lat::Partition::Top(num_attributes_), top.data());
    JIM_CHECK(lat::PairEqual(theta_p_.data(), top.data(), words_))
        << "θ_P moved off ⊤ without a positive example";
  }
  for (size_t m = 0; m < num_negatives_; ++m) {
    const uint64_t* member = negatives_.data() + m * words_;
    check_pair_set(member, "forbidden member");
    // Every forbidden zone is of the form θ_P ∧ Part(s), re-clipped on every
    // θ_P shrink, so members lie below θ_P — strictly, or θ_P itself would
    // be inconsistent.
    JIM_CHECK(lat::PairSubset(member, theta_p_.data(), words_) &&
              !lat::PairEqual(member, theta_p_.data(), words_))
        << "forbidden member "
        << lat::PartitionFromPairBits(num_attributes_, member).ToString()
        << " not strictly below θ_P " << theta_p().ToString();
    for (size_t other = 0; other < m; ++other) {
      const uint64_t* earlier = negatives_.data() + other * words_;
      JIM_CHECK(!lat::PairSubset(member, earlier, words_) &&
                !lat::PairSubset(earlier, member, words_))
          << "comparable forbidden members " << other << " and " << m;
    }
  }
  // θ_P is the canonical answer; it must never be ruled out by a negative.
  JIM_CHECK(!Dominated(theta_p_.data()))
      << "θ_P " << theta_p().ToString() << " is itself forbidden";
}

std::string InferenceState::CanonicalKey() const {
  return theta_p().ToString() + "#" + negatives().ToString();
}

InferenceState::StateKey InferenceState::MakeStateKey() const {
  StateKey key;
  key.encoded.reserve(words_ * (num_negatives_ + 1));
  key.encoded.assign(theta_p_.begin(), theta_p_.end());
  // Members in ascending word order, so the key is a function of the
  // antichain as a set.
  const size_t members_begin = key.encoded.size();
  key.encoded.insert(key.encoded.end(), negatives_.begin(), negatives_.end());
  if (num_negatives_ > 1) {
    const size_t words = words_;
    if (words == 1) {
      std::sort(key.encoded.begin() + members_begin, key.encoded.end());
    } else {
      std::vector<size_t> order(num_negatives_);
      for (size_t m = 0; m < order.size(); ++m) order[m] = m;
      const uint64_t* members = negatives_.data();
      std::sort(order.begin(), order.end(), [members, words](size_t a,
                                                             size_t b) {
        return std::lexicographical_compare(
            members + a * words, members + (a + 1) * words, members + b * words,
            members + (b + 1) * words);
      });
      for (size_t m = 0; m < order.size(); ++m) {
        std::copy(members + order[m] * words, members + (order[m] + 1) * words,
                  key.encoded.begin() + members_begin + m * words);
      }
    }
  }
  uint64_t hash = util::kFnv1a64OffsetBasis;
  for (uint64_t word : key.encoded) {
    hash = (hash ^ (word & 0xFFFFFFFFu)) * util::kFnv1a64Prime;
    hash = (hash ^ (word >> 32)) * util::kFnv1a64Prime;
  }
  key.hash = hash;
  return key;
}

void InferenceState::Swap(InferenceState& other) noexcept {
  using std::swap;
  swap(num_attributes_, other.num_attributes_);
  swap(words_, other.words_);
  swap(theta_p_, other.theta_p_);
  swap(negatives_, other.negatives_);
  swap(num_negatives_, other.num_negatives_);
  swap(has_positive_example_, other.has_positive_example_);
}

}  // namespace jim::core
