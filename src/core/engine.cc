#include "core/engine.h"

#include <algorithm>
#include <atomic>

#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "util/logging.h"

namespace jim::core {

std::string_view ClassStatusToString(ClassStatus status) {
  switch (status) {
    case ClassStatus::kInformative:
      return "informative";
    case ClassStatus::kForcedPositive:
      return "forced-positive";
    case ClassStatus::kForcedNegative:
      return "forced-negative";
    case ClassStatus::kLabeledPositive:
      return "labeled-positive";
    case ClassStatus::kLabeledNegative:
      return "labeled-negative";
  }
  return "?";
}

InferenceEngine::InferenceEngine(std::shared_ptr<const TupleStore> store)
    : store_(std::move(store)), state_(store_->num_attributes()) {
  JIM_CHECK(store_ != nullptr);
  {
    JIM_SPAN(obs::kHistEngineBuildMicros);
    BuildClasses();
    // Some tuples may be uninformative from the start (e.g. all-values-equal
    // tuples are selected by every predicate).
    Propagate(/*new_zone=*/nullptr);
  }
  JIM_COUNT(obs::kCounterEngineBuilds);
  JIM_COUNT_N(obs::kCounterEngineClassesBuilt, classes_->size());
  JIM_AUDIT(CheckInvariants());
}

InferenceEngine::InferenceEngine(std::shared_ptr<const rel::Relation> relation)
    : InferenceEngine(MakeRelationStore(std::move(relation))) {}

namespace {

/// pairs(Part(t)) of one tuple's codes, written into `out` (`words` words):
/// the bit of pair (i, j) is set iff codes i and j are equal and not NULL —
/// kNullCode is never equal to anything, itself included, so every NULL is
/// a singleton block.
void CodesToPairs(const uint32_t* codes, size_t n, uint64_t* out) {
  // Bits accumulate in a register and are stored a word at a time.
  uint64_t word = 0;
  size_t bit = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint32_t code = codes[i];
    const bool live = code != rel::kNullCode;
    for (size_t j = i + 1; j < n; ++j) {
      word |= uint64_t{live && codes[j] == code} << (bit % 64);
      if (++bit % 64 == 0) {
        *out++ = word;
        word = 0;
      }
    }
  }
  if (bit % 64 != 0) *out = word;
}

/// Hash of a pair set for the class table's open addressing.
uint64_t HashPairs(const uint64_t* pairs, size_t words) {
  uint64_t hash = 0;
  for (size_t w = 0; w < words; ++w) {
    hash = (hash ^ pairs[w]) * 0x9e3779b97f4a7c15ull;
    hash ^= hash >> 29;
  }
  return hash;
}

}  // namespace

void InferenceEngine::BuildClasses() {
  const size_t num_tuples = store_->num_tuples();
  const size_t n = store_->num_attributes();
  const size_t words = lat::PairWords(n);
  pair_words_ = words;

  // One serial pass: each tuple's pair set is looked up in a flat
  // open-addressing table keyed by the pair-set words. A pair set determines
  // its partition, so equal keys are exactly equal Part(t), and class ids
  // are assigned in first-occurrence tuple order.
  constexpr uint32_t kEmpty = 0xFFFFFFFFu;
  auto class_pairs = std::make_shared<std::vector<uint64_t>>();
  std::vector<uint32_t> slots(64, kEmpty);
  size_t num_classes = 0;
  auto class_of_tuple = std::make_shared<std::vector<size_t>>(num_tuples);
  std::vector<uint32_t> codes(n);
  std::vector<uint64_t> key(words);
  const auto insert_slot = [&](const uint64_t* pairs) -> uint32_t& {
    const size_t mask = slots.size() - 1;
    size_t slot = HashPairs(pairs, words) & mask;
    while (slots[slot] != kEmpty &&
           !lat::PairEqual(class_pairs->data() + slots[slot] * words, pairs,
                           words)) {
      slot = (slot + 1) & mask;
    }
    return slots[slot];
  };
  for (size_t t = 0; t < num_tuples; ++t) {
    store_->TupleCodes(t, codes.data());
    CodesToPairs(codes.data(), n, key.data());
    uint32_t& slot = insert_slot(key.data());
    if (slot == kEmpty) {
      slot = static_cast<uint32_t>(num_classes++);
      class_pairs->insert(class_pairs->end(), key.begin(), key.end());
      if (2 * num_classes > slots.size()) {
        // Keep the load at most one half: rehash every key into twice the
        // slots (classes are few, so this is rare and cheap).
        slots.assign(2 * slots.size(), kEmpty);
        for (size_t c = 0; c < num_classes; ++c) {
          insert_slot(class_pairs->data() + c * words) =
              static_cast<uint32_t>(c);
        }
      }
      (*class_of_tuple)[t] = num_classes - 1;
    } else {
      (*class_of_tuple)[t] = slot;
    }
  }

  // Members by counting sort: each class's list is sized once and filled in
  // ascending tuple order.
  auto classes = std::make_shared<std::vector<TupleClass>>(num_classes);
  std::vector<size_t> members(num_classes, 0);
  for (const size_t c : *class_of_tuple) ++members[c];
  for (size_t c = 0; c < num_classes; ++c) {
    TupleClass& tuple_class = (*classes)[c];
    tuple_class.partition =
        lat::PartitionFromPairBits(n, class_pairs->data() + c * words);
    tuple_class.tuple_indices.reserve(members[c]);
  }
  for (size_t t = 0; t < num_tuples; ++t) {
    (*classes)[(*class_of_tuple)[t]].tuple_indices.push_back(t);
  }

  session_ = std::make_shared<SessionArrays>();
  session_->class_status.assign(num_classes, ClassStatus::kInformative);
  // Initially θ_P = ⊤, so K_c = ⊤ ∧ Part(c) = Part(c); every class starts on
  // the worklist.
  knowledge_ = std::make_shared<KnowledgeTable>();
  knowledge_->pairs = *class_pairs;
  knowledge_->rank.resize(num_classes);
  session_->informative.resize(num_classes);
  for (size_t c = 0; c < num_classes; ++c) {
    knowledge_->rank[c] = static_cast<uint32_t>(
        lat::PairSetRank(n, class_pairs->data() + c * words));
    session_->informative[c] = c;
  }
  classes_ = std::move(classes);
  class_pairs_ = std::move(class_pairs);
  class_of_tuple_ = std::move(class_of_tuple);
}

InferenceEngine::KnowledgeTable& InferenceEngine::MutableKnowledge() {
  // use_count is exact here: a count of 1 can only race with *this* engine
  // being cloned concurrently, which is already outside the copy contract.
  if (knowledge_.use_count() != 1) {
    knowledge_ = std::make_shared<KnowledgeTable>(*knowledge_);
    JIM_COUNT(obs::kCounterEngineCowDetaches);
  } else {
    // Pair with the release-decrement of a sibling clone that just detached
    // (copied the table and dropped the count to 1): without this fence the
    // in-place mutation below would be unordered against that copy's reads.
    std::atomic_thread_fence(std::memory_order_acquire);
  }
  return *knowledge_;
}

InferenceEngine::SessionArrays& InferenceEngine::MutableSession() {
  // Same copy-on-write protocol as MutableKnowledge.
  if (session_.use_count() != 1) {
    session_ = std::make_shared<SessionArrays>(*session_);
    JIM_COUNT(obs::kCounterEngineCowDetaches);
  } else {
    std::atomic_thread_fence(std::memory_order_acquire);
  }
  return *session_;
}

InferenceEngine::LabelImpact InferenceEngine::Propagate(
    const uint64_t* new_zone) {
  const size_t words = pair_words_;
  const uint64_t* const theta = state_.theta_p_bits();
  // A negative label leaves θ_P, and so every K_c, unchanged; otherwise the
  // in-place refresh below is the one mutation of K_c anywhere in the engine
  // — detach from clone sharers first.
  KnowledgeTable& knowledge =
      new_zone == nullptr ? MutableKnowledge() : *knowledge_;
  SessionArrays& session = *session_;
  std::vector<size_t>& informative = session.informative;
  if (new_zone != nullptr) {
    JIM_COUNT_N(obs::kCounterEngineWatchWakes, informative.size());
  }
  size_t out = 0;
  LabelImpact pruned;
  for (size_t c : informative) {
    uint64_t* const k = knowledge.pairs.data() + c * words;
    ClassStatus status = ClassStatus::kInformative;
    if (new_zone != nullptr) {
      if (lat::PairSubset(k, new_zone, words)) {
        status = ClassStatus::kForcedNegative;
      }
    } else {
      // The new θ_P refines the old, so meeting the *cached* knowledge with
      // it is the full refresh: K ∧ θ' = (θ ∧ Part(c)) ∧ θ' = θ' ∧ Part(c).
      uint64_t lost = 0;
      for (size_t w = 0; w < words; ++w) {
        lost |= k[w] & ~theta[w];
        k[w] &= theta[w];
      }
      switch (state_.ClassifyPairs(k)) {
        case TupleClassification::kForcedPositive:
          status = ClassStatus::kForcedPositive;
          break;
        case TupleClassification::kForcedNegative:
          status = ClassStatus::kForcedNegative;
          break;
        case TupleClassification::kInformative:
          if (lost != 0) {
            knowledge.rank[c] = static_cast<uint32_t>(
                lat::PairSetRank(store_->num_attributes(), k));
          }
          break;
      }
    }
    if (status == ClassStatus::kInformative) {
      informative[out++] = c;
      continue;
    }
    session.class_status[c] = status;
    ++pruned.pruned_classes;
    pruned.pruned_tuples += (*classes_)[c].size();
  }
  informative.resize(out);
  JIM_COUNT(obs::kCounterEnginePropagateRuns);
  JIM_COUNT_N(obs::kCounterEnginePrunedClasses, pruned.pruned_classes);
  JIM_OBSERVE(obs::kHistEngineWorklistSize, out);
  return pruned;
}

void InferenceEngine::RemoveFromWorklist(size_t class_id) {
  std::vector<size_t>& informative = session_->informative;
  const auto it =
      std::lower_bound(informative.begin(), informative.end(), class_id);
  JIM_CHECK(it != informative.end() && *it == class_id)
      << "class " << class_id << " is not on the worklist";
  informative.erase(it);
}

size_t InferenceEngine::NumInformativeTuples() const {
  size_t count = 0;
  for (size_t c : session_->informative) count += (*classes_)[c].size();
  return count;
}

bool InferenceEngine::IsDone() const { return session_->informative.empty(); }

JoinPredicate InferenceEngine::Result() const {
  return JoinPredicate(store_->schema(), state_.theta_p());
}

util::DynamicBitset InferenceEngine::CertainResultTuples() const {
  util::DynamicBitset certain(store_->num_tuples());
  for (size_t c = 0; c < classes_->size(); ++c) {
    if (IsPositive(session_->class_status[c])) {
      for (size_t t : (*classes_)[c].tuple_indices) certain.Set(t);
    }
  }
  return certain;
}

util::DynamicBitset InferenceEngine::CertainNonResultTuples() const {
  util::DynamicBitset certain(store_->num_tuples());
  for (size_t c = 0; c < classes_->size(); ++c) {
    if (session_->class_status[c] == ClassStatus::kForcedNegative ||
        session_->class_status[c] == ClassStatus::kLabeledNegative) {
      for (size_t t : (*classes_)[c].tuple_indices) certain.Set(t);
    }
  }
  return certain;
}

util::Status InferenceEngine::CheckLabel(size_t class_id, Label label) const {
  if (class_id >= classes_->size()) {
    return util::OutOfRangeError("class id out of range");
  }
  // The incremental status stands in for a fresh Classify (CheckInvariants
  // pins the two together), so the verdict costs O(1).
  const ClassStatus status = session_->class_status[class_id];
  switch (status) {
    case ClassStatus::kInformative:
      return util::OkStatus();
    case ClassStatus::kForcedPositive:
      return InferenceState::CheckLabel(TupleClassification::kForcedPositive,
                                        label);
    case ClassStatus::kForcedNegative:
      return InferenceState::CheckLabel(TupleClassification::kForcedNegative,
                                        label);
    case ClassStatus::kLabeledPositive:
    case ClassStatus::kLabeledNegative:
      // A repetition is accepted (and wasted); the opposite answer is not.
      if ((status == ClassStatus::kLabeledPositive) !=
          (label == Label::kPositive)) {
        return util::FailedPreconditionError(
            "tuple was already labeled with the opposite label");
      }
      return util::OkStatus();
  }
  return util::OkStatus();
}

util::Status InferenceEngine::LabelImpl(size_t class_id, size_t tuple_index,
                                        Label label, LabelImpact* impact) {
  {
    util::Status verdict = CheckLabel(class_id, label);
    if (!verdict.ok()) {
      JIM_COUNT(obs::kCounterEngineLabelsRejected);
      return verdict;
    }
  }
  // Accepted from here on. Every mutation below goes through the session
  // arrays — detach once (a no-op unless this engine is a fresh clone).
  SessionArrays& session = MutableSession();
  const ClassStatus before = session.class_status[class_id];
  JIM_COUNT(obs::kCounterEngineLabelsAccepted);
  if (before != ClassStatus::kLabeledPositive &&
      before != ClassStatus::kLabeledNegative) {
    // CheckLabel accepted on the class's incremental status, which stands in
    // for a fresh classification, so the state applies the label without
    // re-classifying (a repeated label on an explicitly labeled class has
    // nothing to tell it). K_c is fresh exactly when the class is
    // informative, the only case that reads it.
    const TupleClassification classification =
        before == ClassStatus::kInformative
            ? TupleClassification::kInformative
            : before == ClassStatus::kForcedPositive
                  ? TupleClassification::kForcedPositive
                  : TupleClassification::kForcedNegative;
    state_.ApplyClassified(ClassKnowledgeBits(class_id), classification,
                           label);
    // One JIM_COUNT site per name: the macro caches its counter in a
    // function-local static, so the name must be a per-site constant.
    if (label == Label::kPositive) {
      JIM_COUNT(obs::kCounterEngineLabelsPositive);
    } else {
      JIM_COUNT(obs::kCounterEngineLabelsNegative);
    }
    session.class_status[class_id] = label == Label::kPositive
                                         ? ClassStatus::kLabeledPositive
                                         : ClassStatus::kLabeledNegative;
  }
  history_.push_back(LabeledExample{tuple_index, label});
  const auto slot = std::lower_bound(labeled_tuples_.begin(),
                                     labeled_tuples_.end(), tuple_index);
  if (slot == labeled_tuples_.end() || *slot != tuple_index) {
    labeled_tuples_.insert(slot, tuple_index);
  }
  if (before != ClassStatus::kInformative) {
    // Consistent label on a labeled or grayed-out tuple: accepted, teaches
    // nothing.
    ++wasted_interactions_;
    JIM_COUNT(obs::kCounterEngineLabelsWasted);
    if (impact != nullptr) *impact = LabelImpact{};
    return util::OkStatus();
  }
  // The labeled class leaves the pool as kLabeled*; pull it off the worklist
  // before propagation so reclassification cannot overwrite that status.
  RemoveFromWorklist(class_id);
  // θ_P is unchanged by a negative label, so the labeled class's cached
  // knowledge is still exactly the zone ApplyClassified added (and nothing
  // on that path mutates knowledge_).
  LabelImpact pruned = Propagate(
      label == Label::kPositive ? nullptr : ClassKnowledgeBits(class_id));
  if (impact != nullptr) {
    *impact = LabelImpact{pruned.pruned_classes + 1,
                          pruned.pruned_tuples + (*classes_)[class_id].size()};
  }
  return util::OkStatus();
}

TupleStatus InferenceEngine::tuple_status(size_t tuple_index) const {
  JIM_CHECK_LT(tuple_index, store_->num_tuples());
  // Members of a labeled class show as labeled only if the user labeled that
  // very tuple; their class-mates show as forced.
  const auto labeled = [&] {
    return std::binary_search(labeled_tuples_.begin(), labeled_tuples_.end(),
                              tuple_index);
  };
  switch (session_->class_status[(*class_of_tuple_)[tuple_index]]) {
    case ClassStatus::kInformative:
      return TupleStatus::kInformative;
    case ClassStatus::kForcedPositive:
      return TupleStatus::kForcedPositive;
    case ClassStatus::kForcedNegative:
      return TupleStatus::kForcedNegative;
    case ClassStatus::kLabeledPositive:
      return labeled() ? TupleStatus::kLabeledPositive
                       : TupleStatus::kForcedPositive;
    case ClassStatus::kLabeledNegative:
      return labeled() ? TupleStatus::kLabeledNegative
                       : TupleStatus::kForcedNegative;
  }
  return TupleStatus::kInformative;
}

util::Status InferenceEngine::SubmitTupleLabel(size_t tuple_index,
                                               Label label) {
  if (tuple_index >= store_->num_tuples()) {
    return util::OutOfRangeError("tuple index out of range");
  }
  const util::Status status = LabelImpl((*class_of_tuple_)[tuple_index],
                                        tuple_index, label, nullptr);
  // Audited on rejection too: a refused label must leave the engine intact.
  JIM_AUDIT(CheckInvariants());
  return status;
}

util::Status InferenceEngine::SubmitClassLabel(size_t class_id, Label label,
                                               LabelImpact* impact) {
  if (class_id >= classes_->size()) {
    return util::OutOfRangeError("class id out of range");
  }
  const util::Status status = LabelImpl(
      class_id, (*classes_)[class_id].tuple_indices.front(), label, impact);
  JIM_AUDIT(CheckInvariants());
  return status;
}

void InferenceEngine::PrepareLookahead(LookaheadCache& cache) const {
  const size_t n = store_->num_attributes();
  const std::vector<size_t>& informative = session_->informative;
  const size_t positions = informative.size();
  const size_t pairs = lat::NumPairs(n);
  const size_t pair_words = pair_words_;
  const size_t worklist_words = (positions + 63) / 64;
  cache.worklist_size = positions;
  cache.num_pairs = pairs;
  cache.pair_words = pair_words;
  cache.worklist_words = worklist_words;
  cache.pair_bits.resize(positions * pair_words);
  cache.pair_slices.assign(worklist_words * pairs, 0);
  cache.nibble_sums.assign(worklist_words * 16 * 16, 0);
  size_t total_tuples = 0;
  for (size_t i = 0; i < positions; ++i) {
    const size_t c = informative[i];
    uint64_t* bits = cache.pair_bits.data() + i * pair_words;
    std::copy_n(ClassKnowledgeBits(c), pair_words, bits);
    const uint64_t position_bit = uint64_t{1} << (i % 64);
    uint64_t* slices = cache.pair_slices.data() + (i / 64) * pairs;
    for (size_t w = 0; w < pair_words; ++w) {
      for (uint64_t word = bits[w]; word != 0; word &= word - 1) {
        slices[w * 64 + static_cast<size_t>(__builtin_ctzll(word))] |=
            position_bit;
      }
    }
    // Singletons first; the subset sums are filled in below.
    const size_t size = (*classes_)[c].size();
    total_tuples += size;
    cache.nibble_sums[(i / 4) * 16 + (size_t{1} << (i % 4))] =
        (uint64_t{1} << LookaheadCache::kCountShift) + size;
  }
  JIM_CHECK_LT(total_tuples, uint64_t{1} << LookaheadCache::kCountShift);
  // Every other subset adds its lowest member to the rest: v = low + (v − low).
  for (size_t nibble = 0; nibble < worklist_words * 16; ++nibble) {
    uint64_t* sums = cache.nibble_sums.data() + nibble * 16;
    for (size_t v = 3; v < 16; ++v) {
      const size_t low = v & (~v + 1);
      if (low != v) sums[v] = sums[low] + sums[v - low];
    }
  }
  cache.antichain_bits = state_.negative_bits();
  // Audit: every bitset re-derived through Partition::Pairs() and the
  // closed-form pair index, K_c from a from-scratch partition meet; the
  // zones compare as a set, since their order is immaterial.
  const auto pair_set = [n, pair_words](const lat::Partition& p) {
    std::vector<uint64_t> expected(pair_words, 0);
    for (const auto& [i, j] : p.Pairs()) {
      const size_t bit = lat::PairIndex(n, i, j);
      expected[bit / 64] |= uint64_t{1} << (bit % 64);
    }
    return expected;
  };
  JIM_AUDIT({
    const lat::Partition theta = state_.theta_p();
    for (size_t i = 0; i < positions; ++i) {
      const uint64_t* bits = cache.pair_bits.data() + i * pair_words;
      JIM_CHECK(pair_set(theta.Meet((*classes_)[informative[i]].partition)) ==
                std::vector<uint64_t>(bits, bits + pair_words))
          << "stale pair bitset for class " << informative[i];
    }
    const lat::Antichain zones = state_.negatives();
    std::vector<std::vector<uint64_t>> expected;
    std::vector<std::vector<uint64_t>> actual;
    for (const lat::Partition& m : zones.members()) {
      expected.push_back(pair_set(m));
    }
    for (size_t a = 0; a < state_.num_negatives(); ++a) {
      const uint64_t* bits = cache.antichain_bits.data() + a * pair_words;
      actual.emplace_back(bits, bits + pair_words);
    }
    std::sort(expected.begin(), expected.end());
    std::sort(actual.begin(), actual.end());
    JIM_CHECK(expected == actual) << "stale antichain pair bitsets";
  });
}

InferenceEngine::LabelImpactPair InferenceEngine::SimulateLabelBoth(
    size_t position, const LookaheadCache& cache) const {
  JIM_CHECK_EQ(cache.worklist_size, session_->informative.size())
      << "lookahead cache prepared for another worklist";
  JIM_CHECK_LT(position, cache.worklist_size);
  const size_t pairs = cache.num_pairs;
  const size_t pair_words = cache.pair_words;
  const uint64_t* labeled = cache.pair_bits.data() + position * pair_words;
  const uint64_t* const antichain = cache.antichain_bits.data();
  const uint64_t* const antichain_end = antichain + cache.antichain_bits.size();
  // The valid pairs of the last pair word; ¬L must not reach past them.
  const uint64_t last_word_pairs =
      pairs % 64 == 0 ? ~uint64_t{0} : (uint64_t{1} << (pairs % 64)) - 1;
  // Packed (count, tuples) sums over N and U; see LookaheadCache::nibble_sums.
  uint64_t negative_sum = 0;
  uint64_t positive_sum = 0;
  for (size_t w = 0; w < cache.worklist_words; ++w) {
    const uint64_t* slice = cache.pair_slices.data() + w * pairs;
    uint64_t outside = 0;            // ⋃_{p∉L} S_p
    uint64_t inside = ~uint64_t{0};  // ⋂_{p∈L} S_p
    for (size_t pw = 0; pw < pair_words; ++pw) {
      const uint64_t* word_slice = slice + pw * 64;
      for (uint64_t b = labeled[pw]; b != 0; b &= b - 1) {
        inside &= word_slice[__builtin_ctzll(b)];
      }
      uint64_t unlabeled = ~labeled[pw];
      if (pw + 1 == pair_words) unlabeled &= last_word_pairs;
      for (uint64_t b = unlabeled; b != 0; b &= b - 1) {
        outside |= word_slice[__builtin_ctzll(b)];
      }
    }
    uint64_t dominated = 0;  // ⋃_m ¬⋃_{p∈L∖m} S_p
    for (const uint64_t* m = antichain; m != antichain_end; m += pair_words) {
      uint64_t escapes = 0;
      for (size_t pw = 0; pw < pair_words; ++pw) {
        const uint64_t* word_slice = slice + pw * 64;
        for (uint64_t b = labeled[pw] & ~m[pw]; b != 0; b &= b - 1) {
          escapes |= word_slice[__builtin_ctzll(b)];
        }
      }
      dominated |= ~escapes;
    }
    // Positions past the end of the worklist are clear in every slice and
    // count zero in nibble_sums, so the complemented sets need no masking.
    const uint64_t negative = ~outside;
    const uint64_t positive = inside | dominated;
    const uint64_t* sums = cache.nibble_sums.data() + w * 16 * 16;
    for (unsigned k = 0; k < 64; k += 4, sums += 16) {
      negative_sum += sums[(negative >> k) & 0xF];
      positive_sum += sums[(positive >> k) & 0xF];
    }
  }
  JIM_COUNT(obs::kCounterEngineSimulateLabelBoth);
  constexpr uint64_t kTupleMask =
      (uint64_t{1} << LookaheadCache::kCountShift) - 1;
  LabelImpactPair result;
  result.positive = {positive_sum >> LookaheadCache::kCountShift,
                     positive_sum & kTupleMask};
  result.negative = {negative_sum >> LookaheadCache::kCountShift,
                     negative_sum & kTupleMask};
  return result;
}

bool InferenceEngine::InstanceEquivalent(const lat::Partition& p1,
                                         const lat::Partition& p2) const {
  const size_t words = pair_words_;
  std::vector<uint64_t> pairs1(words);
  std::vector<uint64_t> pairs2(words);
  lat::FillPairBits(p1, pairs1.data());
  lat::FillPairBits(p2, pairs2.data());
  for (size_t c = 0; c < classes_->size(); ++c) {
    const uint64_t* part = ClassPairBits(c);
    if (lat::PairSubset(pairs1.data(), part, words) !=
        lat::PairSubset(pairs2.data(), part, words)) {
      return false;
    }
  }
  return true;
}

void InferenceEngine::CheckInvariants() const {
  state_.CheckInvariants();

  // COW holders attached and sized for this instance.
  JIM_CHECK(store_ != nullptr && classes_ != nullptr &&
            class_pairs_ != nullptr && class_of_tuple_ != nullptr &&
            session_ != nullptr && knowledge_ != nullptr);
  const size_t num_tuples = store_->num_tuples();
  const size_t num_classes = classes_->size();
  JIM_CHECK_EQ(class_of_tuple_->size(), num_tuples);
  JIM_CHECK_EQ(session_->class_status.size(), num_classes);
  JIM_CHECK_EQ(pair_words_, lat::PairWords(store_->num_attributes()));
  JIM_CHECK_EQ(class_pairs_->size(), num_classes * pair_words_);
  JIM_CHECK_EQ(knowledge_->pairs.size(), num_classes * pair_words_);
  JIM_CHECK_EQ(knowledge_->rank.size(), num_classes);

  // θ_P and the forbidden zones, re-derived from the history with partition
  // meets: θ_P is the meet of Part over the positive labels, and the zones
  // are the maximal θ_P ∧ Part(s) over the negative labels s (a zone
  // inserted earlier was clipped to every later θ_P, and a label on a
  // forced or labeled class adds nothing the maximum does not hold).
  lat::Partition theta = lat::Partition::Top(store_->num_attributes());
  for (const LabeledExample& example : history_) {
    if (example.label == Label::kPositive) {
      theta = theta.Meet(
          (*classes_)[(*class_of_tuple_)[example.tuple_index]].partition);
    }
  }
  lat::Antichain zones;
  for (const LabeledExample& example : history_) {
    if (example.label == Label::kNegative) {
      zones.Insert(theta.Meet(
          (*classes_)[(*class_of_tuple_)[example.tuple_index]].partition));
    }
  }
  JIM_CHECK(state_.theta_p() == theta)
      << "θ_P " << state_.theta_p().ToString()
      << " differs from the history's meet " << theta.ToString();
  JIM_CHECK_EQ(state_.negatives().ToString(), zones.ToString())
      << "forbidden zones differ from the history's";

  // Classes partition the tuple set, in agreement with class_of_tuple_.
  size_t members_total = 0;
  for (size_t c = 0; c < num_classes; ++c) {
    const TupleClass& tuple_class = (*classes_)[c];
    tuple_class.partition.CheckInvariants();
    JIM_CHECK_EQ(tuple_class.partition.num_elements(),
                 store_->num_attributes());
    std::vector<uint64_t> pairs(pair_words_);
    lat::FillPairBits(tuple_class.partition, pairs.data());
    JIM_CHECK(lat::PairEqual(pairs.data(), ClassPairBits(c), pair_words_))
        << "pair set of class " << c << " differs from its partition's";
    JIM_CHECK(!tuple_class.tuple_indices.empty()) << "empty class " << c;
    members_total += tuple_class.size();
    for (size_t t : tuple_class.tuple_indices) {
      JIM_CHECK_LT(t, num_tuples);
      JIM_CHECK_EQ((*class_of_tuple_)[t], c)
          << "tuple " << t << " listed in class " << c
          << " but mapped elsewhere";
    }
  }
  JIM_CHECK_EQ(members_total, num_tuples)
      << "classes do not partition the tuple set";

  // Worklist = ascending ids of exactly the kInformative classes.
  const std::vector<size_t>& informative = session_->informative;
  for (size_t i = 0; i < informative.size(); ++i) {
    JIM_CHECK_LT(informative[i], num_classes);
    if (i > 0) {
      JIM_CHECK_LT(informative[i - 1], informative[i])
          << "worklist not strictly ascending at position " << i;
    }
  }
  size_t informative_count = 0;
  for (size_t c = 0; c < num_classes; ++c) {
    const bool on_worklist = std::binary_search(
        informative.begin(), informative.end(), c);
    const bool is_informative =
        session_->class_status[c] == ClassStatus::kInformative;
    JIM_CHECK_EQ(on_worklist, is_informative)
        << "worklist/status disagreement on class " << c << " ("
        << ClassStatusToString(session_->class_status[c]) << ")";
    if (is_informative) ++informative_count;
  }
  JIM_CHECK_EQ(informative_count, informative.size());

  // Per-class: cached knowledge fresh for informative classes, and every
  // non-explicit status reproducible from a from-scratch classification.
  for (size_t c = 0; c < num_classes; ++c) {
    const lat::Partition& part = (*classes_)[c].partition;
    switch (session_->class_status[c]) {
      case ClassStatus::kInformative: {
        const lat::Partition knowledge = theta.Meet(part);
        JIM_CHECK(ClassKnowledge(c) == knowledge)
            << "stale knowledge cache K_" << c;
        JIM_CHECK_EQ(ClassKnowledgeRank(c), knowledge.Rank())
            << "stale knowledge rank of K_" << c;
        JIM_CHECK(state_.Classify(part) == TupleClassification::kInformative)
            << "class " << c << " marked informative but classifies otherwise";
        break;
      }
      case ClassStatus::kForcedPositive:
        JIM_CHECK(state_.Classify(part) ==
                  TupleClassification::kForcedPositive)
            << "class " << c << " wrongly forced positive";
        break;
      case ClassStatus::kForcedNegative:
        JIM_CHECK(state_.Classify(part) ==
                  TupleClassification::kForcedNegative)
            << "class " << c << " wrongly forced negative";
        break;
      case ClassStatus::kLabeledPositive:
        // An accepted positive label implies every consistent predicate now
        // selects the class (the label made it so).
        JIM_CHECK(state_.Classify(part) ==
                  TupleClassification::kForcedPositive)
            << "class " << c << " labeled positive but not forced by θ_P";
        break;
      case ClassStatus::kLabeledNegative:
        JIM_CHECK(state_.Classify(part) ==
                  TupleClassification::kForcedNegative)
            << "class " << c << " labeled negative but not in a forbidden zone";
        break;
    }
  }

  // The labeled-tuple list is the tuple set of the history, and every
  // history label agrees with its class's explicit status.
  std::vector<size_t> expected_labeled;
  for (const LabeledExample& example : history_) {
    JIM_CHECK_LT(example.tuple_index, num_tuples);
    expected_labeled.push_back(example.tuple_index);
    const ClassStatus status =
        session_->class_status[(*class_of_tuple_)[example.tuple_index]];
    JIM_CHECK(status == (example.label == Label::kPositive
                             ? ClassStatus::kLabeledPositive
                             : ClassStatus::kLabeledNegative))
        << "tuple " << example.tuple_index << " labeled "
        << (example.label == Label::kPositive ? "positive" : "negative")
        << " in class with status " << ClassStatusToString(status);
  }
  std::sort(expected_labeled.begin(), expected_labeled.end());
  expected_labeled.erase(
      std::unique(expected_labeled.begin(), expected_labeled.end()),
      expected_labeled.end());
  JIM_CHECK(expected_labeled == labeled_tuples_)
      << "labeled-tuple list out of sync with the history";
}

InferenceEngine::Stats InferenceEngine::GetStats() const {
  Stats stats;
  stats.num_tuples = store_->num_tuples();
  stats.num_classes = classes_->size();
  stats.interactions = history_.size();
  stats.wasted_interactions = wasted_interactions_;
  for (size_t c = 0; c < classes_->size(); ++c) {
    const size_t members = (*classes_)[c].size();
    switch (session_->class_status[c]) {
      case ClassStatus::kInformative:
        ++stats.informative_classes;
        stats.informative_tuples += members;
        break;
      case ClassStatus::kForcedPositive:
        stats.forced_positive_tuples += members;
        break;
      case ClassStatus::kForcedNegative:
        stats.forced_negative_tuples += members;
        break;
      case ClassStatus::kLabeledPositive:
      case ClassStatus::kLabeledNegative:
        stats.explicitly_labeled_tuples += members;
        break;
    }
  }
  return stats;
}

}  // namespace jim::core
