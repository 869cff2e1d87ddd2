// Parity tests for the transposed lookahead kernel and the class-level
// result check, on instances the benchmark workloads never reach:
//   - 1, 11, 12 and 14 attributes (0, 55, 66 and 91 attribute pairs: no
//     pair word at all, a full single word, and two words), with NULL cells
//     and sessions biased toward negative labels so the forbidden-zone
//     antichain is non-empty;
//   - worklists of fewer than 64 classes, exactly 64 and 128, and more than
//     128 with a partial last word, with class sizes spanning several bits,
//     before and after negative labels;
//   - every candidate's kernel result equals NaiveSimulateLabelBoth, and
//     every pick equals the naive argmax — also under the max_candidates
//     sample, with more than 256 informative classes;
//   - the kernel's edges: 12 attributes (the second pair word holds 2 valid
//     pairs) under 16 or more forbidden zones, a candidate with no co-block
//     pair (L empty), candidates with the largest L an informative class
//     can have, and — on hand-edited caches, against the kernel's set
//     formula, since no engine state reaches them — a forbidden zone
//     m ⊇ L and an L of every pair;
//   - one PickClass adds exactly one engine.simulate_label_both per scored
//     candidate and nothing to engine.cutoff_skips;
//   - InferenceEngine::InstanceEquivalent agrees with the tuple-scanning
//     InstanceEquivalent(store, …) on equivalent and non-equivalent
//     predicate pairs.

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/join_predicate.h"
#include "core/strategies.h"
#include "gtest/gtest.h"
#include "lattice/enumeration.h"
#include "naive_lookahead.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "util/check.h"
#include "util/rng.h"
#include "workload/synthetic.h"

namespace jim::core {
namespace {

// Like the other parity suites, run with the invariant auditor on, which
// also re-derives every lookahead pair bitset from Partition::Pairs().
const bool kAuditInvariantsOn = [] {
  ::jim::util::SetAuditInvariants(true);
  return true;
}();

/// A synthetic instance over `attrs` attributes with roughly one cell in
/// eight replaced by NULL.
std::shared_ptr<const rel::Relation> MakeInstanceWithNulls(uint64_t seed,
                                                           size_t attrs,
                                                           size_t tuples) {
  util::Rng rng(seed);
  workload::SyntheticSpec spec;
  spec.num_attributes = attrs;
  spec.num_tuples = tuples;
  spec.domain_size = 3;
  spec.goal_constraints = attrs > 2 ? 2 : attrs - 1;
  const auto workload = workload::MakeSyntheticWorkload(spec, rng);
  auto relation = std::make_shared<rel::Relation>(
      workload.instance->name(), workload.instance->schema());
  for (rel::Tuple row : workload.instance->rows()) {
    for (rel::Value& cell : row) {
      if (rng.UniformInt(0, 7) == 0) cell = rel::Value::Null();
    }
    JIM_CHECK_OK(relation->AddRow(std::move(row)));
  }
  return relation;
}

/// An instance over `attrs` attributes with exactly `classes` tuple
/// classes, all informative at the start: distinct non-top partitions drawn
/// at random, each written as one tuple of its block labels and repeated
/// 1–40 times, so class sizes span several bits.
std::shared_ptr<const rel::Relation> MakeInstanceWithClasses(uint64_t seed,
                                                             size_t attrs,
                                                             size_t classes) {
  util::Rng rng(seed);
  workload::SyntheticSpec spec;
  spec.num_attributes = attrs;
  spec.num_tuples = 1;
  const auto schema_source = workload::MakeSyntheticWorkload(spec, rng);
  std::vector<lat::Partition> partitions = lat::AllPartitions(attrs);
  partitions.erase(std::remove(partitions.begin(), partitions.end(),
                               lat::Partition::Top(attrs)),
                   partitions.end());
  JIM_CHECK_LE(classes, partitions.size());
  auto relation = std::make_shared<rel::Relation>(
      "classes", schema_source.instance->schema());
  for (size_t k = 0; k < classes; ++k) {
    const size_t pick = static_cast<size_t>(
        rng.UniformInt(static_cast<int64_t>(k),
                       static_cast<int64_t>(partitions.size()) - 1));
    std::swap(partitions[k], partitions[pick]);
    rel::Tuple row;
    for (int label : partitions[k].labels()) row.emplace_back(int64_t{label});
    for (int64_t copies = rng.UniformInt(1, 40); copies > 0; --copies) {
      JIM_CHECK_OK(relation->AddRow(row));
    }
  }
  return relation;
}

std::vector<LookaheadStrategy::Objective> AllObjectives() {
  return {LookaheadStrategy::Objective::kMinMax,
          LookaheadStrategy::Objective::kExpected,
          LookaheadStrategy::Objective::kEntropy};
}

/// One instance row per partition: the partition's block labels, repeated
/// `copies` times.
std::shared_ptr<const rel::Relation> MakeInstanceFromPartitions(
    size_t attrs, const std::vector<lat::Partition>& partitions,
    size_t copies) {
  util::Rng rng(attrs);
  workload::SyntheticSpec spec;
  spec.num_attributes = attrs;
  spec.num_tuples = 1;
  const auto schema_source = workload::MakeSyntheticWorkload(spec, rng);
  auto relation = std::make_shared<rel::Relation>(
      "partitions", schema_source.instance->schema());
  for (const lat::Partition& partition : partitions) {
    rel::Tuple row;
    for (int label : partition.labels()) row.emplace_back(int64_t{label});
    for (size_t k = 0; k < copies; ++k) JIM_CHECK_OK(relation->AddRow(row));
  }
  return relation;
}

/// Expects `actual` to equal `expected`, both answers, field by field.
void ExpectImpactsEqual(const InferenceEngine::LabelImpactPair& actual,
                        const InferenceEngine::LabelImpactPair& expected,
                        const std::string& context) {
  EXPECT_EQ(actual.positive.pruned_classes, expected.positive.pruned_classes)
      << context;
  EXPECT_EQ(actual.positive.pruned_tuples, expected.positive.pruned_tuples)
      << context;
  EXPECT_EQ(actual.negative.pruned_classes, expected.negative.pruned_classes)
      << context;
  EXPECT_EQ(actual.negative.pruned_tuples, expected.negative.pruned_tuples)
      << context;
}

/// Every informative class's kernel result against NaiveSimulateLabelBoth,
/// over one cache prepared for the engine's current worklist.
void ExpectKernelMatchesNaive(const InferenceEngine& engine,
                              const std::string& context) {
  InferenceEngine::LookaheadCache cache;
  engine.PrepareLookahead(cache);
  ASSERT_EQ(cache.worklist_size, engine.InformativeClasses().size());
  const std::vector<size_t>& informative = engine.InformativeClasses();
  for (size_t position = 0; position < informative.size(); ++position) {
    const size_t c = informative[position];
    ExpectImpactsEqual(engine.SimulateLabelBoth(position, cache),
                       NaiveSimulateLabelBoth(engine, c),
                       context + " class=" + std::to_string(c));
  }
}

/// Number of co-block attribute pairs of `p`: |pairs(p)|.
size_t PairCount(const lat::Partition& p) { return p.Pairs().size(); }

/// True iff every bit of the `words`-word pair bitset `a` is set in `b`.
bool PairSubset(const uint64_t* a, const uint64_t* b, size_t words) {
  for (size_t w = 0; w < words; ++w) {
    if ((a[w] & ~b[w]) != 0) return false;
  }
  return true;
}

/// The kernel's set formula, evaluated class by class from the cache's pair
/// bitsets alone: for the candidate at worklist position `position`, with
/// L its pair set, d counts toward the negative answer iff pairs(K_d) ⊆ L,
/// and toward the positive one iff L ⊆ pairs(K_d) or pairs(K_d) ∩ L ⊆ m
/// for some antichain member m.
InferenceEngine::LabelImpactPair NaiveSetFormula(
    const InferenceEngine& engine,
    const InferenceEngine::LookaheadCache& cache, size_t position) {
  const size_t words = cache.pair_words;
  const uint64_t* labeled = cache.pair_bits.data() + position * words;
  const size_t members = words == 0 ? 0 : cache.antichain_bits.size() / words;
  InferenceEngine::LabelImpactPair result;
  std::vector<uint64_t> shared(words);
  for (size_t d = 0; d < cache.worklist_size; ++d) {
    const uint64_t* bits = cache.pair_bits.data() + d * words;
    const size_t size =
        engine.tuple_class(engine.InformativeClasses()[d]).size();
    if (PairSubset(bits, labeled, words)) {
      ++result.negative.pruned_classes;
      result.negative.pruned_tuples += size;
    }
    bool positive = PairSubset(labeled, bits, words);
    for (size_t w = 0; w < words; ++w) shared[w] = bits[w] & labeled[w];
    for (size_t a = 0; a < members && !positive; ++a) {
      positive = PairSubset(shared.data(),
                            cache.antichain_bits.data() + a * words, words);
    }
    if (positive) {
      ++result.positive.pruned_classes;
      result.positive.pruned_tuples += size;
    }
  }
  return result;
}

/// Every objective's pick against the naive argmax over the same
/// `max_candidates` sample.
void ExpectPicksMatchNaive(const InferenceEngine& engine,
                           size_t max_candidates,
                           const std::string& context) {
  for (auto objective : AllObjectives()) {
    LookaheadStrategy lookahead(objective, 1.0, max_candidates);
    EXPECT_EQ(lookahead.PickClass(engine),
              NaiveLookaheadPick(engine, lookahead, max_candidates))
        << context;
  }
}

TEST(LookaheadKernelParityTest, KernelMatchesNaiveAcrossPairWordCounts) {
  size_t checked_with_antichain = 0;
  for (size_t attrs : {1u, 11u, 12u, 14u}) {
    const size_t pairs = attrs * (attrs - 1) / 2;
    for (uint64_t seed : {1u, 2u}) {
      InferenceEngine engine(MakeInstanceWithNulls(seed, attrs, 120));
      InferenceEngine::LookaheadCache cache;
      engine.PrepareLookahead(cache);
      EXPECT_EQ(cache.num_pairs, pairs) << "attrs=" << attrs;
      EXPECT_EQ(cache.pair_words, (pairs + 63) / 64) << "attrs=" << attrs;
      util::Rng rng(seed * 31 + attrs);
      while (!engine.IsDone()) {
        const std::string context = "attrs=" + std::to_string(attrs);
        ExpectKernelMatchesNaive(engine, context);
        if (!engine.state().negatives().empty()) {
          checked_with_antichain += engine.InformativeClasses().size();
        }
        ExpectPicksMatchNaive(engine, 256, context);
        // Two negatives for every positive, so forbidden zones accumulate.
        const size_t pick = rng.PickOne(engine.InformativeClasses());
        const Label label =
            rng.UniformInt(0, 2) == 0 ? Label::kPositive : Label::kNegative;
        ASSERT_TRUE(engine.SubmitClassLabel(pick, label).ok());
      }
    }
  }
  EXPECT_GT(checked_with_antichain, 0u)
      << "no candidate was checked against a non-empty antichain";
}

TEST(LookaheadKernelParityTest, KernelMatchesNaiveAcrossWorklistWidths) {
  // 7 attributes: 21 pairs in one pair word, and 876 non-top partitions to
  // draw classes from.
  for (size_t classes : {40u, 64u, 128u, 150u}) {
    InferenceEngine engine(MakeInstanceWithClasses(classes, 7, classes));
    ASSERT_EQ(engine.InformativeClasses().size(), classes);
    InferenceEngine::LookaheadCache cache;
    engine.PrepareLookahead(cache);
    EXPECT_EQ(cache.worklist_words, (classes + 63) / 64);
    size_t largest = 0;
    for (size_t c : engine.InformativeClasses()) {
      largest = std::max(largest, engine.tuple_class(c).size());
    }
    EXPECT_GE(largest, 16u) << "class sizes should span several bits";
    ExpectKernelMatchesNaive(engine, "W=" + std::to_string(classes));
    // Negative labels grow the antichain and shrink the worklist off the
    // word boundary.
    util::Rng rng(classes);
    for (int step = 0; step < 3 && !engine.IsDone(); ++step) {
      const size_t pick = rng.PickOne(engine.InformativeClasses());
      ASSERT_TRUE(engine.SubmitClassLabel(pick, Label::kNegative).ok());
      ASSERT_FALSE(engine.state().negatives().empty());
      if (engine.IsDone()) break;
      const std::string context =
          "W=" + std::to_string(classes) + " step=" + std::to_string(step);
      ExpectKernelMatchesNaive(engine, context);
      ExpectPicksMatchNaive(engine, 256, context);
    }
  }
}

TEST(LookaheadKernelParityTest, TwelveAttributesUnderManyForbiddenZones) {
  // 66 pairs: the second pair word holds 2 valid pairs and 62 bits the
  // kernel must never read a slice for. Negative answers, coarsest
  // knowledge first, never retire a forbidden zone (a later, no coarser
  // zone cannot lie strictly above an earlier one), so the antichain grows
  // by one per label.
  InferenceEngine engine(MakeInstanceWithNulls(6, 12, 200));
  size_t most_zones_checked = 0;
  while (!engine.IsDone() && engine.state().negatives().size() < 20) {
    const std::string context =
        "zones=" + std::to_string(engine.state().negatives().size());
    ExpectKernelMatchesNaive(engine, context);
    most_zones_checked = engine.state().negatives().size();
    const std::vector<size_t>& informative = engine.InformativeClasses();
    size_t pick = informative.front();
    for (size_t c : informative) {
      if (PairCount(engine.ClassKnowledge(c)) >
          PairCount(engine.ClassKnowledge(pick))) {
        pick = c;
      }
    }
    ASSERT_TRUE(engine.SubmitClassLabel(pick, Label::kNegative).ok());
  }
  EXPECT_GE(most_zones_checked, 16u);
  if (!engine.IsDone()) ExpectPicksMatchNaive(engine, 256, "zones=20");
}

TEST(LookaheadKernelParityTest, EmptyAndLargestKnowledgeMatchNaive) {
  // 12 attributes at the root, where θ_P is ⊤ and K_c = Part(c). The
  // all-distinct row has no co-block pair (L empty); it stays informative
  // only while the antichain is empty. Each "all but attribute a" row has
  // 55 of the 66 pairs, the largest L an informative class can have (all
  // 66 would be ⊤ = θ_P, forced positive): a = 0 leaves the unlabeled
  // pairs in the first pair word, a = 11 spreads them over both words,
  // the last valid bit included.
  constexpr size_t kAttrs = 12;
  std::vector<lat::Partition> partitions;
  std::vector<int> distinct(kAttrs);
  for (size_t i = 0; i < kAttrs; ++i) distinct[i] = static_cast<int>(i);
  partitions.push_back(lat::Partition::FromLabels(distinct));
  for (size_t a : {0u, 5u, 11u}) {
    std::vector<int> labels(kAttrs, 0);
    labels[a] = 1;
    partitions.push_back(lat::Partition::FromLabels(labels));
  }
  util::Rng rng(12);
  for (int k = 0; k < 40; ++k) {
    partitions.push_back(workload::RandomPartitionWithRank(
        kAttrs, static_cast<size_t>(rng.UniformInt(1, 10)), rng));
  }
  InferenceEngine engine(MakeInstanceFromPartitions(kAttrs, partitions, 2));
  const size_t empty = engine.class_of_tuple(0);
  ASSERT_EQ(engine.class_status(empty), ClassStatus::kInformative);
  ASSERT_EQ(PairCount(engine.ClassKnowledge(empty)), 0u);
  for (size_t row = 1; row <= 3; ++row) {
    const size_t largest = engine.class_of_tuple(2 * row);
    ASSERT_EQ(engine.class_status(largest), ClassStatus::kInformative);
    ASSERT_EQ(PairCount(engine.ClassKnowledge(largest)), 55u);
  }
  ExpectKernelMatchesNaive(engine, "root");
  ExpectPicksMatchNaive(engine, 256, "root");
  // Forbidden zones retire the empty-L class; the largest ones stay.
  for (int step = 0; step < 3 && !engine.IsDone(); ++step) {
    const size_t pick = engine.InformativeClasses().back();
    ASSERT_TRUE(engine.SubmitClassLabel(pick, Label::kNegative).ok());
    if (engine.IsDone()) break;
    ExpectKernelMatchesNaive(engine, "step=" + std::to_string(step));
  }
}

TEST(LookaheadKernelParityTest, EditedCacheMatchesSetFormula) {
  // States no engine reaches, built by editing a prepared cache: a zone
  // m ⊇ L would make the candidate forced negative, and an L of all P
  // pairs is ⊤ = θ_P, forced positive. The kernel must still follow its
  // set formula there: with L∖m empty, ⋃_{p∈L∖m} S_p is empty and the
  // dominated set is all ones.
  for (size_t attrs : {11u, 12u, 14u}) {
    InferenceEngine engine(MakeInstanceWithNulls(attrs, attrs, 150));
    for (int step = 0; step < 2 && !engine.IsDone(); ++step) {
      const size_t pick = engine.InformativeClasses().front();
      ASSERT_TRUE(engine.SubmitClassLabel(pick, Label::kNegative).ok());
    }
    ASSERT_FALSE(engine.IsDone());
    const std::vector<size_t>& informative = engine.InformativeClasses();
    InferenceEngine::LookaheadCache prepared;
    engine.PrepareLookahead(prepared);
    const size_t words = prepared.pair_words;
    for (size_t position = 0; position < informative.size(); ++position) {
      const size_t c = informative[position];
      const std::string context = "attrs=" + std::to_string(attrs) +
                                  " class=" + std::to_string(c);
      ExpectImpactsEqual(engine.SimulateLabelBoth(position, prepared),
                         NaiveSetFormula(engine, prepared, position),
                         context);
      // One more zone, equal to L: it contains L, so L∖m is empty.
      InferenceEngine::LookaheadCache superset = prepared;
      const uint64_t* labeled = prepared.pair_bits.data() + position * words;
      superset.antichain_bits.insert(superset.antichain_bits.end(), labeled,
                                     labeled + words);
      const InferenceEngine::LabelImpactPair both =
          engine.SimulateLabelBoth(position, superset);
      ExpectImpactsEqual(both, NaiveSetFormula(engine, superset, position),
                         context + " m=L");
      EXPECT_EQ(both.positive.pruned_classes, informative.size()) << context;
    }
    // The first candidate's L grown to every pair, its slice bits with it.
    InferenceEngine::LookaheadCache full = prepared;
    for (size_t p = 0; p < full.num_pairs; ++p) {
      full.pair_bits[p / 64] |= uint64_t{1} << (p % 64);
      full.pair_slices[p] |= 1;
    }
    ExpectImpactsEqual(engine.SimulateLabelBoth(0, full),
                       NaiveSetFormula(engine, full, 0),
                       "attrs=" + std::to_string(attrs) + " L=all");
  }
}

TEST(LookaheadKernelParityTest, SampledPickMatchesNaiveOverMoreThan256Classes) {
  InferenceEngine engine(MakeInstanceWithClasses(3, 7, 400));
  ASSERT_EQ(engine.InformativeClasses().size(), 400u);
  util::Rng rng(3);
  for (int step = 0; step < 3 && !engine.IsDone(); ++step) {
    const std::string context = "step=" + std::to_string(step);
    ExpectPicksMatchNaive(engine, 256, context);
    ExpectPicksMatchNaive(engine, 100, context);
    const size_t pick = rng.PickOne(engine.InformativeClasses());
    ASSERT_TRUE(engine.SubmitClassLabel(pick, Label::kNegative).ok());
  }
}

TEST(LookaheadKernelParityTest, PickClassCountsOneSimulationPerScoredCandidate) {
  const bool metrics_were_enabled = obs::MetricsEnabled();
  obs::SetMetricsEnabled(true);
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Instance();
  for (size_t classes : {150u, 400u}) {
    const InferenceEngine engine(MakeInstanceWithClasses(5, 7, classes));
    ASSERT_EQ(engine.InformativeClasses().size(), classes);
    LookaheadStrategy lookahead(LookaheadStrategy::Objective::kEntropy);
    const uint64_t simulations_before =
        registry.CounterValue(obs::kCounterEngineSimulateLabelBoth);
    const uint64_t skips_before =
        registry.CounterValue(obs::kCounterEngineCutoffSkips);
    lookahead.PickClass(engine);
    EXPECT_EQ(registry.CounterValue(obs::kCounterEngineSimulateLabelBoth) -
                  simulations_before,
              std::min<uint64_t>(classes, 256))
        << "classes=" << classes;
    EXPECT_EQ(registry.CounterValue(obs::kCounterEngineCutoffSkips),
              skips_before);
  }
  obs::SetMetricsEnabled(metrics_were_enabled);
}

TEST(LookaheadKernelParityTest, ClassLevelEquivalenceMatchesTupleScan) {
  size_t equivalent = 0;
  size_t non_equivalent = 0;
  for (size_t attrs : {3u, 6u, 12u}) {
    for (uint64_t seed : {4u, 5u}) {
      const InferenceEngine engine(MakeInstanceWithNulls(seed, attrs, 200));
      const rel::Schema& schema = engine.store().schema();
      util::Rng rng(seed * 17 + attrs);
      for (int round = 0; round < 40; ++round) {
        const JoinPredicate p1(
            schema, workload::RandomPartitionWithRank(
                        attrs, rng.UniformInt(0, 2), rng));
        // The closure of p1 over the instance — the meet of the value
        // partitions of every tuple it selects — selects exactly the same
        // tuples; an unrelated random predicate usually does not.
        lat::Partition closure = lat::Partition::Top(attrs);
        const util::DynamicBitset selected = p1.SelectedRows(engine.store());
        for (size_t t = 0; t < engine.num_tuples(); ++t) {
          if (selected.Test(t)) {
            closure =
                closure.Meet(engine.tuple_class(engine.class_of_tuple(t))
                                 .partition);
          }
        }
        const JoinPredicate random(
            schema, workload::RandomPartitionWithRank(
                        attrs, rng.UniformInt(0, 2), rng));
        for (const JoinPredicate& p2 : {JoinPredicate(schema, closure),
                                        random}) {
          const bool expected = InstanceEquivalent(engine.store(), p1, p2);
          EXPECT_EQ(engine.InstanceEquivalent(p1.partition(), p2.partition()),
                    expected)
              << p1.ToString() << " vs " << p2.ToString();
          EXPECT_EQ(engine.InstanceEquivalent(p2.partition(), p1.partition()),
                    expected);
          ++(expected ? equivalent : non_equivalent);
        }
      }
    }
  }
  EXPECT_GT(equivalent, 0u);
  EXPECT_GT(non_equivalent, 0u);
}

}  // namespace
}  // namespace jim::core
