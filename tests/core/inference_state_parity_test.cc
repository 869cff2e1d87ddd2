// Parity of the pair-set InferenceState with the naive partition-based
// reference (naive_inference_state.h): seeded random label sequences —
// honest ones, and flipped answers the state must reject — drive both
// states at 1, 2, 6, 11, 12 and 14 attributes (0, 1, 15, 55, 66 and 91
// attribute pairs: no pair word, one pair, one word, a nearly full word and
// two words). After every label the two must agree on:
//   - the verdict of the label, and an unchanged state after a rejection;
//   - θ_P, and the antichain as a set;
//   - Classify (and ClassifyPairs on pair sets) and IsConsistent of a pool
//     of partitions that holds every class partition of the session;
//   - CountConsistent, where the lattice is small enough to enumerate.
// And two states share a StateKey iff they share a CanonicalKey.

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/inference_state.h"
#include "lattice/pair_set.h"
#include "lattice/partition.h"
#include "naive_inference_state.h"
#include "util/check.h"
#include "util/rng.h"
#include "workload/synthetic.h"

namespace jim::core {
namespace {

// Like the other parity suites, run with the invariant auditor on.
const bool kAuditInvariantsOn = [] {
  ::jim::util::SetAuditInvariants(true);
  return true;
}();

/// A random partition of n attributes with labels drawn from `domain`
/// values: a small domain gives coarse partitions, a large one fine ones.
lat::Partition RandomPartition(size_t n, int64_t domain, util::Rng& rng) {
  std::vector<int> labels(n);
  for (int& label : labels) {
    label = static_cast<int>(rng.UniformInt(0, std::max<int64_t>(domain, 1)));
  }
  return lat::Partition::FromLabels(labels);
}

/// Expects `state` and `naive` to hold the same knowledge and to classify
/// every partition of `pool` alike.
void ExpectSameKnowledge(const InferenceState& state,
                         const NaiveInferenceState& naive,
                         const std::vector<lat::Partition>& pool,
                         const std::string& context) {
  state.CheckInvariants();
  ASSERT_EQ(state.theta_p(), naive.theta_p()) << context;
  ASSERT_EQ(state.num_negatives(), naive.negatives().size()) << context;
  ASSERT_EQ(state.negatives().ToString(), naive.negatives().ToString())
      << context;
  ASSERT_EQ(state.CanonicalKey(), naive.CanonicalKey()) << context;
  std::vector<uint64_t> pairs(state.pair_words());
  for (const lat::Partition& p : pool) {
    const TupleClassification expected = naive.Classify(p);
    EXPECT_EQ(state.Classify(p), expected) << context << " " << p.ToString();
    lat::FillPairBits(p, pairs.data());
    EXPECT_EQ(state.ClassifyPairs(pairs.data()), expected)
        << context << " " << p.ToString();
    EXPECT_EQ(state.IsConsistent(p), naive.IsConsistent(p))
        << context << " " << p.ToString();
  }
  if (state.num_attributes() <= 6) {
    EXPECT_EQ(state.CountConsistent(), naive.CountConsistent()) << context;
  }
}

TEST(InferenceStateParityTest, MatchesNaiveReferenceAcrossPairWordCounts) {
  size_t rejected = 0;
  size_t max_zones = 0;
  size_t positives = 0;
  for (size_t n : {1u, 2u, 6u, 11u, 12u, 14u}) {
    EXPECT_EQ(InferenceState(n).pair_words(), (lat::NumPairs(n) + 63) / 64);
    for (uint64_t seed = 1; seed <= 6; ++seed) {
      util::Rng rng(seed * 1000 + n);
      const lat::Partition goal = workload::RandomPartitionWithRank(
          n, std::min<size_t>(static_cast<size_t>(rng.UniformInt(0, 2)), n - 1),
          rng);
      // The session's class partitions: coarsenings of the goal (answered
      // positive) and random partitions (mostly negative), plus ⊤ and ⊥.
      std::vector<lat::Partition> pool = {lat::Partition::Top(n),
                                          lat::Partition::Singletons(n)};
      for (int k = 0; k < 40; ++k) {
        const lat::Partition random =
            RandomPartition(n, static_cast<int64_t>(n) / 2, rng);
        pool.push_back(rng.UniformInt(0, 3) == 0 ? goal.Join(random)
                                                 : random);
      }
      InferenceState state(n);
      NaiveInferenceState naive(n);
      const std::string session =
          "n=" + std::to_string(n) + " seed=" + std::to_string(seed);
      ExpectSameKnowledge(state, naive, pool, session + " start");
      for (int step = 0; step < 30; ++step) {
        const lat::Partition& part = rng.PickOne(pool);
        Label label =
            goal.Refines(part) ? Label::kPositive : Label::kNegative;
        // One answer in eight is flipped: a contradiction must be rejected
        // by both, and a flipped answer on an informative tuple accepted.
        if (rng.UniformInt(0, 7) == 0) {
          label = label == Label::kPositive ? Label::kNegative
                                            : Label::kPositive;
        }
        const std::string key_before = state.CanonicalKey();
        const util::Status expected = naive.ApplyLabel(part, label);
        const util::Status actual = state.ApplyLabel(part, label);
        const std::string context =
            session + " step=" + std::to_string(step) + " " +
            part.ToString() + (label == Label::kPositive ? " +" : " -");
        ASSERT_EQ(actual.code(), expected.code()) << context;
        if (!actual.ok()) {
          ++rejected;
          EXPECT_EQ(state.CanonicalKey(), key_before) << context;
        } else if (label == Label::kPositive) {
          ++positives;
        }
        ExpectSameKnowledge(state, naive, pool, context);
        max_zones = std::max(max_zones, state.num_negatives());
      }
    }
  }
  EXPECT_GT(rejected, 0u) << "no contradiction was exercised";
  EXPECT_GT(positives, 0u) << "no positive label was exercised";
  EXPECT_GE(max_zones, 3u) << "the antichain never grew";
}

TEST(InferenceStateParityTest, StateKeyEqualityMatchesCanonicalKeyEquality) {
  // Many sessions over few attributes and a small domain revisit the same
  // states by different label orders, so equal keys occur as well as
  // distinct ones, and equal antichains arrive in different member orders.
  for (size_t n : {1u, 2u, 4u, 12u}) {
    std::vector<InferenceState> states;
    util::Rng rng(n);
    const std::vector<lat::Partition> pool = [&] {
      std::vector<lat::Partition> parts;
      for (int k = 0; k < 8; ++k) parts.push_back(RandomPartition(n, 2, rng));
      return parts;
    }();
    for (int session = 0; session < 40; ++session) {
      InferenceState state(n);
      states.push_back(state);
      for (int step = 0; step < 4; ++step) {
        const Label label =
            rng.UniformInt(0, 2) == 0 ? Label::kPositive : Label::kNegative;
        if (state.ApplyLabel(rng.PickOne(pool), label).ok()) {
          states.push_back(state);
        }
      }
    }
    size_t equal = 0;
    size_t distinct = 0;
    for (size_t i = 0; i < states.size(); ++i) {
      const InferenceState::StateKey key_i = states[i].MakeStateKey();
      for (size_t j = i + 1; j < states.size(); ++j) {
        const bool same_canonical =
            states[i].CanonicalKey() == states[j].CanonicalKey();
        const InferenceState::StateKey key_j = states[j].MakeStateKey();
        ASSERT_EQ(key_i == key_j, same_canonical)
            << "n=" << n << " " << states[i].CanonicalKey() << " vs "
            << states[j].CanonicalKey();
        if (same_canonical) {
          EXPECT_EQ(InferenceState::StateKeyHash{}(key_i),
                    InferenceState::StateKeyHash{}(key_j));
        }
        ++(same_canonical ? equal : distinct);
      }
    }
    EXPECT_GT(equal, 0u) << "n=" << n;
    if (n > 1) {
      EXPECT_GT(distinct, 0u) << "n=" << n;
    }
  }
}

}  // namespace
}  // namespace jim::core
