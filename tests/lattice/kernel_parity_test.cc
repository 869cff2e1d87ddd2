// Randomized parity tests: the attribute-pair set kernels (lattice/pair_set.h)
// must compute exactly what the partition operations compute — meet as AND,
// refinement as subset, equality as word equality, rank and the round trip
// through a Partition — over seeded random partitions of varying sizes
// (including the degenerate ones: singletons, top, n = 0 and 1, and n > 64).

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "lattice/antichain.h"
#include "lattice/pair_set.h"
#include "lattice/partition.h"
#include "util/rng.h"
#include "util/check.h"

namespace jim::lat {
namespace {

// Parity suites run with the invariant auditor on (see util/check.h): every
// JIM_AUDIT checkpoint inside the engine re-derives its CheckInvariants
// contract while the parity assertions run, so a divergence is caught at
// the mutation that introduced it, not at the final transcript diff.
const bool kAuditInvariantsOn = [] {
  ::jim::util::SetAuditInvariants(true);
  return true;
}();

Partition RandomPartition(size_t n, util::Rng& rng) {
  // Labels drawn from a domain about half the size of n create a healthy mix
  // of merged and singleton blocks; small domains force coarse partitions.
  const int64_t domain = std::max<int64_t>(1, static_cast<int64_t>(n) / 2);
  std::vector<int> labels(n);
  for (size_t i = 0; i < n; ++i) {
    labels[i] = static_cast<int>(rng.UniformInt(0, domain));
  }
  return Partition::FromLabels(labels);
}

/// pairs(p) as a fresh vector of PairWords(n) words.
std::vector<uint64_t> Pairs(const Partition& p) {
  std::vector<uint64_t> bits(PairWords(p.num_elements()));
  FillPairBits(p, bits.data());
  return bits;
}

TEST(KernelParityTest, PairSetMeetMatchesMeet) {
  util::Rng rng(2024);
  for (size_t n : {1, 2, 3, 5, 8, 13, 21, 40}) {
    for (int trial = 0; trial < 200; ++trial) {
      const Partition a = RandomPartition(n, rng);
      const Partition b = RandomPartition(n, rng);
      const Partition reference = a.Meet(b);
      std::vector<uint64_t> meet = Pairs(a);
      const std::vector<uint64_t> right = Pairs(b);
      for (size_t w = 0; w < meet.size(); ++w) meet[w] &= right[w];
      EXPECT_EQ(meet, Pairs(reference))
          << a.ToString() << " ∧ " << b.ToString();
      EXPECT_EQ(PartitionFromPairBits(n, meet.data()), reference);
    }
  }
}

TEST(KernelParityTest, PairSetRoundTripsPartitionAndRank) {
  // Past 64 attributes the rank takes its per-pair path.
  util::Rng rng(77);
  for (size_t n : {0, 1, 4, 9, 11, 12, 17, 64, 65, 70}) {
    EXPECT_EQ(PairWords(n), (NumPairs(n) + 63) / 64);
    for (int trial = 0; trial < 100; ++trial) {
      const Partition a = trial == 0   ? Partition::Top(n)
                          : trial == 1 ? Partition::Singletons(n)
                                       : RandomPartition(n, rng);
      const std::vector<uint64_t> bits = Pairs(a);
      const Partition back = PartitionFromPairBits(n, bits.data());
      EXPECT_EQ(back, a) << a.ToString();
      EXPECT_EQ(back.Fingerprint(), a.Fingerprint());
      EXPECT_EQ(PairSetRank(n, bits.data()), a.Rank()) << a.ToString();
      // Every co-block pair lands on its closed-form index, and nothing
      // else is set (no bit past the last pair either).
      std::vector<uint64_t> expected(bits.size(), 0);
      for (const auto& [i, j] : a.Pairs()) {
        const size_t bit = PairIndex(n, i, j);
        expected[bit / 64] |= uint64_t{1} << (bit % 64);
      }
      EXPECT_EQ(bits, expected) << a.ToString();
    }
  }
}

TEST(KernelParityTest, PairSetSubsetMatchesRefines) {
  util::Rng rng(31337);
  for (size_t n : {1, 2, 4, 7, 12, 25}) {
    for (int trial = 0; trial < 300; ++trial) {
      const Partition a = RandomPartition(n, rng);
      // Mix genuinely comparable pairs in: a.Join(x) is coarser than a, and
      // a.Meet(x) finer, so all three relations (≤, ≥, incomparable) occur.
      const Partition x = RandomPartition(n, rng);
      for (const Partition& b : {x, a.Join(x), a.Meet(x), a}) {
        const std::vector<uint64_t> pa = Pairs(a);
        const std::vector<uint64_t> pb = Pairs(b);
        EXPECT_EQ(PairSubset(pa.data(), pb.data(), pa.size()), a.Refines(b))
            << a.ToString() << " vs " << b.ToString();
        EXPECT_EQ(PairSubset(pb.data(), pa.data(), pa.size()), b.Refines(a));
      }
    }
  }
}

TEST(KernelParityTest, PairSetEqualityMatchesMaterializedMeet) {
  // The forced-positive test θ_P ∧ Part(t) == θ_P, on pair sets: the meet
  // keeps every pair of θ_P iff θ_P ⊆ Part(t); and word equality is
  // partition equality.
  util::Rng rng(99);
  for (size_t n : {1, 3, 6, 11, 20}) {
    for (int trial = 0; trial < 300; ++trial) {
      const Partition a = RandomPartition(n, rng);
      const Partition x = RandomPartition(n, rng);
      for (const Partition& b : {x, a.Join(x), a}) {
        const std::vector<uint64_t> pa = Pairs(a);
        const std::vector<uint64_t> pb = Pairs(b);
        EXPECT_EQ(PairSubset(pa.data(), pb.data(), pa.size()),
                  a.Meet(b) == a)
            << a.ToString() << " vs " << b.ToString();
        EXPECT_EQ(PairEqual(pa.data(), pb.data(), pa.size()), a == b);
      }
    }
  }
}

TEST(KernelParityTest, FingerprintIsContentDetermined) {
  util::Rng rng(5);
  for (size_t n : {1, 4, 10, 30}) {
    for (int trial = 0; trial < 100; ++trial) {
      const Partition a = RandomPartition(n, rng);
      // Rebuilding from the same labels (differently encoded) must land on
      // the identical fingerprint: it is a function of the canonical RGS.
      std::vector<int> shifted(a.labels());
      for (int& v : shifted) v += 1000;
      const Partition b = Partition::FromLabels(shifted);
      ASSERT_EQ(a, b);
      EXPECT_EQ(a.Fingerprint(), b.Fingerprint());
      EXPECT_EQ(a.Hash(), static_cast<size_t>(a.Fingerprint()));
      // A copy carries the fingerprint along.
      const Partition c = a;
      EXPECT_EQ(c.Fingerprint(), a.Fingerprint());
    }
  }
}

TEST(KernelParityTest, PairSetDominationMatchesAntichain) {
  util::Rng rng(1234);
  const size_t n = 6;
  for (int trial = 0; trial < 100; ++trial) {
    Antichain chain;
    std::vector<Partition> inserted;
    for (int i = 0; i < 10; ++i) {
      const Partition p = RandomPartition(n, rng);
      chain.Insert(p);
      inserted.push_back(p);
    }
    for (int probe = 0; probe < 50; ++probe) {
      const Partition q = RandomPartition(n, rng);
      const std::vector<uint64_t> pq = Pairs(q);
      bool brute = false;
      bool by_members = false;
      for (const Partition& m : inserted) {
        if (q.Refines(m)) brute = true;
      }
      for (const Partition& m : chain.members()) {
        const std::vector<uint64_t> pm = Pairs(m);
        if (PairSubset(pq.data(), pm.data(), pq.size())) by_members = true;
      }
      EXPECT_EQ(chain.DominatedBy(q), brute) << q.ToString();
      EXPECT_EQ(by_members, brute) << q.ToString();
    }
  }
}

}  // namespace
}  // namespace jim::lat
