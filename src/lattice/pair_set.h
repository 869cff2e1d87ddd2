#ifndef JIM_LATTICE_PAIR_SET_H_
#define JIM_LATTICE_PAIR_SET_H_

#include <cstddef>
#include <cstdint>

#include "lattice/partition.h"

namespace jim::lat {

/// Partitions of n attributes as attribute-pair sets: bit k of a pair set is
/// the k-th pair i < j in row-major upper-triangle order, set iff i and j
/// share a block. A partition is determined by its pair set (its equivalence
/// relation), and the lattice operations become word operations:
///   p ≤ q      ⇔  pairs(p) ⊆ pairs(q)
///   pairs(p ∧ q) = pairs(p) ∩ pairs(q)
///   p = q      ⇔  pairs(p) = pairs(q)
/// A pair set occupies PairWords(n) = ⌈P ÷ 64⌉ words for P = n(n−1)/2 pairs:
/// one word up to 11 attributes, none at all for n ≤ 1. The bits past P in
/// the last word are always clear.

/// P = n(n−1)/2, the number of attribute pairs.
inline size_t NumPairs(size_t n) { return n < 2 ? 0 : n * (n - 1) / 2; }

/// Words per pair set: ⌈NumPairs(n) ÷ 64⌉.
inline size_t PairWords(size_t n) { return (NumPairs(n) + 63) / 64; }

/// The bit of pair (i, j), i < j < n.
inline size_t PairIndex(size_t n, size_t i, size_t j) {
  return i * (2 * n - i - 1) / 2 + (j - i - 1);
}

/// Writes pairs(p) into `out` (PairWords(p.num_elements()) words).
void FillPairBits(const Partition& p, uint64_t* out);

/// The partition whose pair set is `bits`. `bits` must be transitively
/// closed (the pair set of some partition), as every meet of pair sets is.
/// O(P); for callers that want a Partition value, never on a hot path.
Partition PartitionFromPairBits(size_t n, const uint64_t* bits);

/// Rank of the partition whose pair set is `bits`: n − #blocks, where a
/// block's leader is its least attribute, the only one no pair (i, j) ends
/// at. O(P ÷ 64) word operations for n ≤ 64.
size_t PairSetRank(size_t n, const uint64_t* bits);

/// pairs(a) ⊆ pairs(b): a ≤ b.
inline bool PairSubset(const uint64_t* a, const uint64_t* b, size_t words) {
  for (size_t w = 0; w < words; ++w) {
    if ((a[w] & ~b[w]) != 0) return false;
  }
  return true;
}

/// pairs(a) = pairs(b): a = b.
inline bool PairEqual(const uint64_t* a, const uint64_t* b, size_t words) {
  for (size_t w = 0; w < words; ++w) {
    if (a[w] != b[w]) return false;
  }
  return true;
}

}  // namespace jim::lat

#endif  // JIM_LATTICE_PAIR_SET_H_
