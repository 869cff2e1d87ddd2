#include "lattice/pair_set.h"

#include <algorithm>
#include <vector>

namespace jim::lat {

namespace {

/// Bit `bit` of the pair set `bits`.
bool TestBit(const uint64_t* bits, size_t bit) {
  return ((bits[bit / 64] >> (bit % 64)) & 1) != 0;
}

/// The `count` ≤ 64 bits of `bits` starting at bit `offset`, as the low
/// bits of one word.
uint64_t ExtractBits(const uint64_t* bits, size_t offset, size_t count) {
  const size_t word = offset / 64;
  const size_t shift = offset % 64;
  uint64_t value = bits[word] >> shift;
  if (shift != 0 && shift + count > 64) value |= bits[word + 1] << (64 - shift);
  return count == 64 ? value : value & ((uint64_t{1} << count) - 1);
}

}  // namespace

void FillPairBits(const Partition& p, uint64_t* out) {
  const size_t n = p.num_elements();
  std::fill(out, out + PairWords(n), uint64_t{0});
  const std::vector<int>& block = p.labels();
  size_t bit = 0;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j, ++bit) {
      if (block[i] == block[j]) out[bit / 64] |= uint64_t{1} << (bit % 64);
    }
  }
}

Partition PartitionFromPairBits(size_t n, const uint64_t* bits) {
  // In a transitively closed pair set, the first i that claims j is the
  // least attribute of j's block, so one row-major pass labels every block.
  std::vector<int> labels(n, -1);
  int next = 0;
  size_t bit = 0;
  for (size_t i = 0; i < n; ++i) {
    if (labels[i] < 0) labels[i] = next++;
    for (size_t j = i + 1; j < n; ++j, ++bit) {
      if (labels[j] < 0 && TestBit(bits, bit)) labels[j] = labels[i];
    }
  }
  return Partition::FromLabels(labels);
}

size_t PairSetRank(size_t n, const uint64_t* bits) {
  if (n <= 64) {
    // Row i holds the pairs (i, j), j = i+1 .. n−1: shifted by i + 1 it marks
    // every j that is not the leader of its block.
    uint64_t non_leaders = 0;
    size_t offset = 0;
    for (size_t i = 0; i + 1 < n; ++i) {
      const size_t row = n - i - 1;
      non_leaders |= ExtractBits(bits, offset, row) << (i + 1);
      offset += row;
    }
    return static_cast<size_t>(__builtin_popcountll(non_leaders));
  }
  std::vector<bool> non_leader(n, false);
  size_t bit = 0;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j, ++bit) {
      if (TestBit(bits, bit)) non_leader[j] = true;
    }
  }
  return static_cast<size_t>(
      std::count(non_leader.begin(), non_leader.end(), true));
}

}  // namespace jim::lat
