// The reference class construction the engine's one-pass pair-set build is
// pinned to: the RGS grouping the engine used before it. Per tuple, the
// canonical restricted-growth labels of its codes (equal codes share a block
// in first-occurrence order, every NULL is a singleton), grouped by label
// vector in a hash map with class ids in first-occurrence tuple order.
// Reads only the store, so it is independent of everything the engine
// builds.

#ifndef JIM_TESTS_CORE_NAIVE_CLASS_TABLE_H_
#define JIM_TESTS_CORE_NAIVE_CLASS_TABLE_H_

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/tuple_store.h"
#include "lattice/pair_set.h"
#include "lattice/partition.h"
#include "relational/dictionary.h"

namespace jim::core {

struct NaiveClassTable {
  std::vector<lat::Partition> partitions;
  /// Members of each class, ascending.
  std::vector<std::vector<size_t>> members;
  std::vector<size_t> class_of_tuple;
};

/// RGS labels of one tuple's codes: attributes grouped by equal codes in
/// first-occurrence order, every NULL (kNullCode) its own singleton.
inline std::vector<int> NaiveCodesToRgs(const std::vector<uint32_t>& codes) {
  const size_t n = codes.size();
  std::vector<int> labels(n, -1);
  int next = 0;
  for (size_t i = 0; i < n; ++i) {
    if (labels[i] >= 0) continue;
    labels[i] = next;
    if (codes[i] != rel::kNullCode) {
      for (size_t j = i + 1; j < n; ++j) {
        if (labels[j] < 0 && codes[j] == codes[i]) labels[j] = next;
      }
    }
    ++next;
  }
  return labels;
}

inline NaiveClassTable BuildNaiveClassTable(const TupleStore& store) {
  NaiveClassTable table;
  std::map<std::vector<int>, size_t> ids;
  std::vector<uint32_t> codes(store.num_attributes());
  for (size_t t = 0; t < store.num_tuples(); ++t) {
    for (size_t a = 0; a < codes.size(); ++a) codes[a] = store.code(t, a);
    const std::vector<int> labels = NaiveCodesToRgs(codes);
    const auto [it, inserted] = ids.emplace(labels, table.partitions.size());
    if (inserted) {
      table.partitions.push_back(lat::Partition::FromLabels(labels));
      table.members.emplace_back();
    }
    table.members[it->second].push_back(t);
    table.class_of_tuple.push_back(it->second);
  }
  return table;
}

/// A freshly built engine's class table equals the reference: class ids,
/// partitions, members, the tuple → class map, pairs(Part(c)), and the
/// initial K_c = Part(c) words and rank.
inline void ExpectClassTableMatchesNaive(const InferenceEngine& engine,
                                         const std::string& context) {
  const NaiveClassTable reference = BuildNaiveClassTable(engine.store());
  const size_t words = lat::PairWords(engine.store().num_attributes());
  ASSERT_EQ(engine.num_classes(), reference.partitions.size()) << context;
  for (size_t c = 0; c < engine.num_classes(); ++c) {
    const lat::Partition& part = reference.partitions[c];
    EXPECT_EQ(engine.tuple_class(c).partition, part)
        << context << " class " << c;
    EXPECT_EQ(engine.tuple_class(c).tuple_indices, reference.members[c])
        << context << " class " << c;
    std::vector<uint64_t> pairs(words);
    lat::FillPairBits(part, pairs.data());
    EXPECT_EQ(std::vector<uint64_t>(engine.ClassPairBits(c),
                                    engine.ClassPairBits(c) + words),
              pairs)
        << context << " class " << c;
    EXPECT_EQ(std::vector<uint64_t>(engine.ClassKnowledgeBits(c),
                                    engine.ClassKnowledgeBits(c) + words),
              pairs)
        << context << " initial K_" << c;
    EXPECT_EQ(engine.ClassKnowledgeRank(c), part.Rank())
        << context << " initial rank of K_" << c;
  }
  for (size_t t = 0; t < engine.num_tuples(); ++t) {
    EXPECT_EQ(engine.class_of_tuple(t), reference.class_of_tuple[t])
        << context << " tuple " << t;
  }
}

}  // namespace jim::core

#endif  // JIM_TESTS_CORE_NAIVE_CLASS_TABLE_H_
