// Parity of the engine's one-pass class build (each tuple's pair set looked
// up in a flat open-addressing table, members by counting sort) against the
// RGS grouping it replaced (naive_class_table.h): class ids, partitions,
// members, the tuple → class map, pairs(Part(c)) and the initial K_c words
// and rank must all be equal. Covered:
//   - 1, 2, 6, 11, 12 and 14 attributes — no pair word, one word (partial
//     and full), and two words — with NULL cells;
//   - enough classes to grow the hash table several times;
//   - NaN cells (never equal, themselves included) and values of different
//     types that print alike;
//   - zero tuples;
//   - clones share the class pair-set table.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>

#include "core/engine.h"
#include "naive_class_table.h"
#include "relational/relation.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "workload/synthetic.h"

namespace jim::core {
namespace {

const bool kAuditInvariantsOn = [] {
  ::jim::util::SetAuditInvariants(true);
  return true;
}();

/// A synthetic instance over `attrs` attributes with values drawn from a
/// domain of `domain` and one cell in `null_every` replaced by NULL.
std::shared_ptr<const rel::Relation> MakeInstance(uint64_t seed, size_t attrs,
                                                  size_t tuples, size_t domain,
                                                  int64_t null_every) {
  util::Rng rng(seed);
  workload::SyntheticSpec spec;
  spec.num_attributes = attrs;
  spec.num_tuples = tuples;
  spec.domain_size = domain;
  spec.goal_constraints = attrs > 2 ? 2 : attrs - 1;
  const auto workload = workload::MakeSyntheticWorkload(spec, rng);
  auto relation = std::make_shared<rel::Relation>(
      workload.instance->name(), workload.instance->schema());
  for (rel::Tuple row : workload.instance->rows()) {
    for (rel::Value& cell : row) {
      if (rng.UniformInt(0, null_every - 1) == 0) cell = rel::Value::Null();
    }
    JIM_CHECK_OK(relation->AddRow(std::move(row)));
  }
  return relation;
}

TEST(ClassBuildParityTest, MatchesRgsGroupingAcrossPairWordCounts) {
  for (const size_t attrs : {1u, 2u, 6u, 11u, 12u, 14u}) {
    for (const uint64_t seed : {1u, 2u, 3u}) {
      const InferenceEngine engine(MakeInstance(seed, attrs, 300, 3, 8));
      ExpectClassTableMatchesNaive(
          engine, util::StrFormat("attrs=%zu seed=%zu", attrs, size_t{seed}));
    }
  }
}

TEST(ClassBuildParityTest, ManyClassesGrowTheTable) {
  // 8 attributes over a domain of 4 reach hundreds of classes, past several
  // doublings of the 64-slot starting table.
  const InferenceEngine engine(MakeInstance(5, 8, 3000, 4, 10));
  ASSERT_GT(engine.num_classes(), 256u);
  ExpectClassTableMatchesNaive(engine, "many classes");
}

TEST(ClassBuildParityTest, NanAndTypeCollisionsGroupLikeTheReference) {
  using rel::Value;
  rel::Relation relation{"mixed",
                         rel::Schema::FromNames({"a", "b", "c", "d"})};
  relation.AddRowUnchecked({Value(std::nan("")), Value(std::nan("")),
                            Value(1.0), Value(1.0)});
  relation.AddRowUnchecked(
      {Value(int64_t{1}), Value("1"), Value(1.0), Value(int64_t{1})});
  relation.AddRowUnchecked(
      {Value::Null(), Value::Null(), Value("x"), Value("x")});
  relation.AddRowUnchecked({Value(std::nan("")), Value(2.0), Value(2.0),
                            Value(std::nan(""))});
  relation.AddRowUnchecked(
      {Value("x"), Value("x"), Value("x"), Value("x")});
  const InferenceEngine engine(
      std::make_shared<const rel::Relation>(std::move(relation)));
  ExpectClassTableMatchesNaive(engine, "nan and types");
  // The first and third rows are one class: {c, d} the only shared block.
  EXPECT_EQ(engine.class_of_tuple(0), engine.class_of_tuple(2));
}

TEST(ClassBuildParityTest, ZeroTuplesBuildNoClasses) {
  const auto relation = std::make_shared<const rel::Relation>(
      "empty", rel::Schema::FromNames({"a", "b", "c"}));
  const InferenceEngine engine(relation);
  EXPECT_EQ(engine.num_classes(), 0u);
  EXPECT_TRUE(engine.IsDone());
  ExpectClassTableMatchesNaive(engine, "zero tuples");
}

TEST(ClassBuildParityTest, ClonesShareTheClassPairTable) {
  const InferenceEngine engine(MakeInstance(9, 6, 200, 3, 8));
  ASSERT_GT(engine.num_classes(), 0u);
  InferenceEngine clone(engine);
  ASSERT_TRUE(clone.SubmitClassLabel(clone.InformativeClasses().front(),
                                     Label::kPositive)
                  .ok());
  EXPECT_EQ(clone.ClassPairBits(0), engine.ClassPairBits(0));
}

}  // namespace
}  // namespace jim::core
