#include "core/tuple_store.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>

#include "core/join_predicate.h"
#include "exec/thread_pool.h"
#include "relational/relation.h"
#include "relational/schema.h"
#include "util/rng.h"
#include "workload/travel.h"

namespace jim::core {
namespace {

std::shared_ptr<const rel::Relation> MixedRelation() {
  using rel::Value;
  rel::Relation relation{"mixed", rel::Schema::FromNames({"a", "b", "c"})};
  relation.AddRowUnchecked({Value("x"), Value("x"), Value("y")});
  relation.AddRowUnchecked({Value::Null(), Value::Null(), Value("x")});
  relation.AddRowUnchecked(
      {Value(int64_t{1}), Value("1"), Value(int64_t{1})});
  return std::make_shared<const rel::Relation>(std::move(relation));
}

TEST(RelationTupleStoreTest, CodesCompareAcrossAttributes) {
  RelationTupleStore store(MixedRelation());
  // Row 0: a == b ("x"), both != c ("y").
  EXPECT_EQ(store.code(0, 0), store.code(0, 1));
  EXPECT_NE(store.code(0, 0), store.code(0, 2));
  // "x" in row 0 col 0 equals "x" in row 1 col 2 — across rows and columns.
  EXPECT_EQ(store.code(0, 0), store.code(1, 2));
  // Type-strict: 1 (int) != "1" (string).
  EXPECT_EQ(store.code(2, 0), store.code(2, 2));
  EXPECT_NE(store.code(2, 0), store.code(2, 1));
}

TEST(RelationTupleStoreTest, NullsGetTheSentinel) {
  RelationTupleStore store(MixedRelation());
  EXPECT_EQ(store.code(1, 0), rel::kNullCode);
  EXPECT_EQ(store.code(1, 1), rel::kNullCode);
  EXPECT_NE(store.code(1, 2), rel::kNullCode);
  EXPECT_TRUE(store.DecodeValue(1, 0).is_null());
}

TEST(RelationTupleStoreTest, BulkCodesMatchScalarCodes) {
  RelationTupleStore store(MixedRelation());
  std::vector<uint32_t> codes(store.num_attributes());
  for (size_t t = 0; t < store.num_tuples(); ++t) {
    store.TupleCodes(t, codes.data());
    for (size_t a = 0; a < store.num_attributes(); ++a) {
      EXPECT_EQ(codes[a], store.code(t, a)) << "t=" << t << " a=" << a;
    }
  }
}

TEST(RelationTupleStoreTest, DecodeTupleEqualsTheRow) {
  auto relation = MixedRelation();
  RelationTupleStore store(relation);
  for (size_t t = 0; t < store.num_tuples(); ++t) {
    const rel::Tuple decoded = store.DecodeTuple(t);
    ASSERT_EQ(decoded.size(), relation->row(t).size());
    for (size_t a = 0; a < decoded.size(); ++a) {
      EXPECT_EQ(rel::TupleRepresentationKey({decoded[a]}),
                rel::TupleRepresentationKey({relation->row(t)[a]}));
    }
  }
  EXPECT_EQ(store.schema().Names(), relation->schema().Names());
  EXPECT_EQ(store.name(), relation->name());
}

TEST(RelationTupleStoreTest, SelectsCodesMatchesValueSelects) {
  auto instance = workload::Figure1InstancePtr();
  RelationTupleStore store(instance);
  const auto q2 =
      JoinPredicate::Parse(instance->schema(), workload::kQ2).value();
  std::vector<uint32_t> codes(store.num_attributes());
  for (size_t t = 0; t < store.num_tuples(); ++t) {
    store.TupleCodes(t, codes.data());
    EXPECT_EQ(q2.SelectsCodes(codes.data()), q2.Selects(instance->row(t)))
        << "tuple " << t;
  }
  EXPECT_EQ(q2.SelectedRows(store), q2.SelectedRows(*instance));
  EXPECT_TRUE(InstanceEquivalent(store, q2, q2));
}

TEST(RelationTupleStoreTest, ApproxBytesTracksTheCodeMatrix) {
  auto relation = MixedRelation();
  RelationTupleStore store(relation);
  EXPECT_GE(store.ApproxBytes(),
            store.num_tuples() * store.num_attributes() * sizeof(uint32_t));
}

TEST(RelationTupleStoreTest, ParallelIngestIsBitwiseIdenticalToSerial) {
  // A relation wide and tall enough to cross the parallel-ingest threshold,
  // with cross-column duplicates, NULLs, and NaNs — the shared dictionary's
  // cell-major first-occurrence order must survive chunked encoding exactly.
  using rel::Value;
  rel::Relation relation{"big", rel::Schema::FromNames({"a", "b", "c"})};
  util::Rng rng(12);
  for (size_t r = 0; r < 3000; ++r) {
    rel::Tuple row;
    for (size_t c = 0; c < 3; ++c) {
      switch (rng.UniformInt(0, 4)) {
        case 0:
          row.emplace_back(rng.UniformInt(0, 40));
          break;
        case 1:
          row.emplace_back("v" + std::to_string(rng.UniformInt(0, 25)));
          break;
        case 2:
          row.push_back(Value::Null());
          break;
        case 3:
          row.emplace_back(std::nan(""));
          break;
        default:
          row.emplace_back(static_cast<double>(rng.UniformInt(0, 9)));
          break;
      }
    }
    relation.AddRowUnchecked(std::move(row));
  }
  const auto shared =
      std::make_shared<const rel::Relation>(std::move(relation));
  const RelationTupleStore serial(shared, /*pool=*/nullptr);
  for (const size_t threads : {2u, 8u}) {
    exec::ThreadPool pool(threads);
    const RelationTupleStore parallel(shared, &pool);
    ASSERT_EQ(parallel.num_distinct_values(), serial.num_distinct_values())
        << threads << " threads";
    for (size_t t = 0; t < serial.num_tuples(); ++t) {
      for (size_t a = 0; a < serial.num_attributes(); ++a) {
        ASSERT_EQ(parallel.code(t, a), serial.code(t, a))
            << "cell (" << t << ", " << a << ") at " << threads
            << " threads";
      }
    }
  }
}

TEST(TupleStoreTest, MaterializeStoreDecodesEveryTuple) {
  const auto store = workload::Figure1StorePtr();
  const rel::Relation relation = MaterializeStore(*store);
  EXPECT_EQ(relation.name(), store->name());
  ASSERT_EQ(relation.num_rows(), store->num_tuples());
  for (size_t t = 0; t < relation.num_rows(); ++t) {
    const rel::Tuple decoded = store->DecodeTuple(t);
    EXPECT_EQ(rel::TupleRepresentationKey(relation.row(t)),
              rel::TupleRepresentationKey(decoded));
  }
}

}  // namespace
}  // namespace jim::core
