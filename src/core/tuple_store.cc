#include "core/tuple_store.h"

#include <cmath>
#include <unordered_map>
#include <unordered_set>

#include "exec/parallel.h"
#include "exec/thread_pool.h"
#include "util/logging.h"

namespace jim::core {

void TupleStore::TupleCodes(size_t t, uint32_t* out) const {
  const size_t n = num_attributes();
  for (size_t a = 0; a < n; ++a) out[a] = code(t, a);
}

rel::Tuple TupleStore::DecodeTuple(size_t t) const {
  const size_t n = num_attributes();
  rel::Tuple tuple;
  tuple.reserve(n);
  for (size_t a = 0; a < n; ++a) tuple.push_back(DecodeValue(t, a));
  return tuple;
}

RelationTupleStore::RelationTupleStore(
    std::shared_ptr<const rel::Relation> relation)
    : RelationTupleStore(relation,
                         relation != nullptr &&
                                 relation->num_rows() >=
                                     rel::kParallelIngestMinRows
                             ? &exec::SharedPool()
                             : nullptr) {}

RelationTupleStore::RelationTupleStore(
    std::shared_ptr<const rel::Relation> relation, exec::ThreadPool* pool) {
  JIM_CHECK(relation != nullptr);
  name_ = relation->name();
  schema_ = relation->schema();
  num_tuples_ = relation->num_rows();
  stride_ = relation->num_attributes();
  if (pool == nullptr || pool->threads() <= 1 ||
      num_tuples_ < rel::kParallelIngestMinRows) {
    codes_.reserve(num_tuples_ * stride_);
    for (size_t t = 0; t < num_tuples_; ++t) {
      const rel::Tuple& row = relation->row(t);
      for (size_t a = 0; a < stride_; ++a) {
        codes_.push_back(row[a].is_null() ? rel::kNullCode
                                          : dictionary_.GetOrAdd(row[a]));
      }
    }
    return;
  }
  // Parallel ingest over row chunks: chunk-local dictionaries first, then a
  // serial first-occurrence merge, then a parallel code rewrite. Chunk
  // boundaries fall on rows and both ParallelFors chunk identically (the
  // assignment depends only on (rows, threads)), so the shared dictionary's
  // code order — cell-major first occurrence, one fresh code per NaN
  // occurrence — is bitwise-identical to the serial path above.
  codes_.assign(num_tuples_ * stride_, 0);
  std::vector<rel::Dictionary> chunk_dictionaries(pool->threads());
  pool->ParallelFor(num_tuples_, [&](size_t t, size_t chunk) {
    const rel::Tuple& row = relation->row(t);
    uint32_t* cell = codes_.data() + t * stride_;
    for (size_t a = 0; a < stride_; ++a) {
      cell[a] = row[a].is_null()
                    ? rel::kNullCode
                    : chunk_dictionaries[chunk].GetOrAdd(row[a]);
    }
  });
  const std::vector<std::vector<uint32_t>> remaps =
      rel::MergeChunkDictionaries(chunk_dictionaries, dictionary_);
  pool->ParallelFor(num_tuples_, [&](size_t t, size_t chunk) {
    uint32_t* cell = codes_.data() + t * stride_;
    for (size_t a = 0; a < stride_; ++a) {
      if (cell[a] != rel::kNullCode) cell[a] = remaps[chunk][cell[a]];
    }
  });
}

void RelationTupleStore::TupleCodes(size_t t, uint32_t* out) const {
  const uint32_t* row = codes_.data() + t * stride_;
  for (size_t a = 0; a < stride_; ++a) out[a] = row[a];
}

size_t RelationTupleStore::ApproxBytes() const {
  return codes_.capacity() * sizeof(uint32_t) + dictionary_.ApproxBytes();
}

void CheckStoreInvariants(const TupleStore& store) {
  const size_t num_tuples = store.num_tuples();
  const size_t n = store.num_attributes();
  JIM_CHECK_EQ(store.schema().num_attributes(), n);
  // code ↔ value agreement, built up cell by cell (lookup-only maps; the
  // audit's verdict is order-independent).
  std::unordered_map<uint32_t, rel::Value> value_of_code;
  std::unordered_map<rel::Value, uint32_t, rel::ValueHash> code_of_value;
  std::unordered_set<uint32_t> nan_codes;
  std::vector<uint32_t> row(n);
  for (size_t t = 0; t < num_tuples; ++t) {
    store.TupleCodes(t, row.data());
    for (size_t a = 0; a < n; ++a) {
      const uint32_t code = store.code(t, a);
      JIM_CHECK_EQ(row[a], code)
          << "TupleCodes disagrees with code() at cell (" << t << ", " << a
          << ")";
      const rel::Value value = store.DecodeValue(t, a);
      // kNullCode discipline: the sentinel exactly marks NULL cells.
      JIM_CHECK_EQ(value.is_null(), code == rel::kNullCode)
          << "NULL/kNullCode mismatch at cell (" << t << ", " << a << ")";
      if (value.is_null()) continue;
      if (value.type() == rel::ValueType::kDouble &&
          std::isnan(value.AsDouble())) {
        // NaN ≠ NaN: every NaN cell must carry its own code, and that code
        // can never also serve a comparable value.
        JIM_CHECK(nan_codes.insert(code).second)
            << "NaN cells share code " << code << " at (" << t << ", " << a
            << ")";
        JIM_CHECK(value_of_code.find(code) == value_of_code.end())
            << "code " << code << " serves both NaN and a comparable value";
        continue;
      }
      JIM_CHECK(nan_codes.find(code) == nan_codes.end())
          << "code " << code << " serves both NaN and a comparable value";
      const auto [code_it, fresh_code] = value_of_code.emplace(code, value);
      JIM_CHECK(fresh_code || code_it->second.Equals(value))
          << "code " << code << " decodes to unequal values at cell (" << t
          << ", " << a << ")";
      const auto [value_it, fresh_value] = code_of_value.emplace(value, code);
      JIM_CHECK(fresh_value || value_it->second == code)
          << "value '" << value.ToString() << "' carries two codes at cell ("
          << t << ", " << a << ")";
    }
  }
}

std::shared_ptr<const TupleStore> MakeRelationStore(
    std::shared_ptr<const rel::Relation> relation) {
  return std::make_shared<const RelationTupleStore>(std::move(relation));
}

std::shared_ptr<const TupleStore> MakeRelationStore(
    std::shared_ptr<const rel::Relation> relation, exec::ThreadPool* pool) {
  return std::make_shared<const RelationTupleStore>(std::move(relation),
                                                    pool);
}

rel::Relation MaterializeStore(const TupleStore& store) {
  rel::Relation relation{store.name(), store.schema()};
  relation.Reserve(store.num_tuples());
  for (size_t t = 0; t < store.num_tuples(); ++t) {
    relation.AddRowUnchecked(store.DecodeTuple(t));
  }
  return relation;
}

}  // namespace jim::core
