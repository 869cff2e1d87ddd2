// Byte parity of WriteStore (flat code remap, CODES checksums folded into
// the encode loop) against the reference writer in naive_store_writer.h
// (hash-map remap, byte-serial Fnv1a64 per section): every file must be
// byte-identical. Covered: seeded stores with NULLs, doubles including NaN,
// strings and values shared across columns, at 1 to 14 attributes; zero
// tuples; factorized (dense and sampled) and mapped sources; a source whose
// codes are sparse and large. Also pins Fnv1a64Word to Fnv1a64, and the
// reader's fused checksum + code range pass to the section and cell it
// reports.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "core/tuple_store.h"
#include "naive_store_writer.h"
#include "query/universal_table.h"
#include "relational/relation.h"
#include "storage/format.h"
#include "storage/mapped_store.h"
#include "storage/store_writer.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "workload/travel.h"

namespace jim::storage {
namespace {

using rel::Value;

std::string TestPath(const std::string& name) {
  return ::testing::TempDir() + "store_writer_parity_" + name + ".jimc";
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

/// Writes `store` with WriteStore and expects the reference image's bytes.
void ExpectSameBytes(const core::TupleStore& store, const std::string& tag) {
  const std::string path = TestPath(tag);
  ASSERT_TRUE(WriteStore(store, path).ok()) << tag;
  const std::string written = ReadFile(path);
  const std::string expected = NaiveJimcImage(store, store.name());
  ASSERT_EQ(written.size(), expected.size()) << tag;
  EXPECT_TRUE(written == expected) << tag << ": bytes differ";
}

/// A relation over `attrs` columns whose cells mix every value shape:
/// integers, doubles (one in twelve NaN), strings, and NULLs, drawn from
/// one small pool so equal values recur within and across columns.
std::shared_ptr<const rel::Relation> MixedRelation(uint64_t seed,
                                                   size_t attrs,
                                                   size_t tuples) {
  util::Rng rng(seed);
  std::vector<std::string> names;
  for (size_t a = 0; a < attrs; ++a) names.push_back("c" + std::to_string(a));
  rel::Relation relation{"mixed_" + std::to_string(seed),
                         rel::Schema::FromNames(names)};
  for (size_t t = 0; t < tuples; ++t) {
    rel::Tuple row;
    for (size_t a = 0; a < attrs; ++a) {
      const int64_t v = rng.UniformInt(0, 5);
      switch (rng.UniformInt(0, 11)) {
        case 0:
          row.push_back(Value::Null());
          break;
        case 1:
          row.emplace_back(std::nan(""));
          break;
        case 2:
        case 3:
        case 4:
          row.emplace_back(static_cast<double>(v) + 0.5);
          break;
        case 5:
        case 6:
        case 7:
          row.emplace_back("s" + std::to_string(v));
          break;
        default:
          row.emplace_back(v);
          break;
      }
    }
    relation.AddRowUnchecked(std::move(row));
  }
  return std::make_shared<const rel::Relation>(std::move(relation));
}

TEST(StoreWriterParityTest, SeededStoresMatchReferenceBytes) {
  for (const size_t attrs : {1u, 2u, 6u, 12u, 14u}) {
    for (const uint64_t seed : {1u, 2u}) {
      const auto store =
          core::MakeRelationStore(MixedRelation(seed, attrs, 150));
      ExpectSameBytes(*store, util::StrFormat("seeded_%zu_%zu", attrs,
                                              size_t{seed}));
    }
  }
}

TEST(StoreWriterParityTest, ZeroTuplesMatchReferenceBytes) {
  for (const size_t attrs : {1u, 12u}) {
    const auto store =
        core::MakeRelationStore(MixedRelation(3, attrs, /*tuples=*/0));
    ExpectSameBytes(*store, util::StrFormat("empty_%zu", attrs));
  }
}

TEST(StoreWriterParityTest, FactorizedAndMappedSourcesMatchReferenceBytes) {
  util::Rng rng(7);
  const rel::Catalog catalog =
      workload::LargeTravelCatalog(/*num_flights=*/16, /*num_hotels=*/9,
                                   /*num_cities=*/4, /*num_airlines=*/3, rng);
  for (const size_t cap : {size_t{0}, size_t{100}}) {
    query::UniversalTableOptions options;
    options.sample_cap = cap;
    options.seed = 23;
    const auto table =
        query::UniversalTable::Build(catalog, {"Flights", "Hotels"}, options)
            .value();
    const std::string tag = "universal_" + std::to_string(cap);
    ExpectSameBytes(*table.store(), tag);
    // The mapped store reopened from that file is a source too.
    const auto mapped = OpenStore(TestPath(tag)).value();
    ExpectSameBytes(*mapped, tag + "_rewritten");
  }
}

/// A store whose codes are the base store's spread far apart: the flat
/// remap must grow to cover them.
class SparseCodeStore final : public core::TupleStore {
 public:
  explicit SparseCodeStore(std::shared_ptr<const core::TupleStore> base)
      : base_(std::move(base)) {}
  const std::string& name() const override { return base_->name(); }
  const rel::Schema& schema() const override { return base_->schema(); }
  size_t num_tuples() const override { return base_->num_tuples(); }
  uint32_t code(size_t t, size_t a) const override {
    const uint32_t c = base_->code(t, a);
    return c == rel::kNullCode ? c : 100000 - 97 * c;
  }
  rel::Value DecodeValue(size_t t, size_t a) const override {
    return base_->DecodeValue(t, a);
  }
  size_t ApproxBytes() const override { return base_->ApproxBytes(); }

 private:
  std::shared_ptr<const core::TupleStore> base_;
};

TEST(StoreWriterParityTest, SparseSourceCodesMatchReferenceBytes) {
  const SparseCodeStore store(
      core::MakeRelationStore(MixedRelation(4, 6, 200)));
  ExpectSameBytes(store, "sparse");
}

TEST(StoreWriterParityTest, Fnv1a64WordFoldsEqualByteSerialChecksum) {
  util::Rng rng(11);
  for (const size_t words : {0u, 1u, 7u, 1000u}) {
    std::vector<uint32_t> codes(words);
    for (uint32_t& code : codes) {
      code = static_cast<uint32_t>(rng.UniformInt(0, 0x7FFFFFFF)) * 2 + 1;
    }
    std::string bytes;
    uint64_t folded = kFnv1a64Basis;
    for (const uint32_t code : codes) {
      AppendU32(bytes, code);
      folded = Fnv1a64Word(folded, code);
    }
    EXPECT_EQ(folded, Fnv1a64(bytes.data(), bytes.size())) << words;
  }
}

TEST(StoreWriterParityTest, EverySectionChecksumIsFnv1a64OfItsBytes) {
  const auto store = core::MakeRelationStore(MixedRelation(5, 6, 120));
  const std::string path = TestPath("checksums");
  ASSERT_TRUE(WriteStore(*store, path).ok());
  const std::string image = ReadFile(path);
  ByteReader header(reinterpret_cast<const uint8_t*>(image.data()),
                    kHeaderBytes, "header");
  header.ReadU64().value();  // magic, version
  header.ReadU64().value();  // tuples
  header.ReadU32().value();  // attributes
  const uint32_t sections = header.ReadU32().value();
  ASSERT_EQ(sections, 2u + 2u * 6u);
  ByteReader table(reinterpret_cast<const uint8_t*>(image.data()) +
                       kHeaderBytes,
                   sections * kSectionEntryBytes, "table");
  for (uint32_t i = 0; i < sections; ++i) {
    const uint32_t id = table.ReadU32().value();
    const uint32_t column = table.ReadU32().value();
    const uint64_t offset = table.ReadU64().value();
    const uint64_t length = table.ReadU64().value();
    const uint64_t checksum = table.ReadU64().value();
    ASSERT_LE(offset + length, image.size());
    EXPECT_EQ(checksum, Fnv1a64(image.data() + offset,
                                static_cast<size_t>(length)))
        << "section id=" << id << " column=" << column;
  }
  // The reader's fused pass accepts exactly these checksums.
  EXPECT_TRUE(MappedTupleStore::Open(path).ok());
}

}  // namespace
}  // namespace jim::storage
