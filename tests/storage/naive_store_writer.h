// The reference JIMC image WriteStore is pinned to: the writer as it stood
// before the flat code remap and the fused checksums — shared codes
// assigned through a hash map in row-major first-occurrence order, every
// section checksummed byte by byte with Fnv1a64 once its payload is
// complete. Assembles the whole file image in memory, so a parity test can
// compare it with the bytes WriteStore left on disk.

#ifndef JIM_TESTS_STORAGE_NAIVE_STORE_WRITER_H_
#define JIM_TESTS_STORAGE_NAIVE_STORE_WRITER_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/tuple_store.h"
#include "relational/dictionary.h"
#include "storage/format.h"

namespace jim::storage {

inline std::string NaiveJimcImage(const core::TupleStore& store,
                                  const std::string& name) {
  const size_t rows = store.num_tuples();
  const size_t columns = store.num_attributes();
  std::unordered_map<uint32_t, uint32_t> shared_of_source;
  std::vector<uint32_t> entries(columns, 0);
  std::vector<std::string> pages(columns);
  std::vector<std::string> codes(columns);
  for (size_t t = 0; t < rows; ++t) {
    for (size_t a = 0; a < columns; ++a) {
      const uint32_t source = store.code(t, a);
      if (source == rel::kNullCode) {
        AppendU32(codes[a], rel::kNullCode);
        continue;
      }
      const auto [it, inserted] = shared_of_source.emplace(
          source, static_cast<uint32_t>(shared_of_source.size()));
      if (inserted) {
        AppendU32(pages[a], it->second);
        AppendValueRecord(pages[a], store.DecodeValue(t, a));
        ++entries[a];
      }
      AppendU32(codes[a], it->second);
    }
  }

  struct Section {
    SectionId id;
    uint32_t column;
    std::string payload;
  };
  std::vector<Section> sections;
  {
    std::string payload;
    AppendLengthPrefixed(payload, name);
    sections.push_back({SectionId::kName, kNoColumn, payload});
  }
  {
    std::string payload;
    AppendU32(payload, static_cast<uint32_t>(columns));
    for (const rel::Attribute& attribute : store.schema().attributes()) {
      AppendU8(payload, static_cast<uint8_t>(attribute.type));
      AppendLengthPrefixed(payload, attribute.name);
      AppendLengthPrefixed(payload, attribute.qualifier);
    }
    sections.push_back({SectionId::kSchema, kNoColumn, payload});
  }
  for (size_t a = 0; a < columns; ++a) {
    std::string page;
    AppendU32(page, entries[a]);
    page += pages[a];
    sections.push_back(
        {SectionId::kDictionary, static_cast<uint32_t>(a), page});
    sections.push_back(
        {SectionId::kCodes, static_cast<uint32_t>(a), codes[a]});
  }

  const auto align = [](size_t offset) {
    return (offset + kSectionAlignment - 1) & ~(kSectionAlignment - 1);
  };
  std::vector<size_t> offsets;
  size_t cursor = align(kHeaderBytes + sections.size() * kSectionEntryBytes);
  for (const Section& section : sections) {
    offsets.push_back(cursor);
    cursor = align(cursor + section.payload.size());
  }
  std::string image;
  AppendU32(image, kMagic);
  AppendU32(image, kFormatVersion);
  AppendU64(image, rows);
  AppendU32(image, static_cast<uint32_t>(columns));
  AppendU32(image, static_cast<uint32_t>(sections.size()));
  AppendU64(image, shared_of_source.size());
  AppendU64(image, cursor);
  AppendU64(image, 0);
  for (size_t i = 0; i < sections.size(); ++i) {
    AppendU32(image, static_cast<uint32_t>(sections[i].id));
    AppendU32(image, sections[i].column);
    AppendU64(image, offsets[i]);
    AppendU64(image, sections[i].payload.size());
    AppendU64(image, Fnv1a64(sections[i].payload.data(),
                             sections[i].payload.size()));
  }
  for (size_t i = 0; i < sections.size(); ++i) {
    image.resize(offsets[i], '\0');
    image += sections[i].payload;
  }
  image.resize(cursor, '\0');
  return image;
}

}  // namespace jim::storage

#endif  // JIM_TESTS_STORAGE_NAIVE_STORE_WRITER_H_
