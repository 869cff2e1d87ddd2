// The reference goal parser JoinPredicate::ParsePartition is pinned to: the
// multi-pass parse the library used before it. It normalizes the whole text
// ("∧" → '&', "≈" → '='), replaces every whitespace-delimited "and" (any
// case) by '&', splits on '&' and then on '=', strips each piece and
// resolves the names, collecting the pairs for Partition::FromPairs. Every
// step builds its own strings, which is what makes it easy to check by eye.

#ifndef JIM_TESTS_CORE_NAIVE_JOIN_PREDICATE_PARSE_H_
#define JIM_TESTS_CORE_NAIVE_JOIN_PREDICATE_PARSE_H_

#include <cctype>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "lattice/partition.h"
#include "relational/schema.h"
#include "util/status.h"
#include "util/string_util.h"

namespace jim::core {

inline util::StatusOr<lat::Partition> NaiveParseGoal(const rel::Schema& schema,
                                                     std::string_view text) {
  // Normalize the conjunction separators to '&'.
  std::string normalized;
  normalized.reserve(text.size());
  for (size_t i = 0; i < text.size();) {
    // "∧" is the UTF-8 sequence E2 88 A7.
    if (i + 2 < text.size() && static_cast<unsigned char>(text[i]) == 0xE2 &&
        static_cast<unsigned char>(text[i + 1]) == 0x88 &&
        static_cast<unsigned char>(text[i + 2]) == 0xA7) {
      normalized.push_back('&');
      i += 3;
      continue;
    }
    // "≈" is the UTF-8 sequence E2 89 88.
    if (i + 2 < text.size() && static_cast<unsigned char>(text[i]) == 0xE2 &&
        static_cast<unsigned char>(text[i + 1]) == 0x89 &&
        static_cast<unsigned char>(text[i + 2]) == 0x88) {
      normalized.push_back('=');
      i += 3;
      continue;
    }
    normalized.push_back(text[i]);
    ++i;
  }
  // Textual "AND" (any case, token-delimited) -> '&'.
  std::string lowered = util::ToLower(normalized);
  std::string collapsed;
  for (size_t i = 0; i < normalized.size();) {
    if (i + 3 <= normalized.size() && lowered.compare(i, 3, "and") == 0 &&
        (i == 0 ||
         std::isspace(static_cast<unsigned char>(normalized[i - 1]))) &&
        (i + 3 == normalized.size() ||
         std::isspace(static_cast<unsigned char>(normalized[i + 3])))) {
      collapsed.push_back('&');
      i += 3;
    } else {
      collapsed.push_back(normalized[i]);
      ++i;
    }
  }

  std::vector<std::pair<size_t, size_t>> pairs;
  for (const std::string& raw_conjunct : util::Split(collapsed, '&')) {
    const std::string_view conjunct = util::StripWhitespace(raw_conjunct);
    if (conjunct.empty()) continue;  // tolerate "a=b && && c=d" and "&&"
    const auto sides = util::Split(std::string(conjunct), '=');
    if (sides.size() != 2) {
      return util::InvalidArgumentError(
          "expected exactly one '=' in conjunct '" + std::string(conjunct) +
          "'");
    }
    const auto left = util::StripWhitespace(sides[0]);
    const auto right = util::StripWhitespace(sides[1]);
    const auto resolve = [&schema](std::string_view side)
        -> util::StatusOr<size_t> {
      auto index = schema.IndexOf(side);
      if (!index.ok()) {
        return util::InvalidArgumentError(
            "unknown attribute '" + std::string(side) +
            "' in join predicate (" + std::string(index.status().message()) +
            ")");
      }
      return index;
    };
    ASSIGN_OR_RETURN(size_t left_index, resolve(left));
    ASSIGN_OR_RETURN(size_t right_index, resolve(right));
    pairs.emplace_back(left_index, right_index);
  }
  return lat::Partition::FromPairs(schema.num_attributes(), pairs);
}

}  // namespace jim::core

#endif  // JIM_TESTS_CORE_NAIVE_JOIN_PREDICATE_PARSE_H_
