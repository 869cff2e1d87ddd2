#include "core/join_predicate.h"

#include <algorithm>
#include <cctype>

#include "util/logging.h"
#include "util/string_util.h"

namespace jim::core {

JoinPredicate::JoinPredicate(rel::Schema schema)
    : schema_(std::move(schema)),
      partition_(lat::Partition::Singletons(schema_.num_attributes())) {}

JoinPredicate::JoinPredicate(rel::Schema schema, lat::Partition partition)
    : schema_(std::move(schema)), partition_(std::move(partition)) {
  JIM_CHECK_EQ(schema_.num_attributes(), partition_.num_elements());
}

namespace {

bool IsSpace(char c) { return std::isspace(static_cast<unsigned char>(c)); }

/// True iff text[i..i+2] is the UTF-8 sequence E2 `second` `third`.
bool Utf8At(std::string_view text, size_t i, unsigned char second,
            unsigned char third) {
  return i + 2 < text.size() && static_cast<unsigned char>(text[i]) == 0xE2 &&
         static_cast<unsigned char>(text[i + 1]) == second &&
         static_cast<unsigned char>(text[i + 2]) == third;
}

/// Length of the conjunction separator at text[i], 0 if none: '&', "∧"
/// (E2 88 A7), or the word "and" in any case with whitespace or an end of
/// the text on both sides. ("&&" is two separators around an empty
/// conjunct.)
size_t SeparatorAt(std::string_view text, size_t i) {
  if (text[i] == '&') return 1;
  if (Utf8At(text, i, 0x88, 0xA7)) return 3;
  if (i + 3 <= text.size() && (text[i] | 0x20) == 'a' &&
      (text[i + 1] | 0x20) == 'n' && (text[i + 2] | 0x20) == 'd' &&
      (i == 0 || IsSpace(text[i - 1])) &&
      (i + 3 == text.size() || IsSpace(text[i + 3]))) {
    return 3;
  }
  return 0;
}

/// Length of the equality sign at text[i], 0 if none: '=' or "≈" (E2 89 88).
size_t EqualsAt(std::string_view text, size_t i) {
  if (text[i] == '=') return 1;
  return Utf8At(text, i, 0x89, 0x88) ? 3 : 0;
}

/// `conjunct` as error messages quote it: every "≈" spelled '='.
std::string QuotedConjunct(std::string_view conjunct) {
  std::string quoted;
  for (size_t i = 0; i < conjunct.size();) {
    const size_t equals = EqualsAt(conjunct, i);
    quoted.push_back(equals != 0 ? '=' : conjunct[i]);
    i += equals != 0 ? equals : 1;
  }
  return quoted;
}

/// An unknown attribute name is malformed *input text*, not a missing
/// resource: report kInvalidArgument like every other parse failure
/// (kNotFound is reserved for absent files/relations, and callers route on
/// that distinction).
util::StatusOr<size_t> ResolveAttribute(const rel::Schema& schema,
                                        std::string_view name) {
  auto index = schema.IndexOf(name);
  if (!index.ok()) {
    return util::InvalidArgumentError(
        "unknown attribute '" + std::string(name) + "' in join predicate (" +
        std::string(index.status().message()) + ")");
  }
  return index;
}

}  // namespace

util::StatusOr<lat::Partition> JoinPredicate::ParsePartition(
    const rel::Schema& schema, std::string_view text) {
  // One pass: each conjunct is resolved as soon as its separator (or the end
  // of the text) is reached, and its pair merged into `labels`, a canonical
  // restricted growth string from the start. Merging blocks a < b relabels
  // b as a and closes the gap above b, which keeps it canonical: block a
  // still opens before every block it did.
  std::vector<int> labels(schema.num_attributes());
  for (size_t i = 0; i < labels.size(); ++i) labels[i] = static_cast<int>(i);
  size_t start = 0;         // first byte of the current conjunct
  size_t equals_pos = 0;    // its first equality sign
  size_t equals_len = 0;
  size_t equals_count = 0;
  for (size_t pos = 0;;) {
    const size_t separator = pos < text.size() ? SeparatorAt(text, pos) : 0;
    if (pos < text.size() && separator == 0) {
      const size_t equals = EqualsAt(text, pos);
      if (equals != 0 && equals_count++ == 0) {
        equals_pos = pos;
        equals_len = equals;
      }
      pos += equals != 0 ? equals : 1;
      continue;
    }
    // The conjunct text[start, pos) ends here.
    const std::string_view conjunct =
        util::StripWhitespace(text.substr(start, pos - start));
    if (!conjunct.empty()) {  // tolerate "a=b && && c=d" and "&&"
      if (equals_count != 1) {
        return util::InvalidArgumentError(
            "expected exactly one '=' in conjunct '" +
            QuotedConjunct(conjunct) + "'");
      }
      const size_t left_begin =
          static_cast<size_t>(conjunct.data() - text.data());
      const size_t right_begin = equals_pos + equals_len;
      const size_t right_end = left_begin + conjunct.size();
      ASSIGN_OR_RETURN(
          size_t left,
          ResolveAttribute(schema, util::StripWhitespace(text.substr(
                                       left_begin, equals_pos - left_begin))));
      ASSIGN_OR_RETURN(
          size_t right,
          ResolveAttribute(schema, util::StripWhitespace(text.substr(
                                       right_begin, right_end - right_begin))));
      int keep = labels[left];
      int merge = labels[right];
      if (keep != merge) {
        if (keep > merge) std::swap(keep, merge);
        for (int& label : labels) {
          if (label == merge) {
            label = keep;
          } else if (label > merge) {
            --label;
          }
        }
      }
    }
    if (pos >= text.size()) break;
    pos += separator;
    start = pos;
    equals_count = 0;
  }
  return lat::Partition::FromLabels(labels);
}

util::StatusOr<JoinPredicate> JoinPredicate::Parse(const rel::Schema& schema,
                                                   std::string_view text) {
  ASSIGN_OR_RETURN(lat::Partition partition, ParsePartition(schema, text));
  return JoinPredicate(schema, std::move(partition));
}

bool JoinPredicate::Selects(const rel::Tuple& tuple) const {
  JIM_DCHECK(tuple.size() == partition_.num_elements());
  // Every generator equality must hold; generators suffice because value
  // equality is transitive.
  for (const auto& [i, j] : partition_.GeneratorPairs()) {
    if (!tuple[i].Equals(tuple[j])) return false;
  }
  return true;
}

namespace {

/// Code-level generator-pair check shared by SelectsCodes and the
/// SelectedRows(TupleStore) scan (which hoists the pair extraction out of
/// its per-tuple loop).
bool SelectsCodesWithPairs(
    const std::vector<std::pair<size_t, size_t>>& pairs,
    const uint32_t* codes) {
  for (const auto& [i, j] : pairs) {
    if (codes[i] == rel::kNullCode || codes[i] != codes[j]) return false;
  }
  return true;
}

}  // namespace

bool JoinPredicate::SelectsCodes(const uint32_t* codes) const {
  return SelectsCodesWithPairs(partition_.GeneratorPairs(), codes);
}

util::DynamicBitset JoinPredicate::SelectedRows(
    const rel::Relation& relation) const {
  JIM_CHECK_EQ(relation.num_attributes(), partition_.num_elements());
  util::DynamicBitset selected(relation.num_rows());
  for (size_t r = 0; r < relation.num_rows(); ++r) {
    if (Selects(relation.row(r))) selected.Set(r);
  }
  return selected;
}

util::DynamicBitset JoinPredicate::SelectedRows(const TupleStore& store) const {
  JIM_CHECK_EQ(store.num_attributes(), partition_.num_elements());
  const auto pairs = partition_.GeneratorPairs();
  std::vector<uint32_t> codes(store.num_attributes());
  util::DynamicBitset selected(store.num_tuples());
  for (size_t t = 0; t < store.num_tuples(); ++t) {
    store.TupleCodes(t, codes.data());
    if (SelectsCodesWithPairs(pairs, codes.data())) selected.Set(t);
  }
  return selected;
}

bool JoinPredicate::ContainedIn(const JoinPredicate& other) const {
  // *this demands at least other's equalities iff other's partition refines
  // ours... no: this ⊆ other (fewer results) iff this has MORE constraints,
  // i.e. other.partition_ ≤ this->partition_.
  return other.partition_.Refines(partition_);
}

std::string JoinPredicate::ToString() const {
  if (IsEmptyPredicate()) return "(empty predicate)";
  std::vector<std::string> parts;
  for (const auto& [i, j] : partition_.GeneratorPairs()) {
    parts.push_back(schema_.attribute(i).QualifiedName() + "\xE2\x89\x88" +
                    schema_.attribute(j).QualifiedName());
  }
  return util::Join(parts, " \xE2\x88\xA7 ");
}

std::string JoinPredicate::ToSqlWhere() const {
  if (IsEmptyPredicate()) return "TRUE";
  std::vector<std::string> parts;
  for (const auto& [i, j] : partition_.GeneratorPairs()) {
    parts.push_back(schema_.attribute(i).QualifiedName() + " = " +
                    schema_.attribute(j).QualifiedName());
  }
  return util::Join(parts, " AND ");
}

lat::Partition TuplePartition(const rel::Tuple& tuple) {
  const size_t n = tuple.size();
  std::vector<int> labels(n);
  // Group attributes by pairwise Equals. NULLs never group (Equals is false
  // for them), which is exactly SQL join semantics. Quadratic in n, which is
  // fine: n is the attribute count (small), not the tuple count.
  int next = 0;
  std::vector<bool> assigned(n, false);
  for (size_t i = 0; i < n; ++i) {
    if (assigned[i]) continue;
    labels[i] = next;
    assigned[i] = true;
    if (!tuple[i].is_null()) {
      for (size_t j = i + 1; j < n; ++j) {
        if (!assigned[j] && tuple[i].Equals(tuple[j])) {
          labels[j] = next;
          assigned[j] = true;
        }
      }
    }
    ++next;
  }
  return lat::Partition::FromLabels(labels);
}

bool InstanceEquivalent(const rel::Relation& relation, const JoinPredicate& p1,
                        const JoinPredicate& p2) {
  return p1.SelectedRows(relation) == p2.SelectedRows(relation);
}

bool InstanceEquivalent(const TupleStore& store, const JoinPredicate& p1,
                        const JoinPredicate& p2) {
  return p1.SelectedRows(store) == p2.SelectedRows(store);
}

}  // namespace jim::core
