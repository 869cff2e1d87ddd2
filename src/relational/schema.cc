#include "relational/schema.h"

#include "util/string_util.h"

namespace jim::rel {

Schema Schema::FromNames(const std::vector<std::string>& names) {
  std::vector<Attribute> attributes;
  attributes.reserve(names.size());
  for (const std::string& name : names) {
    attributes.push_back(Attribute{name, ValueType::kString, ""});
  }
  return Schema(std::move(attributes));
}

namespace {

/// `name` == attribute.QualifiedName(), compared in place: the qualifier,
/// then '.', then the bare name (no string is built).
bool MatchesQualifiedName(const Attribute& attribute, std::string_view name) {
  const std::string_view qualifier = attribute.qualifier;
  if (qualifier.empty()) return name == attribute.name;
  return name.size() == qualifier.size() + 1 + attribute.name.size() &&
         name.substr(0, qualifier.size()) == qualifier &&
         name[qualifier.size()] == '.' &&
         name.substr(qualifier.size() + 1) == attribute.name;
}

}  // namespace

util::StatusOr<size_t> Schema::IndexOf(std::string_view name) const {
  size_t found = attributes_.size();
  size_t matches = 0;
  for (size_t i = 0; i < attributes_.size(); ++i) {
    if (attributes_[i].name == name ||
        MatchesQualifiedName(attributes_[i], name)) {
      found = i;
      ++matches;
    }
  }
  if (matches == 0) {
    return util::NotFoundError("no attribute named '" + std::string(name) + "'");
  }
  if (matches > 1) {
    return util::InvalidArgumentError("ambiguous attribute name '" +
                                      std::string(name) +
                                      "'; use the qualified form");
  }
  return found;
}

std::vector<std::string> Schema::Names() const {
  std::vector<std::string> names;
  names.reserve(attributes_.size());
  for (const Attribute& attribute : attributes_) {
    names.push_back(attribute.QualifiedName());
  }
  return names;
}

Schema Schema::Concat(const Schema& left, std::string_view left_qualifier,
                      const Schema& right, std::string_view right_qualifier) {
  std::vector<Attribute> attributes;
  attributes.reserve(left.num_attributes() + right.num_attributes());
  for (const Attribute& attribute : left.attributes()) {
    Attribute combined = attribute;
    if (!left_qualifier.empty()) combined.qualifier = std::string(left_qualifier);
    attributes.push_back(std::move(combined));
  }
  for (const Attribute& attribute : right.attributes()) {
    Attribute combined = attribute;
    if (!right_qualifier.empty()) combined.qualifier = std::string(right_qualifier);
    attributes.push_back(std::move(combined));
  }
  return Schema(std::move(attributes));
}

std::string Schema::ToString() const {
  std::vector<std::string> parts;
  parts.reserve(attributes_.size());
  for (const Attribute& attribute : attributes_) {
    parts.push_back(attribute.QualifiedName() + ":" +
                    std::string(ValueTypeToString(attribute.type)));
  }
  return "(" + util::Join(parts, ", ") + ")";
}

}  // namespace jim::rel
