#include "table/schema.h"

#include <unordered_set>

#include "common/strings.h"
#include "table/date.h"

namespace dq {

CategoryDictionary::CategoryDictionary(
    const std::vector<std::string>& categories) {
  pool_.reserve(categories.size() * 8);
  offsets_.reserve(categories.size());
  for (const std::string& spelling : categories) {
    offsets_.push_back(static_cast<uint32_t>(pool_.size()));
    pool_ += spelling;
  }
  size_t slots = 2;
  while (slots < 2 * categories.size()) slots *= 2;
  constexpr size_t kMaxExclusiveSlots = 512;
  for (size_t wide = slots; wide <= std::min(8 * slots, kMaxExclusiveSlots);
       wide *= 2) {
    for (uint64_t seed = 0; seed < 16; ++seed) {
      if (Place(categories, wide, seed * 0xD6E8FEB86659FD93ULL, true)) return;
    }
  }
  Place(categories, slots, 0, false);
}

bool CategoryDictionary::Place(const std::vector<std::string>& categories,
                               size_t slots, uint64_t seed, bool exclusive) {
  slots_.assign(slots, Slot());
  shift_ = 64 - std::countr_zero(slots);
  seed_ = seed;
  for (size_t code = 0; code < categories.size(); ++code) {
    const std::string& spelling = categories[code];
    Slot slot;
    std::memcpy(&slot.prefix, spelling.data(),
                std::min<size_t>(spelling.size(), 8));
    slot.size = static_cast<uint32_t>(spelling.size());
    slot.code = static_cast<int32_t>(code);
    size_t i = Home(slot.prefix, spelling.size());
    if (exclusive && slots_[i].code >= 0) return false;
    while (slots_[i].code >= 0) i = (i + 1) & (slots - 1);
    slots_[i] = slot;
  }
  return true;
}

size_t AttributeDef::DomainSize() const {
  switch (type) {
    case DataType::kNominal:
      return categories.size();
    case DataType::kNumeric:
      return 0;
    case DataType::kDate:
      return date_max >= date_min
                 ? static_cast<size_t>(date_max - date_min) + 1
                 : 0;
  }
  return 0;
}

bool AttributeDef::InDomain(const Value& v) const {
  if (v.is_null()) return true;
  switch (type) {
    case DataType::kNominal:
      return v.is_nominal() && v.nominal_code() >= 0 &&
             static_cast<size_t>(v.nominal_code()) < categories.size();
    case DataType::kNumeric:
      return v.is_numeric() && v.numeric() >= numeric_min &&
             v.numeric() <= numeric_max;
    case DataType::kDate:
      return v.is_date() && v.date_days() >= date_min &&
             v.date_days() <= date_max;
  }
  return false;
}

Status Schema::CheckNewName(const std::string& name) const {
  if (name.empty()) {
    return Status::InvalidArgument("attribute name must be non-empty");
  }
  if (index_.count(name) > 0) {
    return Status::AlreadyExists("attribute '" + name + "' already defined");
  }
  return Status::OK();
}

Status Schema::AddNominal(const std::string& name,
                          std::vector<std::string> categories) {
  DQ_RETURN_NOT_OK(CheckNewName(name));
  if (categories.empty()) {
    return Status::InvalidArgument("nominal attribute '" + name +
                                   "' needs at least one category");
  }
  std::unordered_set<std::string> seen;
  for (const auto& c : categories) {
    if (c.empty()) {
      return Status::InvalidArgument("empty category in attribute '" + name + "'");
    }
    if (!seen.insert(c).second) {
      return Status::InvalidArgument("duplicate category '" + c +
                                     "' in attribute '" + name + "'");
    }
  }
  AttributeDef def;
  def.name = name;
  def.type = DataType::kNominal;
  def.categories = std::move(categories);
  def.dictionary = CategoryDictionary(def.categories);
  index_[name] = static_cast<int>(attrs_.size());
  attrs_.push_back(std::move(def));
  return Status::OK();
}

Status Schema::AddNumeric(const std::string& name, double min, double max) {
  DQ_RETURN_NOT_OK(CheckNewName(name));
  if (!(min <= max)) {
    return Status::InvalidArgument("numeric attribute '" + name +
                                   "' has empty range");
  }
  AttributeDef def;
  def.name = name;
  def.type = DataType::kNumeric;
  def.numeric_min = min;
  def.numeric_max = max;
  index_[name] = static_cast<int>(attrs_.size());
  attrs_.push_back(std::move(def));
  return Status::OK();
}

Status Schema::AddDate(const std::string& name, int32_t min_days,
                       int32_t max_days) {
  DQ_RETURN_NOT_OK(CheckNewName(name));
  if (min_days > max_days) {
    return Status::InvalidArgument("date attribute '" + name +
                                   "' has empty range");
  }
  AttributeDef def;
  def.name = name;
  def.type = DataType::kDate;
  def.date_min = min_days;
  def.date_max = max_days;
  index_[name] = static_cast<int>(attrs_.size());
  attrs_.push_back(std::move(def));
  return Status::OK();
}

Result<int> Schema::IndexOf(const std::string& name) const {
  auto it = index_.find(name);
  if (it == index_.end()) {
    return Status::NotFound("attribute '" + name + "' not in schema");
  }
  return it->second;
}

size_t Schema::string_pool_bytes() const {
  size_t bytes = 0;
  for (const AttributeDef& def : attrs_) {
    bytes += def.name.size() + sizeof(std::string);
    for (const std::string& category : def.categories) {
      bytes += category.size() + sizeof(std::string);
    }
  }
  return bytes;
}

Result<int32_t> Schema::CategoryCode(int attr, const std::string& category) const {
  if (attr < 0 || static_cast<size_t>(attr) >= attrs_.size()) {
    return Status::OutOfRange("attribute index " + std::to_string(attr));
  }
  const AttributeDef& def = attrs_[attr];
  if (def.type != DataType::kNominal) {
    return Status::InvalidArgument("attribute '" + def.name + "' is not nominal");
  }
  const int32_t code = def.dictionary.Find(category);
  if (code >= 0) return code;
  return Status::NotFound("category '" + category + "' not in attribute '" +
                          def.name + "'");
}

std::string Schema::ValueToString(int attr, const Value& v,
                                  const std::string& null_token) const {
  if (v.is_null()) return null_token;
  const AttributeDef& def = attrs_.at(attr);
  switch (def.type) {
    case DataType::kNominal:
      if (v.is_nominal() && v.nominal_code() >= 0 &&
          static_cast<size_t>(v.nominal_code()) < def.categories.size()) {
        return def.categories[v.nominal_code()];
      }
      return v.ToDebugString();
    case DataType::kNumeric:
      return FormatDouble(v.numeric());
    case DataType::kDate:
      return FormatDate(v.date_days());
  }
  return v.ToDebugString();
}

Result<Value> Schema::ParseValue(int attr, const std::string& text,
                                 const std::string& null_token) const {
  if (attr < 0 || static_cast<size_t>(attr) >= attrs_.size()) {
    return Status::OutOfRange("attribute index " + std::to_string(attr));
  }
  if (text == null_token) return Value::Null();
  const AttributeDef& def = attrs_[attr];
  switch (def.type) {
    case DataType::kNominal: {
      DQ_ASSIGN_OR_RETURN(int32_t code, CategoryCode(attr, text));
      return Value::Nominal(code);
    }
    case DataType::kNumeric: {
      double d = 0;
      if (!ParseDouble(text, &d)) {
        return Status::InvalidArgument("cannot parse numeric '" + text + "'");
      }
      return Value::Numeric(d);
    }
    case DataType::kDate: {
      DQ_ASSIGN_OR_RETURN(int32_t days, ParseDate(text));
      return Value::Date(days);
    }
  }
  return Status::Internal("unreachable attribute type");
}

}  // namespace dq
