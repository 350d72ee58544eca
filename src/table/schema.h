// Schema: attribute definitions with explicit domain ranges.
//
// The test data generator (sec. 4.1) requires "a schema for the target
// relation with domain ranges for each attribute": nominal attributes carry
// a closed category list, numeric and date attributes carry inclusive
// bounds. All attributes are nullable (TDG-formulae reason about isnull /
// isnotnull explicitly).

#ifndef DQ_TABLE_SCHEMA_H_
#define DQ_TABLE_SCHEMA_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "table/value.h"

namespace dq {

/// \brief Spelling -> code dictionary of a nominal attribute: a flat
/// open-addressing table keyed on a spelling's first 8 bytes and its
/// length, at most half full, so a lookup is one hash, one or two probes
/// and, for spellings longer than 8 bytes, one compare of the rest. A
/// small dictionary picks its hash seed and size (up to 8 slots per
/// category) so that no two categories share a home slot: every hit is
/// then found at the first probe.
class CategoryDictionary {
 public:
  CategoryDictionary() = default;
  /// `categories` must be distinct; category i gets code i.
  explicit CategoryDictionary(const std::vector<std::string>& categories);

  /// \brief Code of `spelling`, or -1 when it is not a category.
  int32_t Find(std::string_view spelling) const {
    uint64_t prefix = 0;
    if (!spelling.empty()) {
      std::memcpy(&prefix, spelling.data(),
                  std::min<size_t>(spelling.size(), 8));
    }
    return Lookup(prefix, spelling);
  }

  /// \brief Find for a spelling followed by at least 8 readable bytes (a
  /// field in the CSV reader's padded buffer): one unconditional load.
  int32_t FindPadded(std::string_view spelling) const {
    uint64_t prefix = 0;
    std::memcpy(&prefix, spelling.data(), 8);
    if (spelling.size() < 8) {
      // Keep the bytes of the spelling, in memory order, as Find does.
      const int bits = static_cast<int>(spelling.size()) * 8;
      prefix &= std::endian::native == std::endian::little
                    ? (uint64_t{1} << bits) - 1
                    : ~(~uint64_t{0} >> bits);
    }
    return Lookup(prefix, spelling);
  }

 private:
  struct Slot {
    uint64_t prefix = 0;  ///< first min(size, 8) bytes, zero-filled
    uint32_t size = 0;
    int32_t code = -1;  ///< -1: empty slot
  };

  size_t Home(uint64_t prefix, size_t size) const {
    const uint64_t h = (prefix ^ (size * 0x9E3779B97F4A7C15ULL) ^ seed_) *
                       0xBF58476D1CE4E5B9ULL;
    return static_cast<size_t>(h >> shift_);
  }

  /// Places every category at `slots` slots with hash seed `seed`; false
  /// (table left unusable) when `exclusive` and two categories share a
  /// home slot.
  bool Place(const std::vector<std::string>& categories, size_t slots,
             uint64_t seed, bool exclusive);

  int32_t Lookup(uint64_t prefix, std::string_view spelling) const {
    if (slots_.empty()) return -1;
    const size_t mask = slots_.size() - 1;
    for (size_t i = Home(prefix, spelling.size());; i = (i + 1) & mask) {
      const Slot& slot = slots_[i];
      if (slot.code < 0) return -1;
      if (slot.prefix == prefix && slot.size == spelling.size() &&
          (spelling.size() <= 8 ||
           std::memcmp(pool_.data() + offsets_[static_cast<size_t>(slot.code)] + 8,
                       spelling.data() + 8, spelling.size() - 8) == 0)) {
        return slot.code;
      }
    }
  }

  std::vector<Slot> slots_;  ///< power-of-two size
  int shift_ = 64;           ///< 64 - log2(slots_.size())
  uint64_t seed_ = 0;
  std::string pool_;         ///< every spelling, concatenated
  std::vector<uint32_t> offsets_;  ///< code -> offset in pool_
};

/// \brief One attribute of the target relation.
struct AttributeDef {
  std::string name;
  DataType type = DataType::kNominal;

  /// Nominal domain: category spellings; a cell stores an index into this.
  std::vector<std::string> categories;

  /// Spelling -> code lookup over `categories`, built by
  /// Schema::AddNominal; CategoryCode and the CSV decoder both read it.
  CategoryDictionary dictionary;

  /// Numeric domain: inclusive range.
  double numeric_min = 0.0;
  double numeric_max = 1.0;

  /// Date domain: inclusive day-count range.
  int32_t date_min = 0;
  int32_t date_max = 0;

  /// \brief Number of distinct domain values (numeric counts as unbounded;
  /// returns 0 for numeric).
  size_t DomainSize() const;

  /// \brief True if `v` is null or lies inside this attribute's domain.
  bool InDomain(const Value& v) const;
};

/// \brief Ordered list of attributes with name lookup.
class Schema {
 public:
  Schema() = default;

  /// \brief Appends a nominal attribute with the given category list.
  /// Fails on duplicate attribute names, empty/duplicate categories.
  Status AddNominal(const std::string& name,
                    std::vector<std::string> categories);

  /// \brief Appends a numeric attribute with inclusive range [min, max].
  Status AddNumeric(const std::string& name, double min, double max);

  /// \brief Appends a date attribute with inclusive range (day counts).
  Status AddDate(const std::string& name, int32_t min_days, int32_t max_days);

  size_t num_attributes() const { return attrs_.size(); }
  const AttributeDef& attribute(size_t i) const { return attrs_.at(i); }
  const std::vector<AttributeDef>& attributes() const { return attrs_; }

  /// \brief Index of the attribute named `name`.
  Result<int> IndexOf(const std::string& name) const;

  /// \brief Bytes held by the schema's string pool: attribute names and
  /// nominal category spellings (payload bytes plus the fixed per-entry
  /// std::string footprint — logical sizes, deterministic across
  /// allocators). Tables report this as part of their residency: nominal
  /// columns store dictionary codes whose spellings live here.
  size_t string_pool_bytes() const;

  /// \brief Category code of `category` within nominal attribute `attr`.
  Result<int32_t> CategoryCode(int attr, const std::string& category) const;

  /// \brief Renders a cell using this schema's category spellings; nulls
  /// render as `null_token`.
  std::string ValueToString(int attr, const Value& v,
                            const std::string& null_token = "?") const;

  /// \brief Parses a cell; `null_token` maps to Value::Null().
  Result<Value> ParseValue(int attr, const std::string& text,
                           const std::string& null_token = "?") const;

 private:
  Status CheckNewName(const std::string& name) const;

  std::vector<AttributeDef> attrs_;
  std::unordered_map<std::string, int> index_;
};

}  // namespace dq

#endif  // DQ_TABLE_SCHEMA_H_
