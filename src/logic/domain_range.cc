#include "logic/domain_range.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>

#include "common/strings.h"
#include "table/date.h"

namespace dq {

namespace {

double AxisOf(const Value& v) {
  assert(!v.is_null());
  return v.OrderedValue();
}

}  // namespace

DomainRange DomainRange::FullDomain(const AttributeDef& attr) {
  DomainRange r;
  r.type_ = attr.type;
  switch (attr.type) {
    case DataType::kNominal:
      r.allowed_.assign(attr.categories.size(), true);
      break;
    case DataType::kNumeric:
      r.lo_ = attr.numeric_min;
      r.hi_ = attr.numeric_max;
      break;
    case DataType::kDate:
      r.lo_ = static_cast<double>(attr.date_min);
      r.hi_ = static_cast<double>(attr.date_max);
      break;
  }
  return r;
}

void DomainRange::ForbidValues() {
  if (type_ == DataType::kNominal) {
    std::fill(allowed_.begin(), allowed_.end(), false);
  } else {
    values_forbidden_ = true;
  }
}

void DomainRange::NormalizeIntegerBounds() {
  if (!integer_axis()) return;
  if (lo_open_) {
    lo_ = std::floor(lo_) + 1.0;
    lo_open_ = false;
  } else {
    lo_ = std::ceil(lo_);
  }
  if (hi_open_) {
    hi_ = std::ceil(hi_) - 1.0;
    hi_open_ = false;
  } else {
    hi_ = std::floor(hi_);
  }
}

void DomainRange::RestrictEq(const Value& v) {
  if (type_ == DataType::kNominal) {
    const int32_t code = v.nominal_code();
    for (size_t i = 0; i < allowed_.size(); ++i) {
      if (static_cast<int32_t>(i) != code) allowed_[i] = false;
    }
    if (code < 0 || static_cast<size_t>(code) >= allowed_.size()) ForbidValues();
    return;
  }
  const double x = AxisOf(v);
  if (!Contains(v)) {
    values_forbidden_ = true;
    return;
  }
  lo_ = hi_ = x;
  lo_open_ = hi_open_ = false;
  excluded_.clear();
}

void DomainRange::RestrictNeq(const Value& v) {
  if (type_ == DataType::kNominal) {
    const int32_t code = v.nominal_code();
    if (code >= 0 && static_cast<size_t>(code) < allowed_.size()) {
      allowed_[static_cast<size_t>(code)] = false;
    }
    return;
  }
  excluded_.insert(AxisOf(v));
}

void DomainRange::RestrictLt(const Value& v) {
  assert(type_ != DataType::kNominal);
  const double x = AxisOf(v);
  if (x < hi_ || (x == hi_ && !hi_open_)) {
    hi_ = x;
    hi_open_ = true;
  }
  NormalizeIntegerBounds();
}

void DomainRange::RestrictGt(const Value& v) {
  assert(type_ != DataType::kNominal);
  const double x = AxisOf(v);
  if (x > lo_ || (x == lo_ && !lo_open_)) {
    lo_ = x;
    lo_open_ = true;
  }
  NormalizeIntegerBounds();
}

bool DomainRange::IntersectWith(const DomainRange& other) {
  bool changed = false;
  if (allow_null_ && !other.allow_null_) {
    allow_null_ = false;
    changed = true;
  }
  if (type_ == DataType::kNominal) {
    const size_t n = std::min(allowed_.size(), other.allowed_.size());
    for (size_t i = 0; i < n; ++i) {
      if (allowed_[i] && !other.allowed_[i]) {
        allowed_[i] = false;
        changed = true;
      }
    }
    return changed;
  }
  if (!values_forbidden_ && other.values_forbidden_) {
    values_forbidden_ = true;
    changed = true;
  }
  if (other.lo_ > lo_ || (other.lo_ == lo_ && other.lo_open_ && !lo_open_)) {
    lo_ = other.lo_;
    lo_open_ = other.lo_open_;
    changed = true;
  }
  if (other.hi_ < hi_ || (other.hi_ == hi_ && other.hi_open_ && !hi_open_)) {
    hi_ = other.hi_;
    hi_open_ = other.hi_open_;
    changed = true;
  }
  for (double x : other.excluded_) {
    if (excluded_.insert(x).second) changed = true;
  }
  NormalizeIntegerBounds();
  return changed;
}

bool DomainRange::LimitBelow(const DomainRange& other) {
  assert(type_ != DataType::kNominal);
  // this < other  =>  this strictly below other's upper end.
  double bound = other.hi_;
  bool open = true;
  if (bound < hi_ || (bound == hi_ && open && !hi_open_)) {
    hi_ = bound;
    hi_open_ = open;
    NormalizeIntegerBounds();
    return true;
  }
  return false;
}

bool DomainRange::LimitAbove(const DomainRange& other) {
  assert(type_ != DataType::kNominal);
  double bound = other.lo_;
  bool open = true;
  if (bound > lo_ || (bound == lo_ && open && !lo_open_)) {
    lo_ = bound;
    lo_open_ = open;
    NormalizeIntegerBounds();
    return true;
  }
  return false;
}

bool DomainRange::ContainsAxis(double x) const {
  if (values_forbidden_) return false;
  if (x < lo_ || (x == lo_ && lo_open_)) return false;
  if (x > hi_ || (x == hi_ && hi_open_)) return false;
  return excluded_.count(x) == 0;
}

bool DomainRange::Covers(const DomainRange& other) const {
  if (other.allow_null_ && !allow_null_) return false;
  if (other.ValuesEmpty()) return true;
  if (type_ == DataType::kNominal) {
    const size_t n = std::max(allowed_.size(), other.allowed_.size());
    for (size_t i = 0; i < n; ++i) {
      const bool theirs = i < other.allowed_.size() && other.allowed_[i];
      const bool ours = i < allowed_.size() && allowed_[i];
      if (theirs && !ours) return false;
    }
    return true;
  }
  if (values_forbidden_) return false;
  if (other.lo_ < lo_ || (other.lo_ == lo_ && lo_open_ && !other.lo_open_)) {
    return false;
  }
  if (other.hi_ > hi_ || (other.hi_ == hi_ && hi_open_ && !other.hi_open_)) {
    return false;
  }
  // Every point we exclude must be unreachable for `other` as well.
  for (double x : excluded_) {
    if (other.ContainsAxis(x)) return false;
  }
  return true;
}

bool DomainRange::JoinWith(const DomainRange& other) {
  allow_null_ = allow_null_ || other.allow_null_;
  if (type_ == DataType::kNominal) {
    const size_t n = std::max(allowed_.size(), other.allowed_.size());
    allowed_.resize(n, false);
    for (size_t i = 0; i < n && i < other.allowed_.size(); ++i) {
      if (other.allowed_[i]) allowed_[i] = true;
    }
    return false;  // finite set union is exact
  }
  if (other.ValuesEmpty()) return false;
  if (ValuesEmpty()) {
    const bool null_ok = allow_null_;
    *this = other;
    allow_null_ = null_ok;
    return false;
  }
  // A point stays excluded only when neither side admits it; points outside
  // the partner interval remain excluded exactly.
  std::set<double> merged;
  for (double x : excluded_) {
    if (!other.ContainsAxis(x)) merged.insert(x);
  }
  for (double x : other.excluded_) {
    if (!ContainsAxis(x)) merged.insert(x);
  }
  // Hull gap: the intervals are disjoint with room between them.
  bool gap = false;
  const DomainRange& low = lo_ <= other.lo_ ? *this : other;
  const DomainRange& high = lo_ <= other.lo_ ? other : *this;
  if (high.lo_ > low.hi_) {
    if (integer_axis()) {
      gap = high.lo_ > low.hi_ + 1.0;  // bounds are normalized closed ints
    } else {
      gap = true;  // a continuous gap always drops points
    }
  } else if (high.lo_ == low.hi_ && high.lo_open_ && low.hi_open_) {
    gap = !integer_axis();
  }
  if (other.lo_ < lo_ || (other.lo_ == lo_ && lo_open_ && !other.lo_open_)) {
    lo_ = other.lo_;
    lo_open_ = other.lo_open_;
  }
  if (other.hi_ > hi_ || (other.hi_ == hi_ && hi_open_ && !other.hi_open_)) {
    hi_ = other.hi_;
    hi_open_ = other.hi_open_;
  }
  excluded_ = std::move(merged);
  values_forbidden_ = false;
  return gap;
}

bool DomainRange::WidenAgainst(const DomainRange& previous,
                               const AttributeDef& attr) {
  if (type_ == DataType::kNominal) return false;
  if (ValuesEmpty() || previous.ValuesEmpty()) return false;
  bool widened = false;
  const double dom_lo = type_ == DataType::kDate
                            ? static_cast<double>(attr.date_min)
                            : attr.numeric_min;
  const double dom_hi = type_ == DataType::kDate
                            ? static_cast<double>(attr.date_max)
                            : attr.numeric_max;
  if (lo_ < previous.lo_ ||
      (lo_ == previous.lo_ && !lo_open_ && previous.lo_open_)) {
    if (lo_ > dom_lo || lo_open_) {
      lo_ = dom_lo;
      lo_open_ = false;
      widened = true;
    }
  }
  if (hi_ > previous.hi_ ||
      (hi_ == previous.hi_ && !hi_open_ && previous.hi_open_)) {
    if (hi_ < dom_hi || hi_open_) {
      hi_ = dom_hi;
      hi_open_ = false;
      widened = true;
    }
  }
  return widened;
}

bool DomainRange::ValuesEmpty() const {
  if (type_ == DataType::kNominal) {
    return std::none_of(allowed_.begin(), allowed_.end(),
                        [](bool b) { return b; });
  }
  if (values_forbidden_) return true;
  if (lo_ > hi_) return true;
  if (lo_ == hi_) {
    return lo_open_ || hi_open_ || excluded_.count(lo_) > 0;
  }
  if (integer_axis()) {
    // Bounds are normalized to closed integers here.
    const int64_t count = static_cast<int64_t>(hi_) - static_cast<int64_t>(lo_) + 1;
    if (count <= 0) return true;
    if (static_cast<int64_t>(excluded_.size()) >= count) {
      int64_t remaining = count;
      for (double x : excluded_) {
        if (x >= lo_ && x <= hi_ && x == std::floor(x)) --remaining;
      }
      return remaining <= 0;
    }
  }
  return false;
}

bool DomainRange::SingleValue(Value* out) const {
  if (type_ == DataType::kNominal) {
    int32_t found = -1;
    for (size_t i = 0; i < allowed_.size(); ++i) {
      if (allowed_[i]) {
        if (found >= 0) return false;
        found = static_cast<int32_t>(i);
      }
    }
    if (found < 0) return false;
    *out = Value::Nominal(found);
    return true;
  }
  if (values_forbidden_) return false;
  if (integer_axis()) {
    int32_t single = 0;
    int count = 0;
    for (int64_t x = static_cast<int64_t>(lo_); x <= static_cast<int64_t>(hi_);
         ++x) {
      if (excluded_.count(static_cast<double>(x)) == 0) {
        single = static_cast<int32_t>(x);
        if (++count > 1) return false;
      }
      // Bail out on wide ranges: more than one candidate is certain once
      // the span exceeds the excluded set.
      if (x - static_cast<int64_t>(lo_) >
          static_cast<int64_t>(excluded_.size()) + 1) {
        break;
      }
    }
    if (count != 1) return false;
    *out = Value::Date(single);
    return true;
  }
  if (lo_ == hi_ && !lo_open_ && !hi_open_ && excluded_.count(lo_) == 0) {
    *out = Value::Numeric(lo_);
    return true;
  }
  return false;
}

bool DomainRange::Contains(const Value& v) const {
  if (v.is_null()) return allow_null_;
  if (type_ == DataType::kNominal) {
    const int32_t code = v.nominal_code();
    return code >= 0 && static_cast<size_t>(code) < allowed_.size() &&
           allowed_[static_cast<size_t>(code)];
  }
  if (values_forbidden_) return false;
  const double x = AxisOf(v);
  if (x < lo_ || (x == lo_ && lo_open_)) return false;
  if (x > hi_ || (x == hi_ && hi_open_)) return false;
  return excluded_.count(x) == 0;
}

Value DomainRange::SampleValue(Rng* rng) const {
  assert(!ValuesEmpty());
  if (type_ == DataType::kNominal) {
    std::vector<int32_t> codes;
    for (size_t i = 0; i < allowed_.size(); ++i) {
      if (allowed_[i]) codes.push_back(static_cast<int32_t>(i));
    }
    return Value::Nominal(
        codes[static_cast<size_t>(rng->UniformInt(0, static_cast<int64_t>(codes.size()) - 1))]);
  }
  if (integer_axis()) {
    const int64_t lo = static_cast<int64_t>(lo_);
    const int64_t hi = static_cast<int64_t>(hi_);
    for (int attempt = 0; attempt < 64; ++attempt) {
      const int64_t x = rng->UniformInt(lo, hi);
      if (excluded_.count(static_cast<double>(x)) == 0) {
        return Value::Date(static_cast<int32_t>(x));
      }
    }
    for (int64_t x = lo; x <= hi; ++x) {  // dense exclusions: scan
      if (excluded_.count(static_cast<double>(x)) == 0) {
        return Value::Date(static_cast<int32_t>(x));
      }
    }
    return Value::Date(static_cast<int32_t>(lo));
  }
  // Continuous axis: nudge open endpoints inward, then rejection-sample
  // around the measure-zero excluded set.
  double lo = lo_;
  double hi = hi_;
  const double width = hi - lo;
  const double eps = std::max(width, 1.0) * 1e-9;
  if (lo_open_) lo += eps;
  if (hi_open_) hi -= eps;
  if (lo >= hi) return Value::Numeric(std::midpoint(lo_, hi_));
  for (int attempt = 0; attempt < 16; ++attempt) {
    const double x = rng->UniformReal(lo, hi);
    if (excluded_.count(x) == 0) return Value::Numeric(x);
  }
  return Value::Numeric(std::midpoint(lo, hi));
}

std::string DomainRange::ToString(const AttributeDef& attr) const {
  std::string out = attr.name + ": ";
  if (type_ == DataType::kNominal) {
    out += "{";
    bool first = true;
    for (size_t i = 0; i < allowed_.size(); ++i) {
      if (!allowed_[i]) continue;
      if (!first) out += ", ";
      out += attr.categories[i];
      first = false;
    }
    out += "}";
  } else if (values_forbidden_) {
    out += "{}";
  } else {
    out += lo_open_ ? "(" : "[";
    out += type_ == DataType::kDate ? FormatDate(static_cast<int32_t>(lo_))
                                    : FormatDouble(lo_);
    out += ", ";
    out += type_ == DataType::kDate ? FormatDate(static_cast<int32_t>(hi_))
                                    : FormatDouble(hi_);
    out += hi_open_ ? ")" : "]";
    if (!excluded_.empty()) {
      out += " minus " + std::to_string(excluded_.size()) + " points";
    }
  }
  out += allow_null_ ? " or null" : "";
  return out;
}

}  // namespace dq
