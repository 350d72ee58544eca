#include "mining/class_encoder.h"

#include <cmath>

#include "table/date.h"

namespace dq {

Result<ClassEncoder> ClassEncoder::Fit(const Table& table, int class_attr,
                                       int max_bins) {
  const Schema& schema = table.schema();
  if (class_attr < 0 ||
      static_cast<size_t>(class_attr) >= schema.num_attributes()) {
    return Status::OutOfRange("class attribute index out of range");
  }
  const AttributeDef& def = schema.attribute(static_cast<size_t>(class_attr));
  if (def.type == DataType::kNominal) {
    return FromParts(schema, class_attr, std::nullopt);
  }

  // Typed column read: no per-cell Value materialization.
  std::vector<double> sample;
  sample.reserve(table.num_rows());
  const size_t attr = static_cast<size_t>(class_attr);
  for (size_t r = 0; r < table.num_rows(); ++r) {
    const double x = table.ordered_at(r, attr);
    if (!std::isnan(x)) sample.push_back(x);
  }
  if (sample.empty()) {
    return Status::FailedPrecondition("ordered class attribute '" + def.name +
                                      "' has no non-null values");
  }
  DQ_ASSIGN_OR_RETURN(EqualFrequencyDiscretizer disc,
                      EqualFrequencyDiscretizer::Fit(std::move(sample), max_bins));
  return FromParts(schema, class_attr, std::move(disc));
}

Result<ClassEncoder> ClassEncoder::FromParts(
    const Schema& schema, int class_attr,
    std::optional<EqualFrequencyDiscretizer> discretizer) {
  if (class_attr < 0 ||
      static_cast<size_t>(class_attr) >= schema.num_attributes()) {
    return Status::OutOfRange("class attribute index out of range");
  }
  const AttributeDef& def = schema.attribute(static_cast<size_t>(class_attr));
  ClassEncoder enc;
  enc.attr_ = class_attr;
  enc.type_ = def.type;
  if (def.type == DataType::kNominal) {
    if (discretizer.has_value()) {
      return Status::InvalidArgument(
          "nominal attribute '" + def.name + "' takes no discretizer");
    }
    enc.num_classes_ = static_cast<int>(def.categories.size());
    return enc;
  }
  if (!discretizer.has_value()) {
    return Status::InvalidArgument("ordered attribute '" + def.name +
                                   "' needs a discretizer");
  }
  enc.num_classes_ = discretizer->num_bins();
  enc.discretizer_ = std::move(discretizer);
  return enc;
}

int ClassEncoder::Encode(const Value& v) const {
  if (v.is_null()) return -1;
  if (type_ == DataType::kNominal) return v.nominal_code();
  return discretizer_->BinOf(v.OrderedValue());
}

Value ClassEncoder::Representative(int cls) const {
  if (type_ == DataType::kNominal) return Value::Nominal(cls);
  const double rep = discretizer_->Representative(cls);
  if (type_ == DataType::kDate) {
    return Value::Date(static_cast<int32_t>(std::llround(rep)));
  }
  return Value::Numeric(rep);
}

std::string ClassEncoder::Label(int cls, const Schema& schema) const {
  if (type_ == DataType::kNominal) {
    const auto& categories =
        schema.attribute(static_cast<size_t>(attr_)).categories;
    if (cls >= 0 && static_cast<size_t>(cls) < categories.size()) {
      return categories[static_cast<size_t>(cls)];
    }
    return "<invalid>";
  }
  return discretizer_->BinLabel(cls);
}

}  // namespace dq
