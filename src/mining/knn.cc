#include "mining/knn.h"

#include <algorithm>
#include <cmath>

#include "mining/encoded_dataset.h"

namespace dq {

Status KnnClassifier::Train(const TrainingData& data) {
  DQ_RETURN_NOT_OK(data.Check());
  if (config_.k < 1) return Status::InvalidArgument("k must be >= 1");
  table_ = &data.table();
  base_attrs_ = data.base_attrs;
  num_classes_ = data.encoder().num_classes();
  const Schema& schema = table_->schema();

  inv_width_.assign(schema.num_attributes(), 0.0);
  for (int attr : base_attrs_) {
    const AttributeDef& def = schema.attribute(static_cast<size_t>(attr));
    if (def.type == DataType::kNumeric) {
      const double w = def.numeric_max - def.numeric_min;
      inv_width_[static_cast<size_t>(attr)] = w > 0 ? 1.0 / w : 0.0;
    } else if (def.type == DataType::kDate) {
      const double w = static_cast<double>(def.date_max - def.date_min);
      inv_width_[static_cast<size_t>(attr)] = w > 0 ? 1.0 / w : 0.0;
    }
  }

  const int32_t* class_codes =
      data.encoded->class_codes(static_cast<size_t>(data.class_attr));
  std::vector<uint32_t> candidates;
  for (size_t r = 0; r < table_->num_rows(); ++r) {
    if (class_codes[r] >= 0) candidates.push_back(static_cast<uint32_t>(r));
  }
  if (candidates.empty()) {
    return Status::FailedPrecondition("no instances with non-null class");
  }
  train_rows_.clear();
  train_classes_.clear();
  if (candidates.size() <= config_.max_training_instances) {
    train_rows_ = std::move(candidates);
  } else {
    // Deterministic strided subsample.
    const double stride = static_cast<double>(candidates.size()) /
                          static_cast<double>(config_.max_training_instances);
    for (size_t i = 0; i < config_.max_training_instances; ++i) {
      train_rows_.push_back(
          candidates[static_cast<size_t>(static_cast<double>(i) * stride)]);
    }
  }
  train_classes_.reserve(train_rows_.size());
  for (uint32_t r : train_rows_) {
    train_classes_.push_back(class_codes[r]);
  }
  return Status::OK();
}

double KnnClassifier::Distance(const Row& probe, uint32_t train_row) const {
  // Training-side cells read straight from the typed columns; only the
  // probe goes through Value (it arrives as a materialized row).
  double d = 0.0;
  for (int attr : base_attrs_) {
    const size_t a = static_cast<size_t>(attr);
    const Value& va = probe[a];
    if (va.is_null() || table_->is_null(train_row, a)) {
      d += 1.0;
      continue;
    }
    if (va.is_nominal()) {
      d += va.nominal_code() == table_->code_at(train_row, a) ? 0.0 : 1.0;
    } else {
      const double diff =
          std::fabs(va.OrderedValue() - table_->ordered_at(train_row, a)) *
          inv_width_[a];
      d += std::min(diff, 1.0);
    }
  }
  return d;
}

Prediction KnnClassifier::Predict(const Row& row) const {
  Prediction out;
  out.distribution.assign(static_cast<size_t>(num_classes_), 0.0);
  if (train_rows_.empty()) return out;

  const size_t k = std::min(static_cast<size_t>(config_.k), train_rows_.size());
  // Partial selection of the k smallest distances.
  std::vector<std::pair<double, size_t>> dist;
  dist.reserve(train_rows_.size());
  for (size_t i = 0; i < train_rows_.size(); ++i) {
    dist.emplace_back(Distance(row, train_rows_[i]), i);
  }
  std::nth_element(dist.begin(), dist.begin() + static_cast<long>(k - 1),
                   dist.end());

  double total = 0.0;
  for (size_t i = 0; i < k; ++i) {
    const double w =
        config_.distance_weighted ? 1.0 / (1.0 + dist[i].first) : 1.0;
    out.distribution[static_cast<size_t>(train_classes_[dist[i].second])] += w;
    total += w;
  }
  if (total > 0.0) {
    for (double& p : out.distribution) p /= total;
  }
  out.support = static_cast<double>(k);
  return out;
}

}  // namespace dq
