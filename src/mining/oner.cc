#include "mining/oner.h"

#include <algorithm>
#include <cmath>

#include "mining/encoded_dataset.h"

namespace dq {

namespace {

double BucketError(const std::vector<std::vector<double>>& counts) {
  double errors = 0.0;
  for (const auto& bucket : counts) {
    double total = 0.0, best = 0.0;
    for (double c : bucket) {
      total += c;
      best = std::max(best, c);
    }
    errors += total - best;
  }
  return errors;
}

}  // namespace

Status OneRClassifier::Train(const TrainingData& data) {
  DQ_RETURN_NOT_OK(data.Check());
  num_classes_ = data.encoder().num_classes();
  const Table& table = data.table();
  const Schema& schema = table.schema();

  overall_counts_.assign(static_cast<size_t>(num_classes_), 0.0);
  overall_weight_ = 0.0;
  const int32_t* class_codes =
      data.encoded->class_codes(static_cast<size_t>(data.class_attr));
  for (size_t r = 0; r < table.num_rows(); ++r) {
    if (class_codes[r] >= 0) {
      overall_counts_[static_cast<size_t>(class_codes[r])] += 1.0;
      overall_weight_ += 1.0;
    }
  }
  if (overall_weight_ <= 0.0) {
    return Status::FailedPrecondition("no instances with non-null class");
  }

  double best_error = -1.0;
  for (int attr : data.base_attrs) {
    const AttributeDef& def = schema.attribute(static_cast<size_t>(attr));
    std::optional<EqualFrequencyDiscretizer> disc;
    size_t buckets;
    if (def.type == DataType::kNominal) {
      buckets = def.categories.size();
    } else {
      std::vector<double> sample;
      for (size_t r = 0; r < table.num_rows(); ++r) {
        if (class_codes[r] < 0) continue;
        const double x = table.ordered_at(r, static_cast<size_t>(attr));
        if (!std::isnan(x)) sample.push_back(x);
      }
      if (sample.empty()) continue;
      auto fitted =
          EqualFrequencyDiscretizer::Fit(std::move(sample), config_.numeric_bins);
      if (!fitted.ok()) continue;
      disc = std::move(*fitted);
      buckets = static_cast<size_t>(disc->num_bins());
    }

    // counts[bucket][class] with a trailing null bucket.
    std::vector<std::vector<double>> counts(
        buckets + 1, std::vector<double>(static_cast<size_t>(num_classes_), 0.0));
    for (size_t r = 0; r < table.num_rows(); ++r) {
      if (class_codes[r] < 0) continue;
      const size_t a = static_cast<size_t>(attr);
      size_t b;
      if (table.is_null(r, a)) {
        b = buckets;
      } else if (def.type == DataType::kNominal) {
        b = static_cast<size_t>(table.code_at(r, a));
      } else {
        b = static_cast<size_t>(disc->BinOf(table.ordered_at(r, a)));
      }
      counts[b][static_cast<size_t>(class_codes[r])] += 1.0;
    }

    const double error = BucketError(counts);
    if (best_error < 0.0 || error < best_error) {
      best_error = error;
      chosen_attr_ = attr;
      chosen_is_nominal_ = def.type == DataType::kNominal;
      chosen_disc_ = std::move(disc);
      bucket_counts_ = std::move(counts);
    }
  }
  if (chosen_attr_ < 0) {
    return Status::FailedPrecondition("no usable base attribute for OneR");
  }
  return Status::OK();
}

int OneRClassifier::BucketOf(const Value& v) const {
  if (v.is_null()) return static_cast<int>(bucket_counts_.size()) - 1;
  if (chosen_is_nominal_) return v.nominal_code();
  return chosen_disc_->BinOf(v.OrderedValue());
}

Prediction OneRClassifier::Predict(const Row& row) const {
  Prediction out;
  out.distribution.assign(static_cast<size_t>(num_classes_), 0.0);
  if (chosen_attr_ < 0) return out;

  const int bucket = BucketOf(row[static_cast<size_t>(chosen_attr_)]);
  const std::vector<double>* counts = nullptr;
  if (bucket >= 0 && static_cast<size_t>(bucket) < bucket_counts_.size()) {
    counts = &bucket_counts_[static_cast<size_t>(bucket)];
  }
  double total = 0.0;
  if (counts != nullptr) {
    for (double c : *counts) total += c;
  }
  if (counts == nullptr || total < config_.min_bucket_weight) {
    counts = &overall_counts_;
    total = overall_weight_;
  }
  if (total <= 0.0) return out;
  for (size_t c = 0; c < counts->size(); ++c) {
    out.distribution[c] = (*counts)[c] / total;
  }
  out.support = total;
  return out;
}

}  // namespace dq
