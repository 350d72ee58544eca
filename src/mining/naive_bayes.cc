#include "mining/naive_bayes.h"

#include <cmath>

#include "mining/encoded_dataset.h"

namespace dq {

Status NaiveBayesClassifier::Train(const TrainingData& data) {
  DQ_RETURN_NOT_OK(data.Check());
  const Table& table = data.table();
  base_attrs_ = data.base_attrs;
  num_classes_ = data.encoder().num_classes();
  const Schema& schema = table.schema();

  priors_.assign(static_cast<size_t>(num_classes_), 0.0);
  total_weight_ = 0.0;
  nominal_.assign(schema.num_attributes(), {});
  gaussian_.assign(schema.num_attributes(), {});
  attr_is_nominal_.assign(schema.num_attributes(), false);

  // First pass: priors, nominal counts, Gaussian sums.
  struct Sums {
    std::vector<double> sum, sum_sq, count;
  };
  std::vector<Sums> sums(schema.num_attributes());
  for (int attr : base_attrs_) {
    const AttributeDef& def = schema.attribute(static_cast<size_t>(attr));
    if (def.type == DataType::kNominal) {
      attr_is_nominal_[static_cast<size_t>(attr)] = true;
      nominal_[static_cast<size_t>(attr)].counts.assign(
          static_cast<size_t>(num_classes_),
          std::vector<double>(def.categories.size(), 0.0));
      nominal_[static_cast<size_t>(attr)].class_totals.assign(
          static_cast<size_t>(num_classes_), 0.0);
    } else {
      sums[static_cast<size_t>(attr)].sum.assign(
          static_cast<size_t>(num_classes_), 0.0);
      sums[static_cast<size_t>(attr)].sum_sq.assign(
          static_cast<size_t>(num_classes_), 0.0);
      sums[static_cast<size_t>(attr)].count.assign(
          static_cast<size_t>(num_classes_), 0.0);
    }
  }

  const int32_t* class_codes =
      data.encoded->class_codes(static_cast<size_t>(data.class_attr));
  for (size_t r = 0; r < table.num_rows(); ++r) {
    const int cls = class_codes[r];
    if (cls < 0) continue;
    priors_[static_cast<size_t>(cls)] += 1.0;
    total_weight_ += 1.0;
    for (int attr : base_attrs_) {
      const size_t a = static_cast<size_t>(attr);
      if (table.is_null(r, a)) continue;
      if (attr_is_nominal_[a]) {
        NominalModel& m = nominal_[a];
        m.counts[static_cast<size_t>(cls)]
                [static_cast<size_t>(table.code_at(r, a))] += 1.0;
        m.class_totals[static_cast<size_t>(cls)] += 1.0;
      } else {
        Sums& s = sums[a];
        const double x = table.ordered_at(r, a);
        s.sum[static_cast<size_t>(cls)] += x;
        s.sum_sq[static_cast<size_t>(cls)] += x * x;
        s.count[static_cast<size_t>(cls)] += 1.0;
      }
    }
  }
  if (total_weight_ <= 0.0) {
    return Status::FailedPrecondition("no instances with non-null class");
  }

  // Finalize Gaussians with a variance floor.
  for (int attr : base_attrs_) {
    if (attr_is_nominal_[static_cast<size_t>(attr)]) continue;
    const AttributeDef& def = schema.attribute(static_cast<size_t>(attr));
    const double width = def.type == DataType::kNumeric
                             ? def.numeric_max - def.numeric_min
                             : static_cast<double>(def.date_max - def.date_min);
    const double floor_sd =
        std::max(config_.min_stddev_fraction * std::max(width, 1e-9), 1e-9);
    GaussianModel& g = gaussian_[static_cast<size_t>(attr)];
    const Sums& s = sums[static_cast<size_t>(attr)];
    g.mean.assign(static_cast<size_t>(num_classes_), 0.0);
    g.stddev.assign(static_cast<size_t>(num_classes_), floor_sd);
    g.count = s.count;
    for (int c = 0; c < num_classes_; ++c) {
      const double n = s.count[static_cast<size_t>(c)];
      if (n < 1.0) continue;
      const double mean = s.sum[static_cast<size_t>(c)] / n;
      g.mean[static_cast<size_t>(c)] = mean;
      if (n >= 2.0) {
        const double var =
            std::max((s.sum_sq[static_cast<size_t>(c)] - n * mean * mean) /
                         (n - 1.0),
                     0.0);
        g.stddev[static_cast<size_t>(c)] =
            std::max(std::sqrt(var), floor_sd);
      }
    }
  }
  return Status::OK();
}

Prediction NaiveBayesClassifier::Predict(const Row& row) const {
  Prediction out;
  out.distribution.assign(static_cast<size_t>(num_classes_), 0.0);
  if (total_weight_ <= 0.0) return out;

  std::vector<double> log_post(static_cast<size_t>(num_classes_), 0.0);
  for (int c = 0; c < num_classes_; ++c) {
    // Laplace-smoothed prior.
    log_post[static_cast<size_t>(c)] =
        std::log((priors_[static_cast<size_t>(c)] + config_.laplace) /
                 (total_weight_ + config_.laplace * num_classes_));
  }
  for (int attr : base_attrs_) {
    const Value& v = row[static_cast<size_t>(attr)];
    if (v.is_null()) continue;
    if (attr_is_nominal_[static_cast<size_t>(attr)]) {
      const NominalModel& m = nominal_[static_cast<size_t>(attr)];
      const size_t cat = static_cast<size_t>(v.nominal_code());
      const size_t k = m.counts.empty() ? 0 : m.counts[0].size();
      if (cat >= k) continue;
      for (int c = 0; c < num_classes_; ++c) {
        const double p =
            (m.counts[static_cast<size_t>(c)][cat] + config_.laplace) /
            (m.class_totals[static_cast<size_t>(c)] +
             config_.laplace * static_cast<double>(k));
        log_post[static_cast<size_t>(c)] += std::log(p);
      }
    } else {
      const GaussianModel& g = gaussian_[static_cast<size_t>(attr)];
      const double x = v.OrderedValue();
      for (int c = 0; c < num_classes_; ++c) {
        const double sd = g.stddev[static_cast<size_t>(c)];
        const double mu = g.mean[static_cast<size_t>(c)];
        const double z = (x - mu) / sd;
        log_post[static_cast<size_t>(c)] +=
            -0.5 * z * z - std::log(sd) - 0.918938533204673;  // log(sqrt(2pi))
      }
    }
  }

  // Softmax over log posteriors.
  double max_lp = log_post[0];
  for (double lp : log_post) max_lp = std::max(max_lp, lp);
  double total = 0.0;
  for (int c = 0; c < num_classes_; ++c) {
    out.distribution[static_cast<size_t>(c)] =
        std::exp(log_post[static_cast<size_t>(c)] - max_lp);
    total += out.distribution[static_cast<size_t>(c)];
  }
  for (double& p : out.distribution) p /= total;
  out.support = total_weight_;
  return out;
}

}  // namespace dq
