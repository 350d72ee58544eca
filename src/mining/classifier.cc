#include "mining/classifier.h"

#include <algorithm>

namespace dq {

int ArgMaxClass(const double* dist, size_t num_classes) {
  int best = -1;
  double best_p = 0.0;
  for (size_t i = 0; i < num_classes; ++i) {
    if (dist[i] > best_p) {
      best_p = dist[i];
      best = static_cast<int>(i);
    }
  }
  return best;
}

Status TrainingData::Check() const {
  if (table == nullptr) return Status::InvalidArgument("null training table");
  if (encoder == nullptr) return Status::InvalidArgument("null class encoder");
  const size_t n_attrs = table->schema().num_attributes();
  if (class_attr < 0 || static_cast<size_t>(class_attr) >= n_attrs) {
    return Status::OutOfRange("class attribute out of range");
  }
  if (encoder->attr() != class_attr) {
    return Status::InvalidArgument("encoder fitted for a different attribute");
  }
  if (base_attrs.empty()) {
    return Status::InvalidArgument("no base attributes");
  }
  for (int a : base_attrs) {
    if (a < 0 || static_cast<size_t>(a) >= n_attrs) {
      return Status::OutOfRange("base attribute out of range");
    }
    if (a == class_attr) {
      return Status::InvalidArgument(
          "class attribute cannot be a base attribute");
    }
  }
  return Status::OK();
}

}  // namespace dq
