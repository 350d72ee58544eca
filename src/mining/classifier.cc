#include "mining/classifier.h"

#include <algorithm>

#include "mining/encoded_dataset.h"

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
  if (encoded == nullptr) {
    return Status::InvalidArgument("null encoded dataset");
  }
  const size_t n_attrs = encoded->table()->schema().num_attributes();
  if (class_attr < 0 || static_cast<size_t>(class_attr) >= n_attrs) {
    return Status::OutOfRange("class attribute out of range");
  }
  if (!encoded->encoder(static_cast<size_t>(class_attr)).has_value()) {
    return Status::FailedPrecondition(
        "encoded dataset has no class encoder for the class attribute");
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

const Table& TrainingData::table() const { return *encoded->table(); }

const ClassEncoder& TrainingData::encoder() const {
  return *encoded->encoder(static_cast<size_t>(class_attr));
}

}  // namespace dq
