#include "audit/review.h"

#include <algorithm>

#include "audit/error_confidence.h"
#include "audit/scorer.h"
#include "common/strings.h"

namespace dq {

Result<SuspicionDetail> ExplainRecord(const AuditModel& model,
                                      const Table& data, size_t row,
                                      const AuditorConfig& config) {
  if (row >= data.num_rows()) {
    return Status::OutOfRange("row index " + std::to_string(row));
  }
  SuspicionDetail detail;
  detail.row = row;

  for (const AttributeModel& am : model.models()) {
    const int observed_class = am.encoder.Encode(
        data.cell(row, static_cast<size_t>(am.class_attr)));
    const Prediction pred = PredictRecord(am, data, row);
    const double conf = ErrorConfidence(pred, observed_class,
                                        config.confidence_level,
                                        config.flag_null_values);
    if (conf > 0.0) {
      ClassifierOpinion opinion;
      opinion.class_attr = am.class_attr;
      opinion.error_confidence = conf;
      opinion.observed_class = observed_class;
      opinion.predicted_class = pred.PredictedClass();
      opinion.support = pred.support;
      opinion.distribution = pred.distribution;
      detail.dissenting.push_back(std::move(opinion));
    } else {
      ++detail.agreeing;
    }
  }
  std::sort(detail.dissenting.begin(), detail.dissenting.end(),
            [](const ClassifierOpinion& a, const ClassifierOpinion& b) {
              return a.error_confidence > b.error_confidence;
            });
  std::vector<double> confidences;
  confidences.reserve(detail.dissenting.size());
  for (const ClassifierOpinion& o : detail.dissenting) {
    confidences.push_back(o.error_confidence);
  }
  detail.combined_confidence = CombineErrorConfidences(confidences);
  return detail;
}

std::string RenderSuspicionDetail(const SuspicionDetail& detail,
                                  const AuditModel& model, const Table& data,
                                  size_t first_row) {
  const Schema& schema = data.schema();
  const Row& record = data.row(detail.row);

  std::string out = "record " + std::to_string(first_row + detail.row) +
                    " (combined error confidence " +
                    FormatDouble(detail.combined_confidence, 4) + ")\n";
  out += "  values:";
  for (size_t a = 0; a < schema.num_attributes(); ++a) {
    out += " " + schema.attribute(a).name + "=" +
           schema.ValueToString(static_cast<int>(a), record[a]);
  }
  out += "\n";
  if (detail.dissenting.empty()) {
    out += "  no classifier dissents\n";
    return out;
  }
  for (const ClassifierOpinion& o : detail.dissenting) {
    const AttributeModel* am = model.ModelFor(o.class_attr);
    if (am == nullptr) continue;
    const std::string attr_name =
        schema.attribute(static_cast<size_t>(o.class_attr)).name;
    out += "  " + attr_name + ": observed " +
           (o.observed_class < 0 ? std::string("null")
                                 : am->encoder.Label(o.observed_class, schema)) +
           ", predicted " + am->encoder.Label(o.predicted_class, schema) +
           " (conf " + FormatDouble(o.error_confidence, 4) + ", support " +
           FormatDouble(o.support, 0) + ")\n";
    // Head of the predicted distribution (top 3 classes).
    std::vector<std::pair<double, int>> ranked;
    for (size_t c = 0; c < o.distribution.size(); ++c) {
      if (o.distribution[c] > 0.0) {
        ranked.emplace_back(o.distribution[c], static_cast<int>(c));
      }
    }
    std::sort(ranked.rbegin(), ranked.rend());
    out += "      distribution:";
    for (size_t i = 0; i < ranked.size() && i < 3; ++i) {
      out += " " + am->encoder.Label(ranked[i].second, schema) + ":" +
             FormatDouble(ranked[i].first, 3);
    }
    out += "\n";
  }
  out += "  " + std::to_string(detail.agreeing) + " classifier(s) agree\n";
  return out;
}

}  // namespace dq
