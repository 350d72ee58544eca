#include "audit/auditor.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <unordered_set>

#include "common/parallel.h"
#include "mining/encoded_dataset.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace dq {

const char* InducerKindToString(InducerKind kind) {
  switch (kind) {
    case InducerKind::kC45:
      return "c4.5";
    case InducerKind::kNaiveBayes:
      return "naive-bayes";
    case InducerKind::kKnn:
      return "knn";
    case InducerKind::kOneR:
      return "oner";
  }
  return "unknown";
}

std::unique_ptr<Classifier> Auditor::MakeClassifier() const {
  switch (config_.inducer) {
    case InducerKind::kC45:
      break;  // Induce keeps only the compiled tree
    case InducerKind::kNaiveBayes:
      return std::make_unique<NaiveBayesClassifier>(config_.naive_bayes);
    case InducerKind::kKnn:
      return std::make_unique<KnnClassifier>(config_.knn);
    case InducerKind::kOneR:
      return std::make_unique<OneRClassifier>(config_.oner);
  }
  return nullptr;
}

namespace {

/// Key for the (class_attr, excluded_base_attr) pair set; attribute
/// indices are non-negative, so the packed form is collision-free.
uint64_t ExclusionKey(int class_attr, int base_attr) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(class_attr)) << 32) |
         static_cast<uint32_t>(base_attr);
}

/// True when the non-null `v` can be stored in a column of `type`.
bool HasKind(const Value& v, DataType type) {
  switch (type) {
    case DataType::kNominal:
      return v.is_nominal();
    case DataType::kNumeric:
      return v.is_numeric();
    case DataType::kDate:
      return v.is_date();
  }
  return false;
}

}  // namespace

Result<AuditModel> Auditor::Induce(const Table& train) const {
  if (train.num_rows() == 0) {
    return Status::FailedPrecondition("cannot induce structure on empty table");
  }
  const Schema& schema = train.schema();
  obs::Span induce_span("induce");

  const std::unordered_set<int> skip(config_.skip_class_attrs.begin(),
                                     config_.skip_class_attrs.end());
  std::unordered_set<uint64_t> excluded;
  excluded.reserve(config_.excluded_base_attrs.size());
  for (const auto& [class_attr, base_attr] : config_.excluded_base_attrs) {
    excluded.insert(ExclusionKey(class_attr, base_attr));
  }

  // Collect the per-attribute induction jobs up front; each is independent
  // of the others (one classifier per class attribute, sec. 5).
  struct Job {
    int class_attr = -1;
    std::vector<int> base_attrs;
  };
  std::vector<Job> jobs;
  for (size_t attr = 0; attr < schema.num_attributes(); ++attr) {
    const int class_attr = static_cast<int>(attr);
    if (skip.count(class_attr) != 0) continue;
    Job job;
    job.class_attr = class_attr;
    for (size_t base = 0; base < schema.num_attributes(); ++base) {
      if (base == attr) continue;
      if (excluded.count(ExclusionKey(class_attr, static_cast<int>(base))) !=
          0) {
        continue;
      }
      job.base_attrs.push_back(static_cast<int>(base));
    }
    if (job.base_attrs.empty()) continue;
    jobs.push_back(std::move(job));
  }

  // One pool serves the encode and the k inductions: every attribute is
  // one item, and each tree grows serially on whichever worker takes it.
  // Workers beyond the jobs or the hardware threads could only idle or
  // contend.
  const int workers = std::min({ResolveThreadCount(config_.num_threads),
                                static_cast<int>(jobs.size()),
                                HardwareThreads()});
  std::unique_ptr<ThreadPool> pool;
  if (workers > 1) pool = std::make_unique<ThreadPool>(workers);

  // The audit-wide encode cache: column views, SLIQ sort orders, value
  // bins and class encodings are a pure function of the table, so they are
  // built ONCE here and shared read-only by all k inductions below.
  std::optional<EncodedDataset> encoded;
  {
    obs::Span encode_span("induce.encode");
    encoded.emplace(
        EncodedDataset::Build(train, config_.numeric_class_bins, pool.get()));
  }

  // Each job lands in its pre-assigned slot, so the model is identical for
  // every thread count. Worker spans stitch under this Induce call's span:
  // the context is captured here on the dispatching thread and installed
  // inside each job. The per-attribute span is keyed by the class
  // attribute index, so the stitched tree is the same for every thread
  // count; with more than one worker, the c45.build spans of different
  // trees overlap in time.
  std::vector<std::optional<AttributeModel>> slots(jobs.size());
  const obs::TaskContext trace_ctx = obs::Tracer::Global().CurrentContext();
  RunBatch(pool.get(), jobs.size(), [&](size_t j) {
    obs::TaskScope task_scope(trace_ctx);
    obs::Span span("induce.attr", jobs[j].class_attr);
    const Job& job = jobs[j];
    AttributeModel am;
    am.class_attr = job.class_attr;

    const std::optional<ClassEncoder>& fitted =
        encoded->encoder(static_cast<size_t>(job.class_attr));
    if (!fitted.has_value()) return;  // e.g. all-null ordered attribute
    am.encoder = *fitted;

    const TrainingData td{&*encoded, job.class_attr, job.base_attrs};
    Status trained;
    am.classifier = MakeClassifier();
    if (am.classifier != nullptr) {
      trained = am.classifier->Train(td);
    } else {
      // C4.5. The audit-wide thresholds parameterize the tree adjustments
      // (minInst pre-pruning and Def. 9 truncation, sec. 5.4). The pointer
      // tree dies with this job; the model keeps its compiled form.
      C45Config c = config_.c45;
      c.min_error_confidence = config_.min_error_confidence;
      c.confidence_level = config_.confidence_level;
      C45Tree tree(c);
      trained = tree.Train(td);
      am.tree = tree.compiled();
    }
    // An attribute that cannot be modelled (e.g. all class values null) is
    // skipped rather than failing the whole audit.
    if (trained.ok()) slots[j] = std::move(am);
  });

  AuditModel model;
  for (std::optional<AttributeModel>& slot : slots) {
    if (slot.has_value()) model.AddAttributeModel(std::move(*slot));
  }
  if (model.num_models() == 0) {
    return Status::FailedPrecondition("no attribute could be modelled");
  }
  obs::GetCounter("induce.attributes_modelled")->Add(model.num_models());
  return model;
}

Result<AuditReport> Auditor::Audit(const AuditModel& model,
                                   const Table& data) const {
  return model.Check(data, config_);
}

Result<Table> Auditor::ApplyCorrections(const AuditReport& report,
                                        const Table& data) const {
  // Table::SetCell checks nothing in Release builds, and a report is a
  // plain struct anyone can fill.
  if (report.flagged.size() != data.num_rows()) {
    return Status::InvalidArgument("report does not match table size");
  }
  const Schema& schema = data.schema();
  for (const Suspicion& s : report.suspicious) {
    if (s.row >= data.num_rows() || s.attr < 0 ||
        static_cast<size_t>(s.attr) >= schema.num_attributes()) {
      return Status::InvalidArgument("report does not match the table");
    }
    const AttributeDef& def = schema.attribute(static_cast<size_t>(s.attr));
    if (!s.suggestion.is_null() && !HasKind(s.suggestion, def.type)) {
      return Status::InvalidArgument(
          "suggestion for row " + std::to_string(s.row) +
          " is not a value of attribute '" + def.name + "'");
    }
  }
  Table corrected = data;
  for (const Suspicion& s : report.suspicious) {
    corrected.SetCell(s.row, static_cast<size_t>(s.attr), s.suggestion);
  }
  return corrected;
}

}  // namespace dq
