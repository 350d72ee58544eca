#include "audit/auditor.h"

#include <algorithm>
#include <optional>
#include <thread>
#include <unordered_set>

#include "audit/scorer.h"
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
    case InducerKind::kC45: {
      C45Config c = config_.c45;
      // The audit-wide thresholds parameterize the tree adjustments
      // (minInst pre-pruning and Def. 9 truncation, sec. 5.4).
      c.min_error_confidence = config_.min_error_confidence;
      c.confidence_level = config_.confidence_level;
      return std::make_unique<C45Tree>(c);
    }
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

}  // namespace

Result<AuditModel> Auditor::Induce(const Table& train,
                                   AuditTimings* timings) const {
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
  // of the others (one classifier per class attribute, sec. 5), so they
  // dispatch across the thread pool and land in pre-assigned slots —
  // the model is identical for every thread count.
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

  const int threads = ResolveThreadCount(config_.num_threads);

  // The audit-wide encode cache: column views, SLIQ sort orders, value
  // bins and class encodings are a pure function of the table, so they are
  // built ONCE here and shared read-only by all k inductions below.
  double encode_ms = 0.0;
  std::optional<EncodedDataset> encoded;
  {
    obs::Span encode_span("induce.encode", -1, &encode_ms);
    encoded.emplace(
        EncodedDataset::Build(train, config_.numeric_class_bins, threads));
  }

  std::vector<std::optional<AttributeModel>> slots(jobs.size());
  std::vector<double> job_ms(jobs.size(), 0.0);
  std::vector<Status> fatal(jobs.size());

  // Parallelism is applied on one of two axes, never both:
  //
  //  * histogram-mode C4.5 parallelizes INSIDE each Train (the breadth-wise
  //    node frontier), so the k inductions run sequentially here sharing
  //    one pool — per-tree spans never overlap, and the summed
  //    tree_build_ms stays a faithful non-overlapping wall-clock total;
  //  * every other inducer has serial Train calls, so the k independent
  //    jobs fan out ACROSS the pool as before.
  //
  // Both axes produce bitwise-identical models for every thread count
  // (pre-assigned slots here, deterministic frontier reduction there).
  const bool intra_tree = config_.inducer == InducerKind::kC45 &&
                          config_.c45.split_mode == SplitMode::kHistogram;

  auto run_job = [&](size_t j, ThreadPool* pool) {
    obs::Span span("induce.attr", jobs[j].class_attr, &job_ms[j]);
    const Job& job = jobs[j];
    AttributeModel am;
    am.class_attr = job.class_attr;
    am.base_attrs = job.base_attrs;

    const std::optional<ClassEncoder>& fitted =
        encoded->encoder(static_cast<size_t>(job.class_attr));
    if (!fitted.has_value()) return;  // e.g. all-null ordered attribute
    am.encoder = *fitted;

    am.classifier = MakeClassifier();
    if (am.classifier == nullptr) {
      fatal[j] = Status::Internal("classifier factory returned null");
      return;
    }
    TrainingData td;
    td.encoded = &*encoded;
    td.class_attr = job.class_attr;
    td.base_attrs = am.base_attrs;
    td.pool = pool;
    Status trained = am.classifier->Train(td);
    if (!trained.ok()) {
      // An attribute that cannot be modelled (e.g. all class values null)
      // is skipped rather than failing the whole audit.
      return;
    }
    slots[j] = std::move(am);
  };

  int induction_threads = threads;
  if (intra_tree) {
    // Worker threads beyond the physical cores cannot speed node-parallel
    // induction -- they only add scheduling contention on the shared
    // frontier batches -- so the intra-tree pool is clamped to the
    // hardware concurrency. The tree is pool-size invariant (pre-assigned
    // result slots), so the clamp never changes output.
    const int hw =
        static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
    const int workers = std::min(threads, hw);
    induction_threads = workers;
    std::optional<ThreadPool> pool;
    if (workers > 1) pool.emplace(workers);
    for (size_t j = 0; j < jobs.size(); ++j) {
      run_job(j, pool.has_value() ? &*pool : nullptr);
    }
  } else {
    // Worker spans stitch under this Induce call's span: the context is
    // captured here on the dispatching thread and installed inside each
    // task. The per-attribute span is keyed by the class attribute index,
    // so the stitched tree is the same for every thread count.
    const obs::TaskContext trace_ctx = obs::Tracer::Global().CurrentContext();
    ParallelFor(threads, jobs.size(), [&](size_t j) {
      obs::TaskScope task_scope(trace_ctx);
      run_job(j, nullptr);
    });
  }
  for (const Status& status : fatal) {
    if (!status.ok()) return status;
  }

  AuditModel model;
  double tree_build_ms = 0.0;
  for (size_t j = 0; j < slots.size(); ++j) {
    if (!slots[j].has_value()) continue;
    if (const auto* tree =
            dynamic_cast<const C45Tree*>(slots[j]->classifier.get())) {
      tree_build_ms += tree->build_ms();
    }
    model.AddAttributeModel(std::move(*slots[j]));
  }
  if (model.num_models() == 0) {
    return Status::FailedPrecondition("no attribute could be modelled");
  }
  obs::GetCounter("induce.attributes_modelled")->Add(model.num_models());
  if (timings != nullptr) {
    timings->threads_used = induction_threads;
    timings->induce_ms = induce_span.ElapsedMs();
    timings->encode_ms = encode_ms;
    timings->tree_build_ms = tree_build_ms;
    timings->induce_attr_ms.clear();
    for (size_t j = 0; j < jobs.size(); ++j) {
      timings->induce_attr_ms.emplace_back(jobs[j].class_attr, job_ms[j]);
    }
  }
  return model;
}

Result<AuditReport> Auditor::Audit(const AuditModel& model, const Table& data,
                                   AuditTimings* timings) const {
  obs::Span audit_span("audit");
  std::vector<ScoringModel> models;
  models.reserve(model.num_models());
  for (const AttributeModel& am : model.models()) {
    models.push_back(ScoringModelOf(am));
  }
  DQ_ASSIGN_OR_RETURN(AuditReport report, ScoreTable(models, data, config_));
  if (timings != nullptr) {
    timings->threads_used = ResolveThreadCount(config_.num_threads);
    timings->audit_ms = audit_span.ElapsedMs();
  }
  return report;
}

Result<Table> Auditor::ApplyCorrections(const AuditReport& report,
                                        const Table& data) const {
  if (report.record_confidence.size() != data.num_rows()) {
    return Status::InvalidArgument("report does not match table size");
  }
  Table corrected = data;
  for (const Suspicion& s : report.suspicious) {
    if (s.attr < 0) continue;
    corrected.SetCell(s.row, static_cast<size_t>(s.attr), s.suggestion);
  }
  return corrected;
}

}  // namespace dq
