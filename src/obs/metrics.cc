#include "obs/metrics.h"

#include <algorithm>
#include <cstdio>

#include "common/atomic_file.h"
#include "common/parallel.h"

namespace dq::obs {

void SyncPoolMetrics() {
  const PoolStats stats = GlobalPoolStats();
  GetGauge("pool.pools_created")->Set(static_cast<double>(stats.pools_created));
  GetGauge("pool.tasks_executed")
      ->Set(static_cast<double>(stats.tasks_executed));
  GetGauge("pool.peak_queue_depth")
      ->Set(static_cast<double>(stats.peak_queue_depth));
}

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  std::sort(bounds_.begin(), bounds_.end());
  buckets_ = std::make_unique<std::atomic<uint64_t>[]>(bounds_.size() + 1);
  for (size_t i = 0; i <= bounds_.size(); ++i) buckets_[i].store(0);
}

void Histogram::Observe(double v) {
  size_t bucket = bounds_.size();  // +inf overflow bucket
  for (size_t i = 0; i < bounds_.size(); ++i) {
    if (v <= bounds_[i]) {
      bucket = i;
      break;
    }
  }
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  // atomic<double> has no fetch_add before C++20 library support is
  // universal; a CAS loop is portable and contention here is negligible.
  double expected = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(expected, expected + v,
                                     std::memory_order_relaxed)) {
  }
}

void Histogram::Reset() {
  for (size_t i = 0; i <= bounds_.size(); ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         std::vector<double> bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>(std::move(bounds));
  return slot.get();
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, counter] : counters_) counter->Reset();
  for (auto& [name, gauge] : gauges_) gauge->Reset();
  for (auto& [name, histogram] : histograms_) histogram->Reset();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snapshot;
  snapshot.counters.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    snapshot.counters.emplace_back(name, counter->Value());
  }
  snapshot.gauges.reserve(gauges_.size());
  for (const auto& [name, gauge] : gauges_) {
    snapshot.gauges.emplace_back(name, gauge->Value());
  }
  return snapshot;
}

std::string MetricsRegistry::ToJson(const RunManifest* manifest) const {
  std::lock_guard<std::mutex> lock(mu_);
  JsonObjectWriter out;
  out.Add("schema_version", kSchemaVersion);
  if (manifest != nullptr) manifest->AppendTo(&out);

  JsonObjectWriter counters;
  for (const auto& [name, counter] : counters_) {
    counters.Add(name, counter->Value());
  }
  out.AddRaw("counters", counters.Render());

  JsonObjectWriter gauges;
  for (const auto& [name, gauge] : gauges_) {
    gauges.Add(name, gauge->Value());
  }
  out.AddRaw("gauges", gauges.Render());

  JsonObjectWriter histograms;
  for (const auto& [name, histogram] : histograms_) {
    JsonObjectWriter h;
    h.Add("count", histogram->Count());
    h.Add("sum", histogram->Sum());
    std::string buckets = "[";
    for (size_t i = 0; i < histogram->NumBuckets(); ++i) {
      if (i > 0) buckets += ", ";
      JsonObjectWriter bucket;
      if (i < histogram->bounds().size()) {
        bucket.Add("le", histogram->bounds()[i]);
      } else {
        bucket.Add("le", "inf");
      }
      bucket.Add("count", histogram->BucketCount(i));
      buckets += bucket.Render(0);
    }
    buckets += "]";
    h.AddRaw("buckets", std::move(buckets));
    histograms.AddRaw(name, h.Render());
  }
  out.AddRaw("histograms", histograms.Render());
  return out.Render() + "\n";
}

Status MetricsRegistry::WriteJsonFile(const std::string& path,
                                      const RunManifest* manifest) const {
  return WriteFileAtomically(path, ToJson(manifest));
}

}  // namespace dq::obs
