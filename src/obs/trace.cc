#include "obs/trace.h"

#include <algorithm>
#include <cstring>
#include <map>

#include "common/atomic_file.h"

namespace dq::obs {

namespace {

/// One thread_local slot is enough: only the process-global tracer records.
thread_local void* t_buffer = nullptr;

}  // namespace

Tracer& Tracer::Global() {
  // Leaked singleton: worker threads may record until process exit, so the
  // buffers must never be destroyed.
  static Tracer* tracer = new Tracer();
  return *tracer;
}

Tracer::ThreadBuffer* Tracer::LocalBuffer() {
  auto* buffer = static_cast<ThreadBuffer*>(t_buffer);
  if (buffer != nullptr) return buffer;
  std::lock_guard<std::mutex> lock(registry_mu_);
  buffers_.push_back(std::make_unique<ThreadBuffer>());
  buffer = buffers_.back().get();
  buffer->slot = static_cast<uint32_t>(buffers_.size() - 1);
  t_buffer = buffer;
  return buffer;
}

SpanRecord* Tracer::BeginSpan(const char* name, int64_t key) {
  if (!enabled()) return nullptr;
  ThreadBuffer* buffer = LocalBuffer();
  buffer->records.emplace_back();
  SpanRecord* span = &buffer->records.back();
  span->name = name;
  span->key = key;
  span->start_ns = NowNs();
  span->parent =
      buffer->stack.empty() ? buffer->task_parent : buffer->stack.back();
  span->thread_slot = buffer->slot;
  buffer->stack.push_back(span);
  return span;
}

void Tracer::EndSpan(SpanRecord* span) {
  span->end_ns = NowNs();
  auto* buffer = static_cast<ThreadBuffer*>(t_buffer);
  if (buffer == nullptr) return;
  // Spans end LIFO on their own thread; tolerate a mismatch rather than
  // corrupting the stack.
  auto it = std::find(buffer->stack.rbegin(), buffer->stack.rend(), span);
  if (it != buffer->stack.rend()) {
    buffer->stack.erase(std::next(it).base());
  }
}

TaskContext Tracer::CurrentContext() {
  if (!enabled()) return {};
  ThreadBuffer* buffer = LocalBuffer();
  return {buffer->stack.empty() ? buffer->task_parent
                                : buffer->stack.back()};
}

size_t Tracer::NumSpans() const {
  std::lock_guard<std::mutex> lock(registry_mu_);
  size_t n = 0;
  for (const auto& buffer : buffers_) n += buffer->records.size();
  return n;
}

double Tracer::AggregateMs(std::string_view name,
                           std::optional<int64_t> key) const {
  std::lock_guard<std::mutex> lock(registry_mu_);
  double total = 0.0;
  for (const auto& buffer : buffers_) {
    for (const SpanRecord& span : buffer->records) {
      if (span.end_ns != 0 && name == span.name &&
          (!key.has_value() || span.key == *key)) {
        total += span.DurationMs();
      }
    }
  }
  return total;
}

void Tracer::Reset() {
  std::lock_guard<std::mutex> lock(registry_mu_);
  for (const auto& buffer : buffers_) {
    buffer->records.clear();
    buffer->stack.clear();
    buffer->task_parent = nullptr;
  }
}

TaskScope::TaskScope(const TaskContext& context) {
  Tracer& tracer = Tracer::Global();
  if (!tracer.enabled() && context.parent == nullptr) return;
  buffer_ = tracer.LocalBuffer();
  saved_ = buffer_->task_parent;
  buffer_->task_parent = context.parent;
}

TaskScope::~TaskScope() {
  if (buffer_ != nullptr) buffer_->task_parent = saved_;
}

namespace {

/// Flush-side views over the recorded spans. Children are grouped under
/// their parent; sibling order is (name, key, start) so walks are
/// deterministic wherever (name, key) pairs are unique — which the
/// instrumentation guarantees for parallel siblings.
struct FlushIndex {
  std::map<const SpanRecord*, std::vector<const SpanRecord*>> children;
};

bool SpanOrder(const SpanRecord* a, const SpanRecord* b) {
  const int names = std::strcmp(a->name, b->name);
  if (names != 0) return names < 0;
  if (a->key != b->key) return a->key < b->key;
  return a->start_ns < b->start_ns;
}

}  // namespace

std::string Tracer::TreeSummary() const {
  std::lock_guard<std::mutex> lock(registry_mu_);
  FlushIndex index;
  for (const auto& buffer : buffers_) {
    for (const SpanRecord& span : buffer->records) {
      if (span.end_ns == 0) continue;
      index.children[span.parent].push_back(&span);
    }
  }

  // Aggregate siblings by (name, key): identical twins collapse into one
  // line with a count and merged child lists, so the summary depends on
  // nothing but names, keys, hierarchy and counts.
  std::string out;
  struct Group {
    std::vector<const SpanRecord*> spans;
  };
  auto render = [&](auto&& self, const std::vector<const SpanRecord*>& nodes,
                    int depth) -> void {
    std::map<std::pair<std::string, int64_t>, Group> groups;
    for (const SpanRecord* span : nodes) {
      groups[{span->name, span->key}].spans.push_back(span);
    }
    for (const auto& [id, group] : groups) {
      out.append(static_cast<size_t>(depth) * 2, ' ');
      out += id.first;
      if (id.second >= 0) {
        out += '[';
        out += std::to_string(id.second);
        out += ']';
      }
      if (group.spans.size() > 1) {
        out += " x";
        out += std::to_string(group.spans.size());
      }
      out += '\n';
      std::vector<const SpanRecord*> merged;
      for (const SpanRecord* span : group.spans) {
        auto it = index.children.find(span);
        if (it == index.children.end()) continue;
        merged.insert(merged.end(), it->second.begin(), it->second.end());
      }
      if (!merged.empty()) self(self, merged, depth + 1);
    }
  };
  auto roots = index.children.find(nullptr);
  if (roots != index.children.end()) render(render, roots->second, 0);
  return out;
}

std::string Tracer::ToChromeTraceJson(const RunManifest* manifest) const {
  std::lock_guard<std::mutex> lock(registry_mu_);
  FlushIndex index;
  uint32_t max_slot = 0;
  for (const auto& buffer : buffers_) {
    for (const SpanRecord& span : buffer->records) {
      if (span.end_ns == 0) continue;
      index.children[span.parent].push_back(&span);
      max_slot = std::max(max_slot, span.thread_slot);
    }
  }
  for (auto& [parent, kids] : index.children) {
    std::sort(kids.begin(), kids.end(), SpanOrder);
  }

  // Deterministic span ids: preorder over the sorted tree, root-first.
  std::map<const SpanRecord*, uint64_t> ids;
  uint64_t next_id = 0;
  auto assign = [&](auto&& self, const SpanRecord* parent) -> void {
    auto it = index.children.find(parent);
    if (it == index.children.end()) return;
    for (const SpanRecord* span : it->second) {
      ids[span] = ++next_id;
      self(self, span);
    }
  };
  assign(assign, nullptr);

  std::string events;
  auto append_event = [&events](const std::string& event) {
    if (!events.empty()) events += ",\n    ";
    events += event;
  };

  const char* process_name =
      manifest != nullptr && !manifest->tool.empty() ? manifest->tool.c_str()
                                                     : "dqtools";
  {
    JsonObjectWriter meta;
    meta.Add("ph", "M");
    meta.Add("pid", 1);
    meta.Add("name", "process_name");
    JsonObjectWriter args;
    args.Add("name", process_name);
    meta.AddRaw("args", args.Render(0));
    append_event(meta.Render(0));
  }
  for (uint32_t slot = 0; slot <= max_slot; ++slot) {
    JsonObjectWriter meta;
    meta.Add("ph", "M");
    meta.Add("pid", 1);
    meta.Add("tid", static_cast<int>(slot + 1));
    meta.Add("name", "thread_name");
    JsonObjectWriter args;
    args.Add("name", slot == 0 ? std::string("main")
                               : "worker-" + std::to_string(slot));
    meta.AddRaw("args", args.Render(0));
    append_event(meta.Render(0));
  }

  auto emit = [&](auto&& self, const SpanRecord* parent) -> void {
    auto it = index.children.find(parent);
    if (it == index.children.end()) return;
    for (const SpanRecord* span : it->second) {
      JsonObjectWriter event;
      event.Add("ph", "X");
      event.Add("pid", 1);
      event.Add("tid", static_cast<int>(span->thread_slot + 1));
      event.Add("name", span->name);
      event.Add("cat", "dq");
      event.Add("ts", static_cast<double>(span->start_ns) / 1000.0);
      event.Add("dur",
                static_cast<double>(span->end_ns - span->start_ns) / 1000.0);
      JsonObjectWriter args;
      args.Add("span_id", ids[span]);
      args.Add("parent_id", parent == nullptr ? uint64_t{0} : ids[parent]);
      if (span->key >= 0) args.Add("key", static_cast<uint64_t>(span->key));
      event.AddRaw("args", args.Render(0));
      append_event(event.Render(0));
      self(self, span);
    }
  };
  emit(emit, nullptr);

  JsonObjectWriter out;
  out.AddRaw("traceEvents", "[\n    " + events + "\n  ]");
  out.Add("displayTimeUnit", "ms");
  if (manifest != nullptr) manifest->AppendTo(&out);
  return out.Render() + "\n";
}

Status Tracer::WriteChromeTraceFile(const std::string& path,
                                    const RunManifest* manifest) const {
  return WriteFileAtomically(path, ToChromeTraceJson(manifest));
}

}  // namespace dq::obs
