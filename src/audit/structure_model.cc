#include "audit/structure_model.h"

#include <charconv>
#include <cmath>
#include <fstream>
#include <optional>
#include <ostream>
#include <sstream>

#include "common/atomic_file.h"
#include "audit/scorer.h"
#include "obs/trace.h"

namespace dq {

StructureModel StructureModel::FromAuditModel(const AuditModel& model,
                                              const Schema& schema) {
  (void)schema;
  StructureModel out;
  for (const AttributeModel& am : model.models()) {
    const auto* tree = dynamic_cast<const C45Tree*>(am.classifier.get());
    if (tree == nullptr || tree->compiled().nodes().empty()) continue;
    out.trees_.push_back({am.class_attr, am.encoder, tree->compiled()});
  }
  return out;
}

size_t StructureModel::TotalRules() const {
  size_t n = 0;
  for (const AttributeTree& t : trees_) n += t.tree.CountRules();
  return n;
}

Result<AuditReport> StructureModel::Check(const Table& data,
                                          const AuditorConfig& config) const {
  std::vector<ScoringModel> models;
  models.reserve(trees_.size());
  for (const AttributeTree& t : trees_) {
    models.push_back({t.class_attr, &t.encoder, &t.tree, nullptr});
  }
  return ScoreTable(models, data, config);
}

// ---------------------------------------------------------------------------
// Serialization: dqmodel v2 (grammar in docs/FORMATS.md). Doubles are
// written in their shortest round-trip form, so a loaded model scores bit
// for bit like the one saved.

namespace {

void AppendNumber(std::string* out, double v) {
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  out->push_back(' ');
  out->append(buf, res.ptr);
}

void AppendNumber(std::string* out, uint64_t v) {
  char buf[24];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  out->push_back(' ');
  out->append(buf, res.ptr);
}

}  // namespace

Status StructureModel::SerializeTo(std::ostream* out) const {
  std::string text = "dqmodel v2\n";
  for (const AttributeTree& t : trees_) {
    text += "model";
    AppendNumber(&text, static_cast<uint64_t>(t.class_attr));
    if (t.encoder.is_discretized()) {
      const EqualFrequencyDiscretizer& disc = *t.encoder.discretizer();
      text += " discretized";
      AppendNumber(&text, static_cast<uint64_t>(disc.cut_points().size()));
      for (double c : disc.cut_points()) AppendNumber(&text, c);
      AppendNumber(&text, static_cast<uint64_t>(disc.num_bins()));
      for (int b = 0; b < disc.num_bins(); ++b) {
        AppendNumber(&text, disc.Representative(b));
      }
    } else {
      text += " nominal";
    }
    AppendNumber(&text, static_cast<uint64_t>(t.tree.nodes().size()));
    text += '\n';
    for (const CompiledTree::Node& node : t.tree.nodes()) {
      if (node.is_leaf()) {
        text += "leaf";
        AppendNumber(&text, node.branch_weight);
        AppendNumber(&text, static_cast<uint64_t>(node.majority));
        AppendNumber(&text, node.weight);
        const double* counts = t.tree.leaf_counts(node.first);
        for (int c = 0; c < t.tree.num_classes(); ++c) {
          AppendNumber(&text, counts[c]);
        }
      } else {
        text += "split";
        AppendNumber(&text, node.branch_weight);
        AppendNumber(&text, static_cast<uint64_t>(node.attr));
        if (node.ordered) {
          text += " le";
          AppendNumber(&text, node.threshold);
          AppendNumber(&text, static_cast<uint64_t>(node.first));
        } else {
          text += " cat";
          AppendNumber(&text, static_cast<uint64_t>(node.first));
          AppendNumber(&text, static_cast<uint64_t>(node.children));
        }
        AppendNumber(&text, node.known_weight);
      }
      text += '\n';
    }
  }
  text += "end\n";
  out->write(text.data(), static_cast<std::streamsize>(text.size()));
  if (!*out) return Status::IOError("stream write failed");
  return Status::OK();
}

Status StructureModel::SaveToFile(const std::string& path) const {
  obs::Span span("model.save");
  return WriteFileAtomically(
      path, [this](std::ostream* out) { return SerializeTo(out); });
}

namespace {

/// Trees deeper than this are refused: the null-value walk recurses once
/// per level, and induction never grows trees anywhere near it.
constexpr uint32_t kMaxTreeDepth = 1024;

/// Line-oriented reader of one in-memory `dqmodel v2` buffer. Every field
/// is checked before it is used, so hostile input yields a Status.
class ModelParser {
 public:
  ModelParser(const Schema& schema, std::string_view text)
      : schema_(schema), text_(text) {}

  Status Parse(std::vector<StructureModel::AttributeTree>* trees) {
    if (!NextLine() || line_ != "dqmodel v2") {
      if (line_ == "dqmodel v1") {
        return Error(
            "dqmodel v1 lacks the branch weights needed to score nulls; "
            "re-save with `dqaudit --save-model`");
      }
      return Error("missing 'dqmodel v2' header");
    }
    while (NextLine()) {
      std::string_view tag;
      Word(&tag);
      if (tag == "end" && AtLineEnd()) {
        if (!terminated_ || pos_ != text_.size()) {
          return Error("bytes after 'end'");
        }
        return Status::OK();
      }
      if (tag != "model") {
        return Error("unknown tag '" + std::string(tag) + "'");
      }
      StructureModel::AttributeTree tree;
      DQ_RETURN_NOT_OK(ParseModel(&tree));
      trees->push_back(std::move(tree));
    }
    return Error("missing 'end'");
  }

 private:
  Status Error(const std::string& what) const {
    return Status::IOError("dqmodel parse error at line " +
                           std::to_string(line_no_) + ": " + what);
  }

  bool NextLine() {
    if (pos_ >= text_.size()) return false;
    const size_t eol = text_.find('\n', pos_);
    terminated_ = eol != std::string_view::npos;
    const size_t end = terminated_ ? eol : text_.size();
    line_ = text_.substr(pos_, end - pos_);
    if (!line_.empty() && line_.back() == '\r') line_.remove_suffix(1);
    pos_ = terminated_ ? end + 1 : end;
    ++line_no_;
    return true;
  }

  bool Word(std::string_view* out) {
    while (!line_.empty() && line_.front() == ' ') line_.remove_prefix(1);
    const size_t len = std::min(line_.find(' '), line_.size());
    *out = line_.substr(0, len);
    line_.remove_prefix(len);
    return !out->empty();
  }

  bool AtLineEnd() {
    while (!line_.empty() && line_.front() == ' ') line_.remove_prefix(1);
    return line_.empty();
  }

  /// Parses the next word as a finite double.
  bool Finite(double* out) {
    std::string_view w;
    if (!Word(&w)) return false;
    const auto res = std::from_chars(w.data(), w.data() + w.size(), *out);
    return res.ec == std::errc() && res.ptr == w.data() + w.size() &&
           std::isfinite(*out);
  }

  /// Parses the next word as a finite, non-negative weight.
  bool Weight(double* out) { return Finite(out) && *out >= 0.0; }

  bool Index(uint32_t* out) {
    std::string_view w;
    if (!Word(&w)) return false;
    const auto res = std::from_chars(w.data(), w.data() + w.size(), *out);
    return res.ec == std::errc() && res.ptr == w.data() + w.size();
  }

  Status ParseModel(StructureModel::AttributeTree* out) {
    uint32_t attr = 0;
    std::string_view kind;
    if (!Index(&attr) || !Word(&kind)) return Error("malformed model line");
    std::optional<EqualFrequencyDiscretizer> disc;
    if (kind == "discretized") {
      std::vector<double> cuts;
      std::vector<double> reps;
      uint32_t n = 0;
      bool ok = Index(&n);
      for (uint32_t i = 0; ok && i < n; ++i) ok = Finite(&cuts.emplace_back());
      ok = ok && Index(&n);
      for (uint32_t i = 0; ok && i < n; ++i) ok = Finite(&reps.emplace_back());
      if (!ok) return Error("malformed discretizer");
      auto built = EqualFrequencyDiscretizer::FromParts(std::move(cuts),
                                                        std::move(reps));
      if (!built.ok()) return Error(built.status().message());
      disc = std::move(*built);
    } else if (kind != "nominal") {
      return Error("unknown encoder kind '" + std::string(kind) + "'");
    }
    if (attr >= schema_.num_attributes()) {
      return Error("class attribute out of range");
    }
    auto encoder = ClassEncoder::FromParts(schema_, static_cast<int>(attr),
                                           std::move(disc));
    if (!encoder.ok()) return Error(encoder.status().message());
    uint32_t count = 0;
    if (!Index(&count) || !AtLineEnd()) return Error("malformed model line");
    if (count == 0) return Error("a tree needs at least one node");
    // Every node line takes more than 8 bytes, so this bounds what the
    // declared count can make the reader allocate by the input's size.
    if (count > (text_.size() - pos_) / 8) {
      return Error("tree of " + std::to_string(count) +
                   " nodes does not fit in the rest of the input");
    }

    const int num_classes = encoder->num_classes();
    std::vector<CompiledTree::Node> nodes;
    std::vector<double> counts;
    std::vector<uint32_t> depth{0};
    uint32_t next_child = 1;  // where the next split's children must start
    uint32_t leaves = 0;
    for (uint32_t i = 0; i < count; ++i) {
      if (!NextLine()) return Error("truncated tree: expected node " +
                                    std::to_string(i) + " of " +
                                    std::to_string(count));
      CompiledTree::Node node;
      std::string_view node_kind;
      Word(&node_kind);
      if (!Weight(&node.branch_weight)) {
        return Error("branch weight must be a finite non-negative number");
      }
      if (node_kind == "leaf") {
        uint32_t majority = 0;
        if (!Index(&majority) ||
            majority >= static_cast<uint32_t>(num_classes)) {
          return Error("leaf majority class out of range");
        }
        node.majority = static_cast<int32_t>(majority);
        if (!Weight(&node.weight)) {
          return Error("leaf weight must be a finite non-negative number");
        }
        for (int c = 0; c < num_classes; ++c) {
          if (AtLineEnd()) break;
          if (!Weight(&counts.emplace_back())) {
            return Error("class counts must be finite non-negative numbers");
          }
        }
        if (counts.size() != static_cast<size_t>(leaves + 1) *
                                 static_cast<size_t>(num_classes) ||
            !AtLineEnd()) {
          return Error("class-count arity mismatch: the class attribute has " +
                       std::to_string(num_classes) + " classes");
        }
        node.first = leaves++;
      } else if (node_kind == "split") {
        uint32_t split_attr = 0;
        std::string_view op;
        if (!Index(&split_attr) || split_attr >= schema_.num_attributes()) {
          return Error("split attribute out of range");
        }
        if (!Word(&op)) return Error("malformed split");
        const bool nominal =
            schema_.attribute(split_attr).type == DataType::kNominal;
        node.attr = static_cast<int32_t>(split_attr);
        bool ok = false;
        if (op == "le") {
          if (nominal) return Error("'le' split on a nominal attribute");
          node.ordered = true;
          node.children = 2;
          ok = Finite(&node.threshold) && Index(&node.first);
        } else if (op == "cat") {
          if (!nominal) return Error("'cat' split on an ordered attribute");
          ok = Index(&node.first) && Index(&node.children) &&
               node.children > 0;
        } else {
          return Error("unknown split operator '" + std::string(op) + "'");
        }
        if (!ok || !Weight(&node.known_weight) || !AtLineEnd()) {
          return Error("malformed split");
        }
        if (node.first <= i) {
          return Error("child index does not come after its parent");
        }
        if (static_cast<uint64_t>(node.first) + node.children > count) {
          return Error("child index out of range");
        }
        if (node.first != next_child) {
          return Error("children must follow the previous split's children");
        }
        if (depth[i] + 1 > kMaxTreeDepth) return Error("tree too deep");
        next_child += node.children;
        depth.resize(next_child, depth[i] + 1);
      } else {
        return Error("unknown node kind '" + std::string(node_kind) + "'");
      }
      nodes.push_back(node);
    }
    if (next_child != count) return Error("node without a parent");
    out->class_attr = static_cast<int>(attr);
    out->encoder = std::move(*encoder);
    out->tree = CompiledTree(num_classes, std::move(nodes), std::move(counts));
    return Status::OK();
  }

  const Schema& schema_;
  std::string_view text_;
  size_t pos_ = 0;
  std::string_view line_;
  bool terminated_ = false;
  size_t line_no_ = 0;
};

}  // namespace

Result<StructureModel> StructureModel::Deserialize(const Schema& schema,
                                                   std::string_view text) {
  StructureModel model;
  DQ_RETURN_NOT_OK(ModelParser(schema, text).Parse(&model.trees_));
  return model;
}

Result<StructureModel> StructureModel::Deserialize(const Schema& schema,
                                                   std::istream* in) {
  std::ostringstream buffer;
  buffer << in->rdbuf();
  return Deserialize(schema, buffer.str());
}

Result<StructureModel> StructureModel::LoadFromFile(const Schema& schema,
                                                    const std::string& path) {
  obs::Span span("model.load");
  std::ifstream f(path, std::ios::binary | std::ios::ate);
  const std::streamoff size = f ? static_cast<std::streamoff>(f.tellg()) : -1;
  if (size < 0) {
    return Status::IOError("cannot open '" + path + "' for reading");
  }
  std::string text(static_cast<size_t>(size), '\0');
  f.seekg(0);
  f.read(text.data(), static_cast<std::streamsize>(text.size()));
  if (!f) return Status::IOError("cannot read '" + path + "'");
  return Deserialize(schema, text);
}

}  // namespace dq
