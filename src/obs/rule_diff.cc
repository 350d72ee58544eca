#include "obs/rule_diff.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/input_file.h"
#include "common/strings.h"
#include "obs/json.h"

namespace dq::obs {

namespace {

std::string Trim(std::string_view s) {
  size_t begin = 0;
  size_t end = s.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(s[begin]))) {
    ++begin;
  }
  while (end > begin && std::isspace(static_cast<unsigned char>(s[end - 1]))) {
    --end;
  }
  return std::string(s.substr(begin, end - begin));
}

/// Parses "key=value key=value ..." from an "# @rule" comment body.
/// `conf` and `coverage` must parse whole as finite numbers and `support`
/// as a non-negative integer; otherwise the error names the key.
Status ParseAnnotationFields(const std::string& body, AnnotatedRule* rule) {
  std::istringstream in(body);
  std::string token;
  while (in >> token) {
    const size_t eq = token.find('=');
    if (eq == std::string::npos) continue;
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    bool ok = true;
    if (key == "conf") {
      ok = ParseDouble(value, &rule->confidence) &&
           std::isfinite(rule->confidence);
    } else if (key == "support") {
      int64_t support = 0;
      ok = ParseInt64(value, &support) && support >= 0;
      rule->support = static_cast<uint64_t>(support);
    } else if (key == "coverage") {
      ok = ParseDouble(value, &rule->coverage) &&
           std::isfinite(rule->coverage);
    } else if (key == "source") {
      rule->source = value;
    }
    // Unknown keys: ignored for forward compatibility.
    if (!ok) {
      return Status::InvalidArgument("'# @rule' annotation has a bad '" +
                                     key + "' value '" + value + "'");
    }
  }
  return Status::OK();
}

bool IsNumericToken(const std::string& token) {
  if (token.empty()) return false;
  size_t i = (token[0] == '-' || token[0] == '+') ? 1 : 0;
  if (i == token.size()) return false;
  bool digits = false;
  for (; i < token.size(); ++i) {
    const char c = token[i];
    if (std::isdigit(static_cast<unsigned char>(c))) {
      digits = true;
    } else if (c != '.') {
      return false;
    }
  }
  return digits;
}

/// Masks numeric operands that follow '<' or '>' so two rules differing
/// only in a comparison threshold compare equal. Operands of '=' / '!='
/// are identity tests, not thresholds, and stay verbatim — categorical
/// codes like "404" must not be masked away.
std::string MaskThresholds(const std::string& text) {
  std::istringstream in(text);
  std::string token;
  std::string out;
  bool after_ordering_op = false;
  while (in >> token) {
    if (!out.empty()) out += ' ';
    if (after_ordering_op && IsNumericToken(token)) {
      out += '#';
    } else {
      out += token;
    }
    after_ordering_op = token == "<" || token == ">";
  }
  return out;
}

std::string FormatSigned(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%+.6g", v);
  return buf;
}

std::string DescribeAnnotationDelta(const AnnotatedRule& before,
                                    const AnnotatedRule& after,
                                    RuleChange* change) {
  change->has_annotation_delta = true;
  change->confidence_delta = after.confidence - before.confidence;
  change->support_delta = static_cast<int64_t>(after.support) -
                          static_cast<int64_t>(before.support);
  change->coverage_delta = after.coverage - before.coverage;
  std::string desc;
  if (change->confidence_delta != 0.0) {
    desc += "conf " + FormatSigned(change->confidence_delta);
  }
  if (change->support_delta != 0) {
    if (!desc.empty()) desc += ", ";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "support %+lld",
                  static_cast<long long>(change->support_delta));
    desc += buf;
  }
  if (change->coverage_delta != 0.0) {
    if (!desc.empty()) desc += ", ";
    desc += "coverage " + FormatSigned(change->coverage_delta);
  }
  return desc;
}

bool AnnotationsDiffer(const AnnotatedRule& a, const AnnotatedRule& b) {
  return a.annotated && b.annotated &&
         (a.confidence != b.confidence || a.support != b.support ||
          a.coverage != b.coverage);
}

}  // namespace

Result<std::vector<AnnotatedRule>> ParseAnnotatedRuleFile(
    const std::string& text) {
  std::vector<AnnotatedRule> rules;
  AnnotatedRule pending;
  bool has_pending = false;
  size_t line_no = 0;
  std::istringstream in(text);
  std::string raw;
  while (std::getline(in, raw)) {
    ++line_no;
    if (!raw.empty() && raw.back() == '\r') raw.pop_back();
    const std::string line = Trim(raw);
    if (line.empty()) continue;
    if (line[0] == '#') {
      const std::string body = Trim(line.substr(1));
      if (body.rfind("@rule", 0) == 0) {
        if (has_pending) {
          return Status::InvalidArgument(
              "line " + std::to_string(line_no) +
              ": '# @rule' annotation with no rule line before the next "
              "annotation");
        }
        pending = AnnotatedRule{};
        pending.annotated = true;
        const Status fields = ParseAnnotationFields(body.substr(5), &pending);
        if (!fields.ok()) {
          return Status::InvalidArgument("line " + std::to_string(line_no) +
                                         ": " + fields.message());
        }
        has_pending = true;
      }
      continue;
    }
    AnnotatedRule rule = has_pending ? pending : AnnotatedRule{};
    rule.text = line;
    rule.line = line_no;
    rules.push_back(std::move(rule));
    has_pending = false;
  }
  if (has_pending) {
    return Status::InvalidArgument(
        "trailing '# @rule' annotation with no rule line");
  }
  return rules;
}

Result<std::vector<AnnotatedRule>> LoadAnnotatedRuleFile(
    const std::string& path) {
  DQ_ASSIGN_OR_RETURN(std::ifstream in, OpenInputFile(path));
  std::ostringstream buffer;
  buffer << in.rdbuf();
  auto parsed = ParseAnnotatedRuleFile(buffer.str());
  if (!parsed.ok()) {
    return Status::InvalidArgument(path + ": " + parsed.status().message());
  }
  return parsed;
}

RuleSetDiff DiffRuleSets(const std::vector<AnnotatedRule>& before,
                         const std::vector<AnnotatedRule>& after) {
  RuleSetDiff diff;
  diff.before_rules = before.size();
  diff.after_rules = after.size();

  std::vector<bool> before_used(before.size(), false);
  std::vector<bool> after_used(after.size(), false);
  std::vector<RuleChange> annotation_deltas;
  std::vector<RuleChange> threshold_shifts;

  // Phase 1: exact text match (first unused occurrence pairs up, so
  // duplicated rules match multiset-style).
  for (size_t i = 0; i < before.size(); ++i) {
    for (size_t j = 0; j < after.size(); ++j) {
      if (after_used[j] || after[j].text != before[i].text) continue;
      before_used[i] = true;
      after_used[j] = true;
      if (AnnotationsDiffer(before[i], after[j])) {
        RuleChange change;
        change.kind = "annotation_delta";
        change.before = before[i].text;
        change.after = after[j].text;
        const std::string desc =
            DescribeAnnotationDelta(before[i], after[j], &change);
        change.message = "evidence moved (" + desc + "): " + after[j].text;
        annotation_deltas.push_back(std::move(change));
      } else {
        ++diff.unchanged;
      }
      break;
    }
  }

  // Phase 2: masked match — same shape, shifted </> threshold.
  std::vector<std::string> after_masked(after.size());
  for (size_t j = 0; j < after.size(); ++j) {
    if (!after_used[j]) after_masked[j] = MaskThresholds(after[j].text);
  }
  for (size_t i = 0; i < before.size(); ++i) {
    if (before_used[i]) continue;
    const std::string masked = MaskThresholds(before[i].text);
    for (size_t j = 0; j < after.size(); ++j) {
      if (after_used[j] || after_masked[j] != masked) continue;
      before_used[i] = true;
      after_used[j] = true;
      RuleChange change;
      change.kind = "threshold_shift";
      change.before = before[i].text;
      change.after = after[j].text;
      if (AnnotationsDiffer(before[i], after[j])) {
        DescribeAnnotationDelta(before[i], after[j], &change);
      }
      change.message =
          "'" + before[i].text + "' -> '" + after[j].text + "'";
      threshold_shifts.push_back(std::move(change));
      break;
    }
  }

  // Phase 3: the rest is removed / added.
  std::vector<RuleChange>& changes = diff.changes;
  changes.insert(changes.end(), threshold_shifts.begin(),
                 threshold_shifts.end());
  changes.insert(changes.end(), annotation_deltas.begin(),
                 annotation_deltas.end());
  for (size_t i = 0; i < before.size(); ++i) {
    if (before_used[i]) continue;
    RuleChange change;
    change.kind = "removed";
    change.before = before[i].text;
    change.message = before[i].text;
    changes.push_back(std::move(change));
  }
  for (size_t j = 0; j < after.size(); ++j) {
    if (after_used[j]) continue;
    RuleChange change;
    change.kind = "added";
    change.after = after[j].text;
    change.message = after[j].text;
    changes.push_back(std::move(change));
  }
  return diff;
}

std::string RuleSetDiff::RenderText() const {
  std::string out;
  char head[160];
  std::snprintf(head, sizeof(head),
                "%zu rule(s) before, %zu after: %zu unchanged, %zu change(s)\n",
                before_rules, after_rules, unchanged, changes.size());
  out += head;
  for (const RuleChange& change : changes) {
    char line[512];
    std::snprintf(line, sizeof(line), "  [%-16s] %s\n", change.kind.c_str(),
                  change.message.c_str());
    out += line;
  }
  return out;
}

std::string RuleSetDiff::ToJson(int indent) const {
  JsonObjectWriter out;
  out.Add("schema_version", kSchemaVersion);
  out.Add("before_rules", static_cast<unsigned long long>(before_rules));
  out.Add("after_rules", static_cast<unsigned long long>(after_rules));
  out.Add("unchanged", static_cast<unsigned long long>(unchanged));
  std::string rendered = "[";
  for (size_t i = 0; i < changes.size(); ++i) {
    const RuleChange& change = changes[i];
    JsonObjectWriter obj;
    obj.Add("kind", change.kind);
    obj.Add("before", change.before);
    obj.Add("after", change.after);
    if (change.has_annotation_delta) {
      obj.Add("confidence_delta", change.confidence_delta);
      obj.AddRaw("support_delta", std::to_string(change.support_delta));
      obj.Add("coverage_delta", change.coverage_delta);
    }
    if (i > 0) rendered += ",";
    rendered += obj.Render(0);
  }
  rendered += "]";
  out.AddRaw("changes", std::move(rendered));
  return out.Render(indent) + "\n";
}

}  // namespace dq::obs
