#include "table/schema_spec.h"

#include <fstream>
#include <sstream>

#include "common/input_file.h"
#include "common/strings.h"
#include "table/date.h"

namespace dq {

Result<Schema> ParseSchemaSpec(std::istream* in) {
  Schema schema;
  std::string line;
  size_t line_no = 0;
  while (std::getline(*in, line)) {
    ++line_no;
    std::string_view trimmed = TrimWhitespace(line);
    if (trimmed.empty() || trimmed.front() == '#') continue;

    std::istringstream ls{std::string(trimmed)};
    std::string name, type;
    ls >> name >> type;
    if (name.empty() || type.empty()) {
      return Status::InvalidArgument("schema spec line " +
                                     std::to_string(line_no) +
                                     ": expected '<name> <type> ...'");
    }
    Status added;
    if (type == "nominal") {
      std::string cats;
      ls >> cats;
      auto categories = SplitString(cats, ',');
      added = schema.AddNominal(name, std::move(categories));
    } else if (type == "numeric") {
      double lo = 0, hi = 0;
      ls >> lo >> hi;
      if (!ls) {
        return Status::InvalidArgument("schema spec line " +
                                       std::to_string(line_no) +
                                       ": numeric needs '<min> <max>'");
      }
      added = schema.AddNumeric(name, lo, hi);
    } else if (type == "date") {
      std::string lo_text, hi_text;
      ls >> lo_text >> hi_text;
      auto lo = ParseDate(lo_text);
      auto hi = ParseDate(hi_text);
      if (!lo.ok() || !hi.ok()) {
        return Status::InvalidArgument(
            "schema spec line " + std::to_string(line_no) +
            ": date needs '<YYYY-MM-DD> <YYYY-MM-DD>'");
      }
      added = schema.AddDate(name, *lo, *hi);
    } else {
      return Status::InvalidArgument("schema spec line " +
                                     std::to_string(line_no) +
                                     ": unknown type '" + type + "'");
    }
    if (!added.ok()) {
      return Status::InvalidArgument("schema spec line " +
                                     std::to_string(line_no) + ": " +
                                     added.message());
    }
  }
  if (schema.num_attributes() == 0) {
    return Status::InvalidArgument("schema spec defines no attributes");
  }
  return schema;
}

Result<Schema> ParseSchemaSpecFile(const std::string& path) {
  DQ_ASSIGN_OR_RETURN(std::ifstream f, OpenInputFile(path));
  return ParseSchemaSpec(&f);
}

std::string FormatSchemaSpec(const Schema& schema) {
  std::string out;
  for (const AttributeDef& attr : schema.attributes()) {
    out += attr.name;
    switch (attr.type) {
      case DataType::kNominal:
        out += " nominal " + JoinStrings(attr.categories, ",");
        break;
      case DataType::kNumeric:
        // The shortest exact spelling: a rounded one would parse back to
        // another bound (1e-300 to 0).
        out += " numeric " + FormatDoubleRoundTrip(attr.numeric_min) + " " +
               FormatDoubleRoundTrip(attr.numeric_max);
        break;
      case DataType::kDate:
        out += " date " + FormatDate(attr.date_min) + " " +
               FormatDate(attr.date_max);
        break;
    }
    out += "\n";
  }
  return out;
}

}  // namespace dq
