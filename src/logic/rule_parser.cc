#include "logic/rule_parser.h"

#include <cctype>
#include <fstream>
#include <sstream>

#include "common/input_file.h"
#include "common/strings.h"
#include "table/date.h"

namespace dq {

std::string SourceLocation::ToString() const {
  return "line " + std::to_string(line) + ", column " + std::to_string(column);
}

const char* ParseErrorKindToString(ParseError::Kind kind) {
  switch (kind) {
    case ParseError::Kind::kSyntax:
      return "syntax";
    case ParseError::Kind::kUnknownAttribute:
      return "unknown-attribute";
    case ParseError::Kind::kTypeMismatch:
      return "type-mismatch";
    case ParseError::Kind::kBadConstant:
      return "bad-constant";
  }
  return "?";
}

std::string ParseError::Render() const {
  return loc.ToString() + " ('" + token + "'): " + message;
}

namespace {

enum class TokenKind {
  kWord,    // attribute name, keyword or bare constant
  kQuoted,  // 'constant'
  kOp,      // = != < >
  kArrow,   // ->
  kLParen,
  kRParen,
  kEnd,
};

struct Token {
  TokenKind kind = TokenKind::kEnd;
  std::string text;
  size_t pos = 0;  // character offset within the parsed text
};

std::string TokenDisplay(const Token& token) {
  return token.kind == TokenKind::kEnd ? "<end>" : token.text;
}

/// Builds a ParseError anchored at `token` on line `line`.
ParseError MakeError(ParseError::Kind kind, size_t line, const Token& token,
                     std::string message) {
  ParseError err;
  err.kind = kind;
  err.loc.line = line;
  err.loc.column = token.pos + 1;
  err.token = TokenDisplay(token);
  err.message = std::move(message);
  return err;
}

bool IsWordChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '.' ||
         c == '-' || c == '+' || c == ':';
}

/// Tokenizes `text`; returns false and fills `*error` on lexical failure.
bool Tokenize(const std::string& text, size_t line, std::vector<Token>* tokens,
              ParseError* error) {
  size_t i = 0;
  while (i < text.size()) {
    const char c = text[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    Token token;
    token.pos = i;
    if (c == '-' && i + 1 < text.size() && text[i + 1] == '>') {
      token.kind = TokenKind::kArrow;
      token.text = "->";
      i += 2;
    } else if (c == '(') {
      token.kind = TokenKind::kLParen;
      token.text = "(";
      ++i;
    } else if (c == ')') {
      token.kind = TokenKind::kRParen;
      token.text = ")";
      ++i;
    } else if (c == '=' || c == '<' || c == '>') {
      token.kind = TokenKind::kOp;
      token.text = std::string(1, c);
      ++i;
    } else if (c == '!' && i + 1 < text.size() && text[i + 1] == '=') {
      token.kind = TokenKind::kOp;
      token.text = "!=";
      i += 2;
    } else if (c == '\'') {
      const size_t close = text.find('\'', i + 1);
      if (close == std::string::npos) {
        Token at;
        at.pos = i;
        at.kind = TokenKind::kWord;
        at.text = text.substr(i);
        *error = MakeError(ParseError::Kind::kSyntax, line, at,
                           "unterminated quote");
        return false;
      }
      token.kind = TokenKind::kQuoted;
      token.text = text.substr(i + 1, close - i - 1);
      i = close + 1;
    } else if (IsWordChar(c)) {
      size_t j = i;
      while (j < text.size() && IsWordChar(text[j])) {
        // Stop before an arrow embedded after a '-'.
        if (text[j] == '-' && j + 1 < text.size() && text[j + 1] == '>') break;
        ++j;
      }
      token.kind = TokenKind::kWord;
      token.text = text.substr(i, j - i);
      i = j;
    } else {
      Token at;
      at.pos = i;
      at.kind = TokenKind::kWord;
      at.text = std::string(1, c);
      *error = MakeError(ParseError::Kind::kSyntax, line, at,
                         "unexpected character '" + std::string(1, c) + "'");
      return false;
    }
    tokens->push_back(std::move(token));
  }
  Token end;
  end.kind = TokenKind::kEnd;
  end.pos = text.size();
  tokens->push_back(end);
  return true;
}

std::string Lower(std::string s) {
  for (char& c : s) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return s;
}

/// Recursive-descent parser over the token stream. Failures are recorded as
/// a structured ParseError (the Status returned through Result<> carries the
/// rendered form of the same error).
class Parser {
 public:
  Parser(const Schema& schema, std::vector<Token> tokens, size_t line)
      : schema_(schema), tokens_(std::move(tokens)), line_(line) {}

  Result<Formula> ParseFormulaToEnd() {
    DQ_ASSIGN_OR_RETURN(Formula f, ParseOr());
    if (Peek().kind != TokenKind::kEnd) {
      return Error(ParseError::Kind::kSyntax, Peek(),
                   "trailing input after formula");
    }
    return f;
  }

  Result<Rule> ParseRuleToEnd() {
    first_token_pos_ = Peek().pos;
    DQ_ASSIGN_OR_RETURN(Formula premise, ParseOr());
    if (Peek().kind != TokenKind::kArrow) {
      return Error(ParseError::Kind::kSyntax, Peek(), "expected '->'");
    }
    premise_atom_count_ = atom_locs_.size();
    Advance();
    DQ_ASSIGN_OR_RETURN(Formula consequent, ParseOr());
    if (Peek().kind != TokenKind::kEnd) {
      return Error(ParseError::Kind::kSyntax, Peek(),
                   "trailing input after rule");
    }
    Rule rule;
    rule.premise = std::move(premise);
    rule.consequent = std::move(consequent);
    return rule;
  }

  const ParseError& error() const { return error_; }
  size_t first_token_pos() const { return first_token_pos_; }
  const std::vector<SourceLocation>& atom_locs() const { return atom_locs_; }
  size_t premise_atom_count() const { return premise_atom_count_; }

 private:
  const Token& Peek() const { return tokens_[pos_]; }
  void Advance() { ++pos_; }

  Status Error(ParseError::Kind kind, const Token& token, std::string what) {
    error_ = MakeError(kind, line_, token, std::move(what));
    return error_.ToStatus();
  }

  bool PeekKeyword(const char* keyword) const {
    return Peek().kind == TokenKind::kWord && Lower(Peek().text) == keyword;
  }

  Result<Formula> ParseOr() {
    DQ_ASSIGN_OR_RETURN(Formula first, ParseAnd());
    std::vector<Formula> parts;
    parts.push_back(std::move(first));
    while (PeekKeyword("or")) {
      Advance();
      DQ_ASSIGN_OR_RETURN(Formula next, ParseAnd());
      parts.push_back(std::move(next));
    }
    return Formula::Or(std::move(parts));
  }

  Result<Formula> ParseAnd() {
    DQ_ASSIGN_OR_RETURN(Formula first, ParseUnit());
    std::vector<Formula> parts;
    parts.push_back(std::move(first));
    while (PeekKeyword("and")) {
      Advance();
      DQ_ASSIGN_OR_RETURN(Formula next, ParseUnit());
      parts.push_back(std::move(next));
    }
    return Formula::And(std::move(parts));
  }

  Result<Formula> ParseUnit() {
    if (Peek().kind == TokenKind::kLParen) {
      Advance();
      DQ_ASSIGN_OR_RETURN(Formula inner, ParseOr());
      if (Peek().kind != TokenKind::kRParen) {
        return Error(ParseError::Kind::kSyntax, Peek(), "expected ')'");
      }
      Advance();
      return inner;
    }
    return ParseAtom();
  }

  Result<Formula> ParseAtom() {
    if (Peek().kind != TokenKind::kWord) {
      return Error(ParseError::Kind::kSyntax, Peek(),
                   "expected an attribute name");
    }
    const Token name_token = Peek();
    auto attr = schema_.IndexOf(name_token.text);
    if (!attr.ok()) {
      return Error(ParseError::Kind::kUnknownAttribute, name_token,
                   "unknown attribute '" + name_token.text + "'");
    }
    Advance();
    atom_locs_.push_back(SourceLocation{line_, name_token.pos + 1});

    // Null tests.
    if (PeekKeyword("isnull")) {
      Advance();
      return Formula::MakeAtom(Atom::Prop(*attr, AtomOp::kIsNull));
    }
    if (PeekKeyword("isnotnull")) {
      Advance();
      return Formula::MakeAtom(Atom::Prop(*attr, AtomOp::kIsNotNull));
    }

    if (Peek().kind != TokenKind::kOp) {
      return Error(ParseError::Kind::kSyntax, Peek(),
                   "expected '=', '!=', '<', '>' or a null test");
    }
    AtomOp op;
    if (Peek().text == "=") {
      op = AtomOp::kEq;
    } else if (Peek().text == "!=") {
      op = AtomOp::kNeq;
    } else if (Peek().text == "<") {
      op = AtomOp::kLt;
    } else {
      op = AtomOp::kGt;
    }
    Advance();

    const Token operand = Peek();
    if (operand.kind != TokenKind::kWord && operand.kind != TokenKind::kQuoted) {
      return Error(ParseError::Kind::kSyntax, operand, "expected an operand");
    }
    Advance();

    // A bare operand naming a schema attribute means a relational atom.
    if (operand.kind == TokenKind::kWord) {
      auto rhs_attr = schema_.IndexOf(operand.text);
      if (rhs_attr.ok()) {
        Atom atom = Atom::Rel(*attr, op, *rhs_attr);
        Status valid = ValidateAtom(atom, schema_);
        if (!valid.ok()) {
          return Error(ParseError::Kind::kTypeMismatch, operand,
                       valid.message());
        }
        return Formula::MakeAtom(atom);
      }
    }

    auto value = schema_.ParseValue(*attr, operand.text);
    if (!value.ok()) {
      return Error(ParseError::Kind::kBadConstant, operand,
                   "cannot parse '" + operand.text +
                       "' as a value of attribute '" + name_token.text +
                       "': " + value.status().message());
    }
    Atom atom = Atom::Prop(*attr, op, *value);
    Status valid = ValidateAtom(atom, schema_);
    if (!valid.ok()) {
      const ParseError::Kind kind = valid.code() == StatusCode::kOutOfRange
                                        ? ParseError::Kind::kBadConstant
                                        : ParseError::Kind::kTypeMismatch;
      return Error(kind, operand, valid.message());
    }
    return Formula::MakeAtom(atom);
  }

  const Schema& schema_;
  std::vector<Token> tokens_;
  size_t line_ = 1;
  size_t pos_ = 0;
  ParseError error_;
  size_t first_token_pos_ = 0;
  std::vector<SourceLocation> atom_locs_;
  size_t premise_atom_count_ = 0;
};

}  // namespace

Result<Formula> ParseFormula(const Schema& schema, const std::string& text) {
  std::vector<Token> tokens;
  ParseError lex_error;
  if (!Tokenize(text, 1, &tokens, &lex_error)) return lex_error.ToStatus();
  Parser parser(schema, std::move(tokens), 1);
  return parser.ParseFormulaToEnd();
}

Result<Rule> ParseRule(const Schema& schema, const std::string& text) {
  ParsedRule parsed;
  ParseError error;
  if (!ParseRuleDetailed(schema, text, 1, &parsed, &error)) {
    return error.ToStatus();
  }
  return std::move(parsed.rule);
}

bool ParseRuleDetailed(const Schema& schema, const std::string& text,
                       size_t line, ParsedRule* out, ParseError* error) {
  std::vector<Token> tokens;
  if (!Tokenize(text, line, &tokens, error)) return false;
  Parser parser(schema, std::move(tokens), line);
  auto rule = parser.ParseRuleToEnd();
  if (!rule.ok()) {
    *error = parser.error();
    return false;
  }
  out->rule = std::move(*rule);
  out->loc = SourceLocation{line, parser.first_token_pos() + 1};
  out->text = std::string(TrimWhitespace(text));
  const auto& locs = parser.atom_locs();
  const size_t split = parser.premise_atom_count();
  out->premise_atom_locs.assign(locs.begin(),
                                locs.begin() + static_cast<ptrdiff_t>(split));
  out->consequent_atom_locs.assign(locs.begin() + static_cast<ptrdiff_t>(split),
                                   locs.end());
  return true;
}

Result<std::vector<Rule>> ParseRuleFile(const Schema& schema,
                                        std::istream* in) {
  std::vector<Rule> rules;
  std::string line;
  size_t line_no = 0;
  while (std::getline(*in, line)) {
    ++line_no;
    std::string_view trimmed = TrimWhitespace(line);
    if (trimmed.empty() || trimmed.front() == '#') continue;
    ParsedRule parsed;
    ParseError error;
    if (!ParseRuleDetailed(schema, line, line_no, &parsed, &error)) {
      return Status::InvalidArgument("rule file " + error.Render());
    }
    rules.push_back(std::move(parsed.rule));
  }
  return rules;
}

Result<std::vector<Rule>> ParseRuleFileAt(const Schema& schema,
                                          const std::string& path) {
  DQ_ASSIGN_OR_RETURN(std::ifstream f, OpenInputFile(path));
  return ParseRuleFile(schema, &f);
}

RuleFileParse ParseRuleFileLenient(const Schema& schema, std::istream* in) {
  RuleFileParse result;
  std::string line;
  size_t line_no = 0;
  while (std::getline(*in, line)) {
    ++line_no;
    std::string_view trimmed = TrimWhitespace(line);
    if (trimmed.empty() || trimmed.front() == '#') continue;
    ParsedRule parsed;
    ParseError error;
    if (ParseRuleDetailed(schema, line, line_no, &parsed, &error)) {
      result.rules.push_back(std::move(parsed));
    } else {
      result.errors.push_back(std::move(error));
    }
  }
  return result;
}

Result<RuleFileParse> ParseRuleFileLenientAt(const Schema& schema,
                                             const std::string& path) {
  DQ_ASSIGN_OR_RETURN(std::ifstream f, OpenInputFile(path));
  return ParseRuleFileLenient(schema, &f);
}

namespace {

bool IsKeywordText(const std::string& text) {
  const std::string lower = Lower(text);
  return lower == "or" || lower == "and" || lower == "isnull" ||
         lower == "isnotnull";
}

/// True when `text` survives the tokenizer as one bare word token that the
/// grammar reads back as a constant (not an attribute, keyword or operator).
bool ParsesAsBareConstant(const std::string& text, const Schema& schema) {
  if (text.empty() || IsKeywordText(text)) return false;
  if (schema.IndexOf(text).ok()) return false;  // would become relational
  for (size_t i = 0; i < text.size(); ++i) {
    if (!IsWordChar(text[i])) return false;
    // The tokenizer splits a word before an embedded arrow.
    if (text[i] == '-' && i + 1 < text.size() && text[i + 1] == '>') {
      return false;
    }
  }
  return true;
}

std::string RenderConstantSource(int attr, const Value& v,
                                 const Schema& schema) {
  const AttributeDef& def = schema.attribute(static_cast<size_t>(attr));
  switch (def.type) {
    case DataType::kNominal: {
      const std::string text = schema.ValueToString(attr, v);
      return ParsesAsBareConstant(text, schema) ? text : "'" + text + "'";
    }
    case DataType::kNumeric:
      return FormatDoubleRoundTrip(v.numeric());
    case DataType::kDate:
      return FormatDate(v.date_days());
  }
  return schema.ValueToString(attr, v);
}

std::string RenderAtomSource(const Atom& atom, const Schema& schema) {
  const std::string lhs =
      schema.attribute(static_cast<size_t>(atom.lhs_attr)).name;
  switch (atom.op) {
    case AtomOp::kIsNull:
      return lhs + " isnull";
    case AtomOp::kIsNotNull:
      return lhs + " isnotnull";
    default:
      break;
  }
  const std::string rhs =
      atom.rhs_is_attr
          ? schema.attribute(static_cast<size_t>(atom.rhs_attr)).name
          : RenderConstantSource(atom.lhs_attr, atom.rhs_value, schema);
  return lhs + " " + AtomOpToString(atom.op) + " " + rhs;
}

}  // namespace

std::string RenderFormulaSource(const Formula& f, const Schema& schema) {
  if (f.is_atom()) return RenderAtomSource(f.atom(), schema);
  const char* joiner = f.kind() == Formula::Kind::kAnd ? " AND " : " OR ";
  std::string out;
  for (size_t i = 0; i < f.children().size(); ++i) {
    if (i > 0) out += joiner;
    const Formula& child = f.children()[i];
    if (child.is_atom()) {
      out += RenderFormulaSource(child, schema);
    } else {
      out += "(" + RenderFormulaSource(child, schema) + ")";
    }
  }
  return out;
}

std::string RenderRuleSource(const Rule& rule, const Schema& schema) {
  return RenderFormulaSource(rule.premise, schema) + " -> " +
         RenderFormulaSource(rule.consequent, schema);
}

}  // namespace dq
