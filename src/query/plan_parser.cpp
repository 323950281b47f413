#include "query/plan_parser.hpp"

#include <optional>

#include "spec/diagnostics.hpp"
#include "spec/lexer.hpp"

namespace ndpgen::query {

namespace {

using spec::Token;
using spec::TokenKind;

/// Thrown internally and converted to a located Status at the boundary —
/// the plan parser never lets exceptions escape.
struct ParseFailure {
  Status status;
};

[[noreturn]] void fail(spec::SourceLoc loc, std::string message) {
  throw ParseFailure{
      spec::status_at(ErrorKind::kPlanInvalid, loc, std::move(message))};
}

class PlanParser {
 public:
  explicit PlanParser(std::vector<Token> tokens)
      : tokens_(std::move(tokens)) {}

  Plan parse() {
    Plan plan;
    expect_word("plan");
    plan.name = expect(TokenKind::kIdentifier, "plan name").text;
    expect(TokenKind::kLBrace, "plan body");
    if (!check_word("scan")) {
      fail(peek().loc, "plan must start with a scan operator");
    }
    while (!check(TokenKind::kRBrace)) {
      plan.ops.push_back(parse_op());
    }
    expect(TokenKind::kRBrace, "plan body");
    expect(TokenKind::kEof, "after plan");
    return plan;
  }

 private:
  PlanOp parse_op() {
    const Token& head = expect(TokenKind::kIdentifier, "operator");
    PlanOp op;
    op.loc = head.loc;
    if (head.text == "scan") {
      op.kind = OpKind::kScan;
      op.dataset = parse_dataset();
    } else if (head.text == "filter") {
      op.kind = OpKind::kFilter;
      do {
        op.predicates.push_back(parse_predicate());
      } while (match(TokenKind::kComma));
    } else if (head.text == "project") {
      op.kind = OpKind::kProject;
      do {
        op.columns.push_back(parse_column());
      } while (match(TokenKind::kComma));
    } else if (head.text == "join") {
      op.kind = OpKind::kHashJoin;
      op.build_dataset = parse_dataset();
      expect_word("on");
      op.probe_column = parse_column();
      const Token& cmp = expect(TokenKind::kIdentifier, "join comparison");
      if (cmp.text != "eq") {
        fail(cmp.loc, "hash-join supports only 'eq'");
      }
      op.build_column = parse_column();
    } else if (head.text == "aggregate") {
      op.kind = OpKind::kAggregate;
      const Token& fn = expect(TokenKind::kIdentifier, "aggregate op");
      op.agg_op = parse_agg_op(fn);
      if (check(TokenKind::kIdentifier) && peek().text != "group") {
        op.agg_column = parse_column();
      }
      if (check_word("group")) {
        advance();
        op.group_column = parse_column();
      }
    } else if (head.text == "topk") {
      op.kind = OpKind::kTopK;
      op.k = expect(TokenKind::kInteger, "topk count").int_value;
      expect_word("by");
      op.order_column = parse_column();
      if (check_word("asc")) {
        advance();
        op.descending = false;
      } else if (check_word("desc")) {
        advance();
        op.descending = true;
      }
    } else {
      fail(head.loc, "unknown operator '" + head.text +
                         "' (expected scan/filter/project/join/aggregate/"
                         "topk)");
    }
    expect(TokenKind::kSemicolon, "operator");
    return op;
  }

  Dataset parse_dataset() {
    const Token& token = expect(TokenKind::kIdentifier, "dataset");
    if (const auto dataset = workload::parse_dataset(token.text)) {
      return *dataset;
    }
    fail(token.loc,
         "unknown dataset '" + token.text + "' (expected papers or refs)");
  }

  PlanPredicate parse_predicate() {
    PlanPredicate pred;
    const Token& column = peek();
    pred.loc = column.loc;
    pred.column = parse_column();
    pred.op = expect(TokenKind::kIdentifier, "comparison operator").text;
    pred.value = expect(TokenKind::kInteger, "predicate value").int_value;
    return pred;
  }

  /// A column name, optionally dotted ("refs.dst").
  std::string parse_column() {
    std::string name = expect(TokenKind::kIdentifier, "column").text;
    while (match(TokenKind::kDot)) {
      name += "." + expect(TokenKind::kIdentifier, "column").text;
    }
    return name;
  }

  hwgen::AggOp parse_agg_op(const Token& token) {
    if (token.text == "count") return hwgen::AggOp::kCount;
    if (token.text == "sum") return hwgen::AggOp::kSum;
    if (token.text == "min") return hwgen::AggOp::kMin;
    if (token.text == "max") return hwgen::AggOp::kMax;
    fail(token.loc, "unknown aggregate '" + token.text +
                        "' (expected count/sum/min/max)");
  }

  [[nodiscard]] const Token& peek() const noexcept { return tokens_[pos_]; }
  const Token& advance() noexcept {
    const Token& token = tokens_[pos_];
    if (pos_ + 1 < tokens_.size()) ++pos_;
    return token;
  }
  [[nodiscard]] bool check(TokenKind kind) const noexcept {
    return peek().kind == kind;
  }
  [[nodiscard]] bool check_word(std::string_view word) const noexcept {
    return peek().kind == TokenKind::kIdentifier && peek().text == word;
  }
  bool match(TokenKind kind) noexcept {
    if (!check(kind)) return false;
    advance();
    return true;
  }
  const Token& expect(TokenKind kind, std::string_view context) {
    if (!check(kind)) {
      fail(peek().loc, "expected " + std::string(spec::to_string(kind)) +
                           " for " + std::string(context) + ", got " +
                           std::string(spec::to_string(peek().kind)));
    }
    return advance();
  }
  void expect_word(std::string_view word) {
    if (!check_word(word)) {
      fail(peek().loc, "expected '" + std::string(word) + "', got '" +
                           peek().text + "'");
    }
    advance();
  }

  std::vector<Token> tokens_;
  std::size_t pos_ = 0;
};

}  // namespace

Result<Plan> parse_plan(std::string_view source) {
  std::vector<Token> tokens;
  try {
    tokens = spec::Lexer(source).tokenize();
  } catch (const Error& error) {
    // Lexer failures (kLex) become plan diagnostics with their location.
    return Result<Plan>(
        Status{ErrorKind::kPlanInvalid, error.message(), error.line(),
               error.column()});
  }
  try {
    Plan plan = PlanParser(std::move(tokens)).parse();
    plan.source = std::string(source);
    auto schema = validate(plan);
    if (!schema.ok()) return Result<Plan>(schema.status());
    return plan;
  } catch (const ParseFailure& failure) {
    return Result<Plan>(failure.status);
  }
}

}  // namespace ndpgen::query
