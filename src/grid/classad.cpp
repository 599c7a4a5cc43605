#include "grid/classad.hpp"

#include <cctype>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "util/fmt.hpp"

namespace lattice::grid {

namespace {

enum class Op {
  kLiteral,
  kAttribute,
  kNot,
  kAnd,
  kOr,
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  kAdd,
  kSub,
  kMul,
  kDiv,
};

bool is_undefined(const AdValue& value) {
  return std::holds_alternative<std::monostate>(value);
}

}  // namespace

struct AdExpression::Node {
  Op op = Op::kLiteral;
  AdValue literal;
  std::string attribute;
  std::unique_ptr<Node> left;
  std::unique_ptr<Node> right;
};

AdExpression::AdExpression() = default;
AdExpression::AdExpression(AdExpression&&) noexcept = default;
AdExpression& AdExpression::operator=(AdExpression&&) noexcept = default;
AdExpression::~AdExpression() = default;

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  std::unique_ptr<AdExpression::Node> parse() {
    auto node = parse_or();
    skip_space();
    if (pos_ < text_.size()) fail("trailing input");
    return node;
  }

 private:
  using NodePtr = std::unique_ptr<AdExpression::Node>;

  [[noreturn]] void fail(const std::string& message) const {
    throw std::runtime_error(
        util::format("classad: {} at position {}", message, pos_));
  }

  void skip_space() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool eat(std::string_view token) {
    skip_space();
    if (text_.substr(pos_).starts_with(token)) {
      pos_ += token.size();
      return true;
    }
    return false;
  }

  NodePtr make(Op op, NodePtr left, NodePtr right) {
    auto node = std::make_unique<AdExpression::Node>();
    node->op = op;
    node->left = std::move(left);
    node->right = std::move(right);
    return node;
  }

  NodePtr parse_or() {
    auto node = parse_and();
    while (eat("||")) node = make(Op::kOr, std::move(node), parse_and());
    return node;
  }

  NodePtr parse_and() {
    auto node = parse_cmp();
    while (eat("&&")) node = make(Op::kAnd, std::move(node), parse_cmp());
    return node;
  }

  NodePtr parse_cmp() {
    auto node = parse_sum();
    // Note ordering: check two-char operators first.
    if (eat("==")) return make(Op::kEq, std::move(node), parse_sum());
    if (eat("!=")) return make(Op::kNe, std::move(node), parse_sum());
    if (eat("<=")) return make(Op::kLe, std::move(node), parse_sum());
    if (eat(">=")) return make(Op::kGe, std::move(node), parse_sum());
    if (eat("<")) return make(Op::kLt, std::move(node), parse_sum());
    if (eat(">")) return make(Op::kGt, std::move(node), parse_sum());
    return node;
  }

  NodePtr parse_sum() {
    auto node = parse_term();
    for (;;) {
      if (eat("+")) {
        node = make(Op::kAdd, std::move(node), parse_term());
      } else if (eat("-")) {
        node = make(Op::kSub, std::move(node), parse_term());
      } else {
        return node;
      }
    }
  }

  NodePtr parse_term() {
    auto node = parse_factor();
    for (;;) {
      if (eat("*")) {
        node = make(Op::kMul, std::move(node), parse_factor());
      } else if (eat("/")) {
        node = make(Op::kDiv, std::move(node), parse_factor());
      } else {
        return node;
      }
    }
  }

  NodePtr parse_factor() {
    skip_space();
    if (pos_ >= text_.size()) fail("unexpected end of expression");
    const char ch = text_[pos_];
    if (ch == '(') {
      ++pos_;
      auto node = parse_or();
      skip_space();
      if (pos_ >= text_.size() || text_[pos_] != ')') fail("expected ')'");
      ++pos_;
      return node;
    }
    if (ch == '!') {
      ++pos_;
      return make(Op::kNot, parse_factor(), nullptr);
    }
    if (ch == '"') {
      ++pos_;
      std::string value;
      while (pos_ < text_.size() && text_[pos_] != '"') {
        value += text_[pos_++];
      }
      if (pos_ >= text_.size()) fail("unterminated string");
      ++pos_;
      auto node = std::make_unique<AdExpression::Node>();
      node->literal = value;
      return node;
    }
    if (std::isdigit(static_cast<unsigned char>(ch)) || ch == '.') {
      std::size_t used = 0;
      double value = 0.0;
      try {
        value = std::stod(std::string(text_.substr(pos_)), &used);
      } catch (const std::exception&) {
        fail("bad number");
      }
      pos_ += used;
      auto node = std::make_unique<AdExpression::Node>();
      node->literal = value;
      return node;
    }
    if (std::isalpha(static_cast<unsigned char>(ch)) || ch == '_') {
      std::string name;
      while (pos_ < text_.size() &&
             (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
              text_[pos_] == '_')) {
        name += text_[pos_++];
      }
      if (name == "TRUE" || name == "true" || name == "True") {
        auto node = std::make_unique<AdExpression::Node>();
        node->literal = true;
        return node;
      }
      if (name == "FALSE" || name == "false" || name == "False") {
        auto node = std::make_unique<AdExpression::Node>();
        node->literal = false;
        return node;
      }
      if (name == "UNDEFINED" || name == "undefined") {
        return std::make_unique<AdExpression::Node>();  // monostate literal
      }
      auto node = std::make_unique<AdExpression::Node>();
      node->op = Op::kAttribute;
      node->attribute = name;
      return node;
    }
    fail(util::format("unexpected character '{}'", std::string(1, ch)));
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

AdValue eval_node(const AdExpression::Node& node, const ClassAd& ad);

AdValue three_valued_and(const AdValue& a, const AdValue& b) {
  // Condor semantics: false dominates UNDEFINED.
  const bool* ba = std::get_if<bool>(&a);
  const bool* bb = std::get_if<bool>(&b);
  if (ba && !*ba) return false;
  if (bb && !*bb) return false;
  if (is_undefined(a) || is_undefined(b)) return std::monostate{};
  if (ba && bb) return *ba && *bb;
  return std::monostate{};  // non-boolean operand
}

AdValue three_valued_or(const AdValue& a, const AdValue& b) {
  const bool* ba = std::get_if<bool>(&a);
  const bool* bb = std::get_if<bool>(&b);
  if (ba && *ba) return true;
  if (bb && *bb) return true;
  if (is_undefined(a) || is_undefined(b)) return std::monostate{};
  if (ba && bb) return *ba || *bb;
  return std::monostate{};
}

AdValue compare(Op op, const AdValue& a, const AdValue& b) {
  if (is_undefined(a) || is_undefined(b)) return std::monostate{};
  // Numeric comparison when both are numbers (bool promotes to number for
  // ordering ops only via ==/!=; keep it simple: exact-type comparisons).
  if (const double* na = std::get_if<double>(&a)) {
    const double* nb = std::get_if<double>(&b);
    if (nb == nullptr) return std::monostate{};
    switch (op) {
      case Op::kEq: return *na == *nb;
      case Op::kNe: return *na != *nb;
      case Op::kLt: return *na < *nb;
      case Op::kLe: return *na <= *nb;
      case Op::kGt: return *na > *nb;
      case Op::kGe: return *na >= *nb;
      default: return std::monostate{};
    }
  }
  if (const std::string* sa = std::get_if<std::string>(&a)) {
    const std::string* sb = std::get_if<std::string>(&b);
    if (sb == nullptr) return std::monostate{};
    switch (op) {
      case Op::kEq: return *sa == *sb;
      case Op::kNe: return *sa != *sb;
      case Op::kLt: return *sa < *sb;
      case Op::kLe: return *sa <= *sb;
      case Op::kGt: return *sa > *sb;
      case Op::kGe: return *sa >= *sb;
      default: return std::monostate{};
    }
  }
  if (const bool* ba = std::get_if<bool>(&a)) {
    const bool* bb = std::get_if<bool>(&b);
    if (bb == nullptr) return std::monostate{};
    switch (op) {
      case Op::kEq: return *ba == *bb;
      case Op::kNe: return *ba != *bb;
      default: return std::monostate{};
    }
  }
  return std::monostate{};
}

AdValue arithmetic(Op op, const AdValue& a, const AdValue& b) {
  const double* na = std::get_if<double>(&a);
  const double* nb = std::get_if<double>(&b);
  if (na == nullptr || nb == nullptr) return std::monostate{};
  switch (op) {
    case Op::kAdd: return *na + *nb;
    case Op::kSub: return *na - *nb;
    case Op::kMul: return *na * *nb;
    case Op::kDiv: return *nb == 0.0 ? AdValue{std::monostate{}}
                                     : AdValue{*na / *nb};
    default: return std::monostate{};
  }
}

AdValue eval_node(const AdExpression::Node& node, const ClassAd& ad) {
  switch (node.op) {
    case Op::kLiteral:
      return node.literal;
    case Op::kAttribute: {
      const auto it = ad.find(node.attribute);
      return it == ad.end() ? AdValue{std::monostate{}} : it->second;
    }
    case Op::kNot: {
      const AdValue value = eval_node(*node.left, ad);
      if (const bool* b = std::get_if<bool>(&value)) return !*b;
      return std::monostate{};
    }
    case Op::kAnd:
      return three_valued_and(eval_node(*node.left, ad),
                              eval_node(*node.right, ad));
    case Op::kOr:
      return three_valued_or(eval_node(*node.left, ad),
                             eval_node(*node.right, ad));
    case Op::kEq:
    case Op::kNe:
    case Op::kLt:
    case Op::kLe:
    case Op::kGt:
    case Op::kGe:
      return compare(node.op, eval_node(*node.left, ad),
                     eval_node(*node.right, ad));
    case Op::kAdd:
    case Op::kSub:
    case Op::kMul:
    case Op::kDiv:
      return arithmetic(node.op, eval_node(*node.left, ad),
                        eval_node(*node.right, ad));
  }
  return std::monostate{};
}

}  // namespace

AdExpression AdExpression::parse(std::string_view text) {
  AdExpression expression;
  expression.root_ = Parser(text).parse();
  expression.source_ = std::string(text);
  return expression;
}

AdValue AdExpression::evaluate(const ClassAd& ad) const {
  return eval_node(*root_, ad);
}

std::string condor_requirements_expression(const GridJob& job) {
  std::string expr;
  if (!job.requirements->platforms.empty()) {
    std::string platforms;
    for (const auto& platform : job.requirements->platforms) {
      if (!platforms.empty()) platforms += " || ";
      std::string opsys;
      switch (platform.os) {
        case OsType::kLinux: opsys = "LINUX"; break;
        case OsType::kWindows: opsys = "WINDOWS"; break;
        case OsType::kMacOS: opsys = "OSX"; break;
      }
      std::string arch;
      switch (platform.arch) {
        case Arch::kX86: arch = "INTEL"; break;
        case Arch::kX86_64: arch = "X86_64"; break;
        case Arch::kPowerPC: arch = "PPC"; break;
      }
      platforms += util::format("(OpSys == \"{}\" && Arch == \"{}\")",
                                opsys, arch);
    }
    expr = "(" + platforms + ")";
  }
  if (job.requirements->min_memory_gb > 0.0) {
    const std::string memory = util::format(
        "Memory >= {:.0f}", job.requirements->min_memory_gb * 1024.0);
    expr = expr.empty() ? memory : expr + " && " + memory;
  }
  return expr.empty() ? "TRUE" : expr;
}

bool AdExpression::matches(const ClassAd& ad) const {
  const AdValue value = evaluate(ad);
  const bool* b = std::get_if<bool>(&value);
  return b != nullptr && *b;
}

}  // namespace lattice::grid
