#include "lattice-lint/lint.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <map>
#include <regex>
#include <set>
#include <sstream>

namespace lattice::lint {
namespace {

// ---------------------------------------------------------------------------
// Lexing: classify every byte of the file as code, comment, or string so the
// rules can look at the view they care about. Rules that hunt identifiers
// (clocks, rng, containers) use the `code` view with comments *and* literal
// bodies blanked; the metric-name rule uses `code_str` (literals kept,
// comments blanked); suppression parsing uses the `comment` view.
// ---------------------------------------------------------------------------

struct Views {
  std::string code;      // comments and string/char literals blanked
  std::string code_str;  // comments blanked, string literals kept
  std::string comment;   // only comment text kept
};

Views lex(std::string_view text) {
  enum class State { kCode, kLine, kBlock, kString, kChar, kRaw };
  Views v;
  v.code.assign(text.size(), ' ');
  v.code_str.assign(text.size(), ' ');
  v.comment.assign(text.size(), ' ');
  State state = State::kCode;
  std::string raw_delim;  // for R"delim( ... )delim"
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    const char next = i + 1 < text.size() ? text[i + 1] : '\0';
    if (c == '\n') {
      v.code[i] = v.code_str[i] = v.comment[i] = '\n';
      if (state == State::kLine) state = State::kCode;
      continue;
    }
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLine;
          --i;  // reprocess as comment
          continue;
        }
        if (c == '/' && next == '*') {
          state = State::kBlock;
          v.comment[i] = c;
          continue;
        }
        if (c == 'R' && next == '"' &&
            (i == 0 || (!std::isalnum(static_cast<unsigned char>(text[i - 1])) &&
                        text[i - 1] != '_'))) {
          // Raw string literal: find the delimiter up to '('.
          std::size_t j = i + 2;
          raw_delim.clear();
          while (j < text.size() && text[j] != '(') raw_delim += text[j++];
          state = State::kRaw;
          v.code_str[i] = c;
          continue;
        }
        if (c == '"') {
          state = State::kString;
          v.code_str[i] = c;
          continue;
        }
        if (c == '\'') {
          // Not a char literal when preceded by an identifier/number char:
          // digit separators (1'000) and user-defined literal suffixes.
          if (i > 0 && (std::isalnum(static_cast<unsigned char>(text[i - 1])) ||
                        text[i - 1] == '_')) {
            v.code[i] = c;
            v.code_str[i] = c;
            continue;
          }
          state = State::kChar;
          continue;
        }
        v.code[i] = c;
        v.code_str[i] = c;
        continue;
      case State::kLine:
        v.comment[i] = c;
        continue;
      case State::kBlock:
        v.comment[i] = c;
        if (c == '*' && next == '/') {
          v.comment[i + 1] = '/';
          ++i;
          state = State::kCode;
        }
        continue;
      case State::kString:
        v.code_str[i] = c;
        if (c == '\\' && next != '\0' && next != '\n') {
          if (i + 1 < text.size()) v.code_str[i + 1] = next;
          ++i;
          continue;
        }
        if (c == '"') state = State::kCode;
        continue;
      case State::kChar:
        if (c == '\\' && next != '\0' && next != '\n') {
          ++i;
          continue;
        }
        if (c == '\'') state = State::kCode;
        continue;
      case State::kRaw: {
        v.code_str[i] = c;
        // Close on )delim"
        if (c == ')' && text.compare(i + 1, raw_delim.size(), raw_delim) == 0 &&
            i + 1 + raw_delim.size() < text.size() &&
            text[i + 1 + raw_delim.size()] == '"') {
          for (std::size_t k = 0; k <= raw_delim.size() + 1; ++k) {
            if (i + k < text.size() && text[i + k] != '\n') {
              v.code_str[i + k] = text[i + k];
            }
          }
          i += raw_delim.size() + 1;
          state = State::kCode;
        }
        continue;
      }
    }
  }
  return v;
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == '\n') {
      lines.emplace_back(text.substr(start, i - start));
      start = i + 1;
    }
  }
  return lines;
}

bool blank(const std::string& s) {
  return std::all_of(s.begin(), s.end(), [](unsigned char c) {
    return std::isspace(c) != 0;
  });
}

// ---------------------------------------------------------------------------
// Suppressions:  // lattice-lint: allow(<rule>) — <reason>
// A suppression on a line whose code view is blank applies to the next line
// (the clang-format-friendly form); otherwise it applies to its own line.
// ---------------------------------------------------------------------------

struct ParsedSuppression {
  int target_line;  // 1-based line the suppression covers
  int comment_line;
  std::string rule;
  std::string reason;  // empty when malformed
  bool well_formed;
};

const std::regex& allow_re() {
  // Reason separator: em dash, en dash, or one/two ASCII hyphens.
  static const std::regex re(
      R"(lattice-lint:\s*allow\(\s*([A-Za-z0-9_-]+)\s*\)\s*(?:\xE2\x80\x94|\xE2\x80\x93|--|-)?\s*(.*))");
  return re;
}

std::vector<ParsedSuppression> parse_suppressions(
    const std::vector<std::string>& comment_lines,
    const std::vector<std::string>& code_lines) {
  std::vector<ParsedSuppression> out;
  for (std::size_t i = 0; i < comment_lines.size(); ++i) {
    const std::string& comment = comment_lines[i];
    if (comment.find("lattice-lint:") == std::string::npos) continue;
    std::smatch m;
    std::string rest = comment;
    if (!std::regex_search(rest, m, allow_re())) continue;
    ParsedSuppression s;
    s.comment_line = static_cast<int>(i) + 1;
    s.rule = m[1];
    std::string reason = m[2];
    // Trim.
    while (!reason.empty() && std::isspace(static_cast<unsigned char>(
                                  reason.back()))) {
      reason.pop_back();
    }
    // Require a real separator before the reason: the captured group only
    // matches after the optional dash, so a bare "allow(x) words" without a
    // dash is also accepted iff non-empty — but an empty tail is malformed.
    s.reason = reason;
    s.well_formed = !reason.empty();
    const bool standalone = blank(code_lines[i]);
    s.target_line = standalone ? static_cast<int>(i) + 2
                               : static_cast<int>(i) + 1;
    out.push_back(std::move(s));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Unordered-container declaration scan (whole-file, code view).
// ---------------------------------------------------------------------------

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

// Returns declared variable names plus alias type names for
// unordered_map/unordered_set in `code`.
void scan_unordered_decls(const std::string& code,
                          std::set<std::string>* vars,
                          std::set<std::string>* aliases) {
  static const std::regex decl_re(R"(unordered_(?:map|set)\s*<)");
  for (auto it = std::sregex_iterator(code.begin(), code.end(), decl_re);
       it != std::sregex_iterator(); ++it) {
    const std::size_t token_start = static_cast<std::size_t>(it->position());
    // Skip if part of a longer identifier (e.g. my_unordered_map_thing).
    if (token_start > 0 && ident_char(code[token_start - 1]) &&
        code[token_start - 1] != ':') {
      continue;
    }
    std::size_t p = token_start + static_cast<std::size_t>(it->length());
    int depth = 1;
    while (p < code.size() && depth > 0) {
      if (code[p] == '<') ++depth;
      if (code[p] == '>') --depth;
      ++p;
    }
    if (depth != 0) continue;
    // Alias?  using NAME = std::unordered_map<...>
    {
      std::size_t b = token_start;
      // Walk back over "std::", whitespace, "const".
      auto skip_back_ws = [&](std::size_t pos) {
        while (pos > 0 &&
               std::isspace(static_cast<unsigned char>(code[pos - 1]))) {
          --pos;
        }
        return pos;
      };
      if (b >= 5 && code.compare(b - 5, 5, "std::") == 0) b -= 5;
      b = skip_back_ws(b);
      if (b >= 1 && code[b - 1] == '=') {
        std::size_t e = skip_back_ws(b - 1);
        std::size_t s = e;
        while (s > 0 && ident_char(code[s - 1])) --s;
        const std::string name = code.substr(s, e - s);
        std::size_t u = skip_back_ws(s);
        if (u >= 5 && code.compare(u - 5, 5, "using") == 0 && !name.empty()) {
          aliases->insert(name);
          continue;
        }
      }
    }
    // Declaration?  ...> [&*]* name [;,=({)]
    while (p < code.size() &&
           (std::isspace(static_cast<unsigned char>(code[p])) ||
            code[p] == '&' || code[p] == '*')) {
      ++p;
    }
    std::size_t s = p;
    while (p < code.size() && ident_char(code[p])) ++p;
    if (p == s) continue;
    const std::string name = code.substr(s, p - s);
    while (p < code.size() &&
           std::isspace(static_cast<unsigned char>(code[p]))) {
      ++p;
    }
    if (p < code.size() &&
        (code[p] == ';' || code[p] == ',' || code[p] == '=' ||
         code[p] == '{' || code[p] == '(' || code[p] == ')')) {
      vars->insert(name);
    }
  }
}

// Resolve alias declarations:  AliasName var;
// Returns the (line, var) pairs so alias-typed declarations can be both
// audited (unordered-alias) and tracked for the iteration rule.
struct AliasDecl {
  int line;
  std::string var;
  std::string alias;
};

std::vector<AliasDecl> collect_alias_decls(
    const std::string& code, const std::vector<std::size_t>& line_starts,
    const std::set<std::string>& aliases) {
  std::vector<AliasDecl> out;
  for (const std::string& alias : aliases) {
    const std::regex re("\\b" + alias + R"(\s+([A-Za-z_]\w*)\s*[;={(])");
    for (auto it = std::sregex_iterator(code.begin(), code.end(), re);
         it != std::sregex_iterator(); ++it) {
      out.push_back(AliasDecl{
          0, (*it)[1], alias});
      out.back().line = static_cast<int>(
          std::upper_bound(line_starts.begin(), line_starts.end(),
                           static_cast<std::size_t>(it->position())) -
          line_starts.begin());
    }
  }
  return out;
}

// using LOCAL = KnownAlias;  — a local re-alias of a (possibly injected)
// unordered alias. Returns (line, new-alias-name) pairs.
std::vector<AliasDecl> collect_realiases(
    const std::string& code, const std::vector<std::size_t>& line_starts,
    const std::set<std::string>& aliases) {
  std::vector<AliasDecl> out;
  for (const std::string& alias : aliases) {
    const std::regex re(
        R"(using\s+([A-Za-z_]\w*)\s*=\s*(?:\w+\s*::\s*)*)" + alias +
        R"(\s*[;<])");
    for (auto it = std::sregex_iterator(code.begin(), code.end(), re);
         it != std::sregex_iterator(); ++it) {
      out.push_back(AliasDecl{0, (*it)[1], alias});
      out.back().line = static_cast<int>(
          std::upper_bound(line_starts.begin(), line_starts.end(),
                           static_cast<std::size_t>(it->position())) -
          line_starts.begin());
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Metric-name scan (code_str view).
// ---------------------------------------------------------------------------

bool metric_name_ok(const std::string& name) {
  static const std::regex re(R"(^[a-z][a-z0-9]*(\.[a-z][a-z0-9_]*)+$)");
  return std::regex_match(name, re);
}

struct MetricCall {
  std::size_t pos;      // byte offset of the call head
  std::string method;
  std::string literal;  // the name/category literal ("" when absent)
  bool has_literal;
};

std::vector<MetricCall> scan_metric_calls(const std::string& code_str) {
  static const std::regex head_re(
      R"((\.|->)\s*(wall_track|async_begin|async_end|complete_wall|histogram|counter|gauge|track|instant|complete)\s*\()");
  static const std::map<std::string, int> literal_index = {
      {"counter", 1},   {"gauge", 1},      {"histogram", 1},
      {"track", 1},     {"wall_track", 1}, {"async_begin", 2},
      {"async_end", 2}, {"instant", 2},    {"complete", 2},
      {"complete_wall", 2}};
  std::vector<MetricCall> calls;
  for (auto it =
           std::sregex_iterator(code_str.begin(), code_str.end(), head_re);
       it != std::sregex_iterator(); ++it) {
    MetricCall call;
    call.pos = static_cast<std::size_t>(it->position());
    call.method = (*it)[2];
    // Walk the argument list collecting string literals until the matching
    // close paren. Adjacent literals concatenate.
    std::size_t p = call.pos + static_cast<std::size_t>(it->length());
    int depth = 1;
    int literal_no = 0;
    const int want = literal_index.at(call.method);
    call.has_literal = false;
    std::string current;
    bool in_string = false;
    bool just_closed = false;
    while (p < code_str.size() && depth > 0) {
      const char c = code_str[p];
      if (in_string) {
        if (c == '\\') {
          current += c;
          if (p + 1 < code_str.size()) current += code_str[++p];
        } else if (c == '"') {
          in_string = false;
          just_closed = true;
        } else {
          current += c;
        }
      } else if (c == '"') {
        if (!just_closed) {
          ++literal_no;
          current.clear();
        }
        in_string = true;
      } else {
        if (just_closed &&
            std::isspace(static_cast<unsigned char>(c)) == 0) {
          // Literal finished (next token is not a continuation literal).
          if (literal_no == want) {
            call.literal = current;
            call.has_literal = true;
            break;
          }
          just_closed = false;
        }
        if (c == '(') ++depth;
        if (c == ')') --depth;
      }
      ++p;
    }
    if (!call.has_literal && just_closed && literal_no == want) {
      call.literal = current;
      call.has_literal = true;
    }
    calls.push_back(std::move(call));
  }
  return calls;
}

int line_of(const std::vector<std::size_t>& line_starts, std::size_t pos) {
  const auto it =
      std::upper_bound(line_starts.begin(), line_starts.end(), pos);
  return static_cast<int>(it - line_starts.begin());
}

// ---------------------------------------------------------------------------
// kernel-callback-throw: a `throw` inside the argument list of a sim-kernel
// scheduling call (at/after/PeriodicTask). A throw expression can only
// reach that span through a lambda body, and an exception escaping an
// event-loop handler kills the run mid-epoch, so every hit is a finding.
// ---------------------------------------------------------------------------

struct KernelThrow {
  std::size_t pos;      // byte offset of the throw keyword
  std::string method;   // at / after / PeriodicTask
};

std::vector<KernelThrow> scan_kernel_throws(const std::string& code) {
  static const std::regex head_re(
      R"((?:(\.|->)\s*(at|after)|(PeriodicTask)\b[^;{}()\n]*)\s*\()");
  static const std::regex throw_re(R"(\bthrow\b)");
  std::vector<KernelThrow> hits;
  for (auto it = std::sregex_iterator(code.begin(), code.end(), head_re);
       it != std::sregex_iterator(); ++it) {
    const std::string method =
        (*it)[2].matched ? (*it)[2].str() : std::string("PeriodicTask");
    // Walk to the matching close paren of the scheduling call.
    std::size_t p = static_cast<std::size_t>(it->position() + it->length());
    const std::size_t arg_start = p;
    int depth = 1;
    while (p < code.size() && depth > 0) {
      if (code[p] == '(') ++depth;
      if (code[p] == ')') --depth;
      ++p;
    }
    if (depth != 0) continue;
    const std::string args = code.substr(arg_start, p - arg_start);
    for (auto th = std::sregex_iterator(args.begin(), args.end(), throw_re);
         th != std::sregex_iterator(); ++th) {
      hits.push_back(
          KernelThrow{arg_start + static_cast<std::size_t>(th->position()),
                      method});
    }
  }
  return hits;
}

}  // namespace

const std::vector<std::string>& rule_ids() {
  static const std::vector<std::string> ids = {
      "wall-clock",          "ambient-rng",
      "unordered-member",    "unordered-alias",
      "unordered-iteration", "kernel-callback-throw",
      "metric-name",         "header-self-contained",
      "intrinsics-confined",
      "decision-sort",       "layering-violation",
      "layering-cycle",      "suppression-syntax",
      "suppression-unknown-rule", "suppression-undocumented",
      "suppression-dead"};
  return ids;
}

std::vector<Suppression> collect_suppressions(std::string_view path,
                                              std::string_view text) {
  const Views views = lex(text);
  const auto comment_lines = split_lines(views.comment);
  const auto code_lines = split_lines(views.code);
  std::vector<Suppression> out;
  for (const ParsedSuppression& s :
       parse_suppressions(comment_lines, code_lines)) {
    if (!s.well_formed) continue;
    out.push_back(Suppression{std::string(path), s.target_line, s.rule,
                              s.reason});
  }
  return out;
}

std::vector<Finding> lint_source(std::string_view path, std::string_view text,
                                 const Options& options) {
  const Views views = lex(text);
  const auto code_lines = split_lines(views.code);
  const auto comment_lines = split_lines(views.comment);
  std::vector<Finding> findings;
  const std::string file(path);

  // --- Suppressions (and their own lint) ---------------------------------
  const auto suppressions = parse_suppressions(comment_lines, code_lines);
  auto suppressed = [&](int line, std::string_view rule) {
    for (const ParsedSuppression& s : suppressions) {
      if (s.well_formed && s.target_line == line && s.rule == rule) {
        return true;
      }
    }
    return false;
  };
  // Record a finding: suppressed ones are dropped in the default mode but
  // retained (flagged) for the raw view (--json, suppression-dead).
  auto add = [&](int line, const char* rule, std::string message) {
    const bool covered = suppressed(line, rule);
    if (covered && options.apply_suppressions) return;
    findings.push_back(
        Finding{file, line, rule, std::move(message), covered});
  };
  for (const ParsedSuppression& s : suppressions) {
    if (!s.well_formed) {
      findings.push_back(Finding{
          file, s.comment_line, "suppression-syntax",
          "allow(" + s.rule +
              ") needs a reason: `// lattice-lint: allow(<rule>) — <why>`",
          false});
    }
    if (std::find(rule_ids().begin(), rule_ids().end(), s.rule) ==
        rule_ids().end()) {
      findings.push_back(Finding{
          file, s.comment_line, "suppression-unknown-rule",
          "unknown rule id '" + s.rule + "' in suppression", false});
    }
  }

  std::vector<std::size_t> line_starts{0};
  for (std::size_t i = 0; i < views.code.size(); ++i) {
    if (views.code[i] == '\n') line_starts.push_back(i + 1);
  }

  // --- Deterministic-path rules ------------------------------------------
  if (options.deterministic) {
    struct Pattern {
      const char* rule;
      std::regex re;
      const char* what;
    };
    static const std::vector<Pattern> patterns = [] {
      std::vector<Pattern> p;
      p.push_back({"wall-clock",
                   std::regex(R"((system_clock|steady_clock|high_resolution_clock)\s*::)"),
                   "wall/steady clock read"});
      p.push_back({"wall-clock",
                   std::regex(R"((^|[^A-Za-z0-9_])time\s*\()"),
                   "time() call"});
      p.push_back({"wall-clock",
                   std::regex(R"((^|[^A-Za-z0-9_])clock\s*\()"),
                   "clock() call"});
      p.push_back({"wall-clock",
                   std::regex(
                       R"(\b(localtime|gmtime|mktime|strftime|gettimeofday|clock_gettime)\s*\()"),
                   "wall-clock library call"});
      p.push_back({"wall-clock", std::regex(R"(\bwall_now_us\s*\()"),
                   "Tracer::wall_now_us() read"});
      p.push_back({"ambient-rng",
                   std::regex(R"((^|[^A-Za-z0-9_:])s?rand\s*\()"),
                   "ambient C rand()/srand()"});
      p.push_back({"ambient-rng", std::regex(R"(\brandom_device\b)"),
                   "std::random_device (nondeterministic seed source)"});
      return p;
    }();
    for (std::size_t i = 0; i < code_lines.size(); ++i) {
      const int line = static_cast<int>(i) + 1;
      for (const Pattern& p : patterns) {
        if (std::regex_search(code_lines[i], p.re)) {
          add(line, p.rule,
              std::string(p.what) +
                  " in deterministic code (allowed only in obs/ or with a "
                  "tagged suppression)");
        }
      }
    }

    // unordered-member: every textual mention of an unordered container in
    // a deterministic file is an audit point.
    static const std::regex member_re(R"(\bunordered_(map|set)\s*<)");
    for (std::size_t i = 0; i < code_lines.size(); ++i) {
      const std::string& l = code_lines[i];
      const std::size_t first = l.find_first_not_of(" \t");
      if (first != std::string::npos && l[first] == '#') continue;  // include
      const int line = static_cast<int>(i) + 1;
      if (std::regex_search(l, member_re)) {
        add(line, "unordered-member",
            "unordered container in a deterministic path: convert to "
            "ordered/vector storage or justify with a suppression");
      }
    }

    // Local declarations plus the project model's cross-header knowledge.
    std::set<std::string> vars;
    std::set<std::string> aliases;
    scan_unordered_decls(views.code, &vars, &aliases);

    // unordered-alias: declarations whose type is an alias (local alias
    // names are reported by unordered-member at their definition; alias
    // names injected from the model fire here, because the defining header
    // is out of view for the per-file pass).
    std::set<std::string> all_aliases = aliases;
    for (const std::string& a : options.unordered_aliases) {
      all_aliases.insert(a);
    }
    // Re-aliases (`using Local = HostMap;`) extend the alias set and are
    // themselves audit points when they launder an injected alias.
    for (int pass = 0; pass < 2; ++pass) {  // two passes: chain of re-alias
      for (const AliasDecl& d :
           collect_realiases(views.code, line_starts, all_aliases)) {
        if (all_aliases.insert(d.var).second &&
            options.unordered_aliases.count(d.alias) > 0) {
          add(d.line, "unordered-alias",
              "'" + d.var + "' re-aliases '" + d.alias +
                  "', which resolves to an unordered container in another "
                  "header: audit or convert to ordered storage");
        }
      }
    }
    for (const AliasDecl& d :
         collect_alias_decls(views.code, line_starts, all_aliases)) {
      vars.insert(d.var);
      if (aliases.count(d.alias) == 0) {
        // The alias was defined elsewhere (injected or re-aliased): the
        // declaration itself is the audit point the alias laundered away.
        add(d.line, "unordered-alias",
            "'" + d.var + "' is declared via alias '" + d.alias +
                "', which resolves to an unordered container: audit or "
                "convert to ordered storage");
      }
    }

    // unordered-iteration over anything known to be unordered: local
    // declarations, alias-typed declarations, and member names indexed by
    // the project model (a .cpp iterating `matrix_cache_` declared in its
    // header is the cross-TU escape the per-file scan used to miss).
    std::set<std::string> iterables = vars;
    for (const std::string& m : options.unordered_members) {
      iterables.insert(m);
    }
    if (!iterables.empty()) {
      for (std::size_t i = 0; i < code_lines.size(); ++i) {
        const int line = static_cast<int>(i) + 1;
        const std::string& l = code_lines[i];
        std::smatch m;
        static const std::regex range_for_re(
            R"(for\s*\([^;()]*:\s*(?:[A-Za-z_]\w*\s*(?:\.|->)\s*)*([A-Za-z_]\w*)\s*\))");
        if (std::regex_search(l, m, range_for_re) && iterables.count(m[1])) {
          add(line, "unordered-iteration",
              "range-for over unordered container '" + m[1].str() +
                  "': iteration order is hash-order, not deterministic "
                  "across platforms");
        }
        static const std::regex begin_re(
            R"((^|[^A-Za-z0-9_])([A-Za-z_]\w*)\s*\.\s*c?r?begin\s*\()");
        if (std::regex_search(l, m, begin_re) && iterables.count(m[2])) {
          add(line, "unordered-iteration",
              "iterator walk over unordered container '" + m[2].str() +
                  "': iteration order is hash-order, not deterministic "
                  "across platforms");
        }
      }
    }

    // kernel-callback-throw: exceptions may not cross the event loop.
    for (const KernelThrow& hit : scan_kernel_throws(views.code)) {
      add(line_of(line_starts, hit.pos), "kernel-callback-throw",
          "throw inside a callback handed to the sim kernel (" + hit.method +
              "): an exception escaping an event handler kills the run "
              "mid-epoch — validate before scheduling, or fail via the "
              "outcome path");
    }
  }

  // --- Decision-path rules -----------------------------------------------
  if (options.decision_path) {
    // Sorting inside src/grid or src/core is presumed to sit on a
    // per-decision path (matchmaking, ranking) unless audited otherwise:
    // a decision takes its (rank key, name) minimum in one pass over the
    // directory, so a new sort here is an O(n log n)-per-decision
    // regression.
    static const std::regex sort_re(
        R"(\bstd\s*::\s*(stable_sort|partial_sort|nth_element|sort)\s*\()");
    for (std::size_t i = 0; i < code_lines.size(); ++i) {
      const int line = static_cast<int>(i) + 1;
      std::smatch m;
      if (std::regex_search(code_lines[i], m, sort_re)) {
        add(line, "decision-sort",
            "std::" + m[1].str() +
                " in a scheduler decision-path dir: take the minimum in one "
                "pass (or tag the sort as off the decision path with a "
                "suppression)");
      }
    }
  }

  // --- Intrinsics confinement (all files outside src/phylo/kernels/) -----
  // Raw SIMD usage anywhere else would fork the arithmetic per ISA and
  // break the cross-tier bit-determinism contract the kernel module's
  // dispatcher guarantees (DESIGN.md §14): vector code lives behind the
  // KernelOps table or not at all.
  if (!options.intrinsics_allowed) {
    static const std::regex intrin_re(
        R"(\b_mm\d*_\w+\s*\(|\b__m(128|256|512)[id]?\b|\b__AVX\w*__\b|\bimmintrin\.h\b)");
    for (std::size_t i = 0; i < code_lines.size(); ++i) {
      const int line = static_cast<int>(i) + 1;
      if (std::regex_search(code_lines[i], intrin_re)) {
        add(line, "intrinsics-confined",
            "raw SIMD intrinsic / vector type / ISA guard outside "
            "src/phylo/kernels/: route vector code through the KernelOps "
            "dispatch table so every other layer stays ISA-neutral");
      }
    }
  }

  // --- Metric/trace name grammar (all files) -----------------------------
  {
    std::vector<std::size_t> str_line_starts{0};
    for (std::size_t i = 0; i < views.code_str.size(); ++i) {
      if (views.code_str[i] == '\n') str_line_starts.push_back(i + 1);
    }
    for (const MetricCall& call : scan_metric_calls(views.code_str)) {
      const int line = line_of(str_line_starts, call.pos);
      if (!call.has_literal) continue;  // variable name: check_docs covers it
      if (!metric_name_ok(call.literal)) {
        add(line, "metric-name",
            "'" + call.literal + "' (arg of ." + call.method +
                ") does not match the `subsystem.noun_verb` grammar "
                "[a-z0-9]+(.[a-z0-9_]+)+");
      }
    }
  }

  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.line != b.line) return a.line < b.line;
              if (a.rule != b.rule) return a.rule < b.rule;
              return a.message < b.message;
            });
  findings.erase(
      std::unique(findings.begin(), findings.end(),
                  [](const Finding& a, const Finding& b) {
                    return a.line == b.line && a.rule == b.rule &&
                           a.message == b.message;
                  }),
      findings.end());
  return findings;
}

std::string format(const Finding& finding) {
  std::ostringstream out;
  out << finding.file << ':' << finding.line << ' ' << finding.rule << ' '
      << finding.message;
  return out.str();
}

std::string to_json(const std::vector<Finding>& findings) {
  auto escape = [](const std::string& s) {
    std::string out;
    out.reserve(s.size() + 2);
    for (const char c : s) {
      switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\r': out += "\\r"; break;
        case '\t': out += "\\t"; break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
          } else {
            out += c;
          }
      }
    }
    return out;
  };
  std::ostringstream out;
  out << "[";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    out << (i ? ",\n  " : "\n  ") << "{\"file\": \"" << escape(f.file)
        << "\", \"line\": " << f.line << ", \"rule\": \"" << escape(f.rule)
        << "\", \"message\": \"" << escape(f.message)
        << "\", \"suppressed\": " << (f.suppressed ? "true" : "false")
        << "}";
  }
  out << (findings.empty() ? "]" : "\n]");
  return out.str();
}

namespace detail {

std::string code_view(std::string_view text) { return lex(text).code; }

void collect_unordered_names(const std::string& code,
                             std::set<std::string>* vars,
                             std::set<std::string>* aliases) {
  scan_unordered_decls(code, vars, aliases);
}

}  // namespace detail

}  // namespace lattice::lint
