// lattice-lint — project-invariant static checks for the lattice tree.
//
// The simulator and likelihood engine promise bit-deterministic results
// (DESIGN.md §9); these rules make that promise *statically* enforceable so
// a refactor cannot quietly reintroduce wall-clock reads, ambient RNG, or
// hash-order-dependent iteration into a deterministic path. The engine is
// two-pass: pass 1 (model.hpp) builds a project model — the full #include
// graph over src/, bench/, examples/, and tools/, plus a symbol index of
// using-aliases/typedefs/struct members that resolve (transitively, across
// headers) to unordered containers; pass 2 runs the per-file rules below
// with the model's cross-TU knowledge injected through Options. Each file
// is still lexed (comments and string literals are recognized, not parsed),
// which is exactly enough for the invariants below because the project
// style keeps the relevant constructs on one line and metric names as
// literal strings at the call site (see src/obs/metrics.hpp).
//
// Rules (ids are stable; docs/LINTING.md is the catalog):
//   wall-clock           no system/steady/high_resolution clock, time(),
//                        clock(), gettimeofday, or Tracer::wall_now_us in
//                        deterministic code
//   ambient-rng          no rand()/srand()/std::random_device; use the
//                        seeded util::Rng
//   unordered-member     every unordered_map/unordered_set mention in a
//                        deterministic file must carry an audit suppression
//   unordered-alias      a declaration whose type is a using-alias/typedef
//                        that resolves (transitively, across headers) to an
//                        unordered container is the same audit point — the
//                        alias loophole the per-file rule could not see
//   unordered-iteration  no range-for or begin()/end() iteration over a
//                        variable or struct member known (locally or via
//                        the project model) to be an unordered container
//   kernel-callback-throw no `throw` inside a lambda handed to the sim
//                        kernel (at/after/PeriodicTask): an exception
//                        escaping the event loop kills the run mid-epoch
//   metric-name          metric/trace name literals follow the cataloged
//                        `subsystem.noun_verb` grammar
//   decision-sort        no std::sort/stable_sort/partial_sort/nth_element
//                        in scheduler decision-path dirs (src/grid,
//                        src/core) without an audit suppression — a
//                        decision takes its minimum in one pass, never
//                        a sort
//   layering-violation   (model-level) an include edge that contradicts
//                        the declared module DAG in layering.ini; hard
//                        finding, not suppressible
//   layering-cycle       (model-level) a cycle in the include graph, at
//                        file or module granularity; hard finding
//   header-self-contained (driver-level) every .hpp compiles standalone
//   suppression-syntax   allow() comment without a reason string
//   suppression-unknown-rule  allow() naming a rule id that does not exist
//   suppression-undocumented  suppression missing from the docs inventory
//   suppression-dead     a suppression whose rule no longer fires at that
//                        site, or a docs-inventory row with no matching
//                        suppression left in the tree
//
// Suppression syntax, same line or the immediately preceding comment line:
//   // lattice-lint: allow(<rule-id>) — <reason>
// The reason is mandatory; `--docs` additionally cross-checks every
// suppression against the inventory table in docs/LINTING.md, in both
// directions (undocumented suppression / stale inventory row).
#pragma once

#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace lattice::lint {

struct Finding {
  std::string file;
  int line = 0;
  std::string rule;
  std::string message;
  /// True when a well-formed suppression covers this finding. Suppressed
  /// findings are dropped from the text report and the exit status but are
  /// kept (flagged) in the --json stream so editors and CI see the full
  /// audit surface.
  bool suppressed = false;
};

struct Suppression {
  std::string file;
  int line = 0;   // line the suppression applies to
  std::string rule;
  std::string reason;
};

struct Options {
  /// Deterministic file: wall-clock, ambient-rng, the unordered rules and
  /// kernel-callback-throw are active. Metric-name is checked everywhere.
  bool deterministic = false;
  /// Scheduler decision-path file (src/grid, src/core): the decision-sort
  /// rule is active — a decision takes its minimum in one pass, so every
  /// sort there must carry an audit suppression placing it off the
  /// decision path.
  bool decision_path = false;
  /// When false, findings covered by a well-formed suppression are still
  /// returned, marked `suppressed = true` — the raw view the
  /// suppression-dead analysis and the --json mode need.
  bool apply_suppressions = true;
  /// Project-model injection (pass 1 → pass 2): type names — aliases or
  /// typedefs, possibly defined in another header — known to resolve
  /// transitively to std::unordered_map/std::unordered_set.
  std::set<std::string> unordered_aliases;
  /// Project-model injection: struct/class member names whose declared
  /// type resolves to an unordered container; `for (auto& x : obj.member)`
  /// in another TU is hash-order iteration even though the declaring
  /// header is out of view.
  std::set<std::string> unordered_members;
  /// True only for files under src/phylo/kernels/: raw SIMD intrinsics
  /// (`_mm*`), vector register types (`__m256d`, ...), `<immintrin.h>`
  /// includes, and `__AVX*__` preprocessor guards are confined to the
  /// kernel module so the engine and search layers stay ISA-neutral
  /// (DESIGN.md §14). Everywhere else they fire intrinsics-confined.
  bool intrinsics_allowed = false;
};

/// All rule ids the engine knows (suppressions must name one of these).
const std::vector<std::string>& rule_ids();

/// Lint one source file already loaded into `text`. `path` is used only
/// for reporting. Findings come back sorted by (line, rule).
std::vector<Finding> lint_source(std::string_view path, std::string_view text,
                                 const Options& options);

/// Collect the (well-formed) suppressions present in `text`, for the
/// docs-inventory cross-check, the dead-suppression analysis, and
/// `--list-suppressions`.
std::vector<Suppression> collect_suppressions(std::string_view path,
                                              std::string_view text);

/// Stable report line: `<file>:<line> <rule-id> <message>`.
std::string format(const Finding& finding);

/// Stable machine-readable report: a JSON array of objects with exactly
/// the keys {"file", "line", "rule", "message", "suppressed"} in that
/// order, sorted like the text report. Safe for any message content
/// (escapes quotes, backslashes, and control characters).
std::string to_json(const std::vector<Finding>& findings);

namespace detail {

/// The file with comments and string/char literals blanked to spaces
/// (newlines kept), shared between the per-file rules and the project
/// model so both passes agree on what counts as code.
std::string code_view(std::string_view text);

/// Scan `code` (a code_view) for unordered-container declarations:
/// `vars` receives declared variable/member names, `aliases` receives
/// names bound with `using NAME = std::unordered_{map,set}<...>`.
void collect_unordered_names(const std::string& code,
                             std::set<std::string>* vars,
                             std::set<std::string>* aliases);

}  // namespace detail

}  // namespace lattice::lint
