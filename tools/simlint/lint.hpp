// simlint: a repo-specific static checker for the determinism and
// memory-safety contract of the MLCR simulator (see DESIGN.md, "Determinism
// contract"). It scans C++ sources lexically — no compiler front-end — and
// reports rule violations with file:line. Rules are table-driven: adding one
// is a ~20-line entry in lint.cpp, pinned by a fixture under
// tools/simlint/fixtures/.
//
// Suppression: append `// simlint:allow(<rule-id>)` to the flagged line (or
// the line above it), or `// simlint:allow-file(<rule-id>)` anywhere in the
// file to silence a rule for the whole file. Every suppression should carry a
// justification comment, and one that no longer suppresses anything (or
// names an unknown rule) is itself an error: unused-suppression.
//
// There is one lexer, code_lines(): it blanks comments and literals but keeps
// line structure, so every rule — per-file here, include-graph layering in
// layers.hpp — is a scan over the same lines. Lock order is not checked
// here: util::LockOrderValidator (src/util/lock_audit.hpp) enforces it at
// runtime; simlint keeps only `bare-lock`, which has no runtime counterpart.
#pragma once

#include <string>
#include <vector>

namespace mlcr::simlint {

/// One rule violation, reported as `file:line: [rule] message`.
struct Violation {
  std::string file;  ///< repo-relative path
  std::size_t line = 0;
  std::string rule;
  std::string message;
};

struct RuleInfo {
  std::string id;
  std::string description;
};

/// Metadata for every registered rule (for --list-rules and fixture tests).
[[nodiscard]] const std::vector<RuleInfo>& rules();

/// Lint one translation unit given as text. `rel_path` selects path-scoped
/// rules (e.g. the uninitialized-member heuristic only runs under src/sim and
/// src/containers). `paired_header` is the content of the unit's sibling
/// header, if any; it contributes container-member declarations to the
/// unordered-iteration rule but is not itself linted by this call.
[[nodiscard]] std::vector<Violation> lint_source(
    const std::string& source, const std::string& rel_path,
    const std::string& paired_header = {});

/// Lint a file on disk; reads the paired .hpp next to a .cpp automatically.
[[nodiscard]] std::vector<Violation> lint_file(const std::string& path,
                                               const std::string& rel_path);

/// Recursively lint every .hpp/.cpp under `roots` (paths relative to
/// `repo_root`), reporting repo-relative file names, sorted by (file, line).
[[nodiscard]] std::vector<Violation> lint_tree(
    const std::string& repo_root, const std::vector<std::string>& roots);

/// `source` split into lines with comments and string/char literals blanked
/// to spaces, so rule patterns never match inside them. Line i of the result
/// is line i of the source.
[[nodiscard]] std::vector<std::string> code_lines(const std::string& source);

/// The `simlint:allow(...)` comments of one file. allowed() marks every entry
/// that covers (rule, line) as used, so the caller can report the rest.
class Suppressions {
 public:
  struct Entry {
    std::string rule;
    std::size_t line = 0;  ///< 1-based line of the comment itself
    bool file_level = false;
    bool used = false;
  };

  explicit Suppressions(const std::string& source);

  /// True if an entry names `rule` and is file-level, on `line` (1-based),
  /// or on the line above it.
  [[nodiscard]] bool allowed(const std::string& rule, std::size_t line);

  [[nodiscard]] const std::vector<Entry>& entries() const { return entries_; }

 private:
  std::vector<Entry> entries_;
};

/// Repo-relative paths (forward slashes) of every .hpp/.cpp/.h/.cc file under
/// `roots` (relative to `repo_root`), sorted.
[[nodiscard]] std::vector<std::string> source_files(
    const std::string& repo_root, const std::vector<std::string>& roots);

/// Whole file contents; throws std::runtime_error if it cannot be read.
[[nodiscard]] std::string read_file(const std::string& path);

/// Serialize violations as the machine-readable report `--json` emits:
///   {"tool": "simlint", "count": N,
///    "violations": [{"file", "line", "rule", "message"}*]}
/// The schema is validated by obs::check_simlint_json (and by simlint itself
/// before writing the report).
[[nodiscard]] std::string violations_to_json(
    const std::vector<Violation>& violations);

}  // namespace mlcr::simlint
