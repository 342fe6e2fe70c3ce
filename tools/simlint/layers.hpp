// Include-graph layering checker (DESIGN.md §12).
//
// simlint builds the repo's quoted-include DAG from code_lines() (so
// includes in comments, strings and raw strings never count) and enforces
// the layer order of the as-built architecture:
//
//   0 src/util
//   1 src/obs, src/faults          (event records / fault schedules are
//                                   foundational inputs to the simulator)
//   2 src/containers, src/nn
//   3 src/sim, src/rl
//   4 src/policies
//   5 src/core, src/fleet, src/fstartbench
//   6 src/serve
//   7 bench, tools, examples, tests
//
// A file may include its own layer or below; an include that reaches a
// *higher* layer is `layer-upward`, and any cycle in the resolved include
// graph is `layer-cycle` (reported at the include that closes the cycle).
// Angle-bracket includes (standard/system headers) and quoted includes that
// do not resolve inside the scanned tree are ignored.
//
// `// simlint:allow(layer-upward)` / `allow(layer-cycle)` suppressions are
// honored here through the same Suppressions parser lint_source uses;
// `lint_source` exempts these two ids from its unused-suppression accounting
// because the layer analysis runs as a separate whole-tree pass.
#pragma once

#include <string>
#include <vector>

#include "simlint/lint.hpp"

namespace mlcr::simlint {

/// One translation unit handed to the layering analysis.
struct LayerFile {
  std::string rel_path;  ///< repo-relative, forward-slash separated
  std::string source;
};

/// Metadata for the layering rules (layer-cycle, layer-upward) — kept out of
/// rules() because these run as a whole-tree pass, not per translation unit.
[[nodiscard]] const std::vector<RuleInfo>& layer_rules();

/// Layer rank of a repo-relative path; lower is more foundational. Paths
/// outside every known layer get the top rank (they may include anything).
[[nodiscard]] int layer_of(const std::string& rel_path);

/// Run the layering analysis over a set of files (includes are resolved only
/// against this set). Violations are sorted by (file, line, rule).
[[nodiscard]] std::vector<Violation> check_layers(
    const std::vector<LayerFile>& files);

/// Scan `roots` (relative to `repo_root`) for C++ sources and run
/// check_layers over them. Fixture trees (any path component `fixtures`)
/// are skipped — they contain deliberate violations.
[[nodiscard]] std::vector<Violation> lint_layers(
    const std::string& repo_root, const std::vector<std::string>& roots);

}  // namespace mlcr::simlint
