// simlint command-line tool: runs the per-file rules over the given roots
// plus the include-graph layering pass over the whole tree, and exits
// non-zero when any rule fires. Run as a CTest over src/, bench/, tests/ and
// examples/ (see tools/simlint/CMakeLists.txt); CI's lint-strict job adds
// --json --github.
//
//   simlint --root <repo_root> [--list-rules] [--json <path>] [--github]
//           [dir...]
//
//   --json <path>  write the machine-readable report (schema self-checked
//                  via obs::check_simlint_json before writing)
//   --github       emit GitHub Actions ::error annotations alongside the
//                  human-readable lines
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "obs/schema_check.hpp"
#include "simlint/layers.hpp"
#include "simlint/lint.hpp"

namespace {

// The layering pass always covers the whole architecture, independent of
// which roots the per-file rules were asked to scan.
const std::vector<std::string> kLayerRoots = {"src", "bench", "tests",
                                              "tools", "examples"};

}  // namespace

int main(int argc, char** argv) {
  std::string repo_root = ".";
  std::string json_path;
  std::vector<std::string> roots;
  bool list_rules = false;
  bool github = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--root" && i + 1 < argc)
      repo_root = argv[++i];
    else if (arg == "--json" && i + 1 < argc)
      json_path = argv[++i];
    else if (arg == "--list-rules")
      list_rules = true;
    else if (arg == "--github")
      github = true;
    else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: simlint --root <repo_root> [--list-rules] "
                   "[--json <path>] [--github] [dir...]\n";
      return 0;
    } else
      roots.push_back(arg);
  }
  if (roots.empty()) roots = {"src", "bench", "tests"};

  if (list_rules) {
    for (const auto& rule : mlcr::simlint::rules())
      std::cout << rule.id << ": " << rule.description << "\n";
    for (const auto& rule : mlcr::simlint::layer_rules())
      std::cout << rule.id << ": " << rule.description << "\n";
    return 0;
  }

  std::vector<mlcr::simlint::Violation> violations;
  try {
    violations = mlcr::simlint::lint_tree(repo_root, roots);
    for (auto& v : mlcr::simlint::lint_layers(repo_root, kLayerRoots))
      violations.push_back(std::move(v));
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return 2;
  }

  for (const auto& v : violations) {
    std::cout << v.file << ":" << v.line << ": [" << v.rule << "] "
              << v.message << "\n";
    if (github)
      std::cout << "::error file=" << v.file << ",line=" << v.line
                << "::[" << v.rule << "] " << v.message << "\n";
  }

  if (!json_path.empty()) {
    const std::string report = mlcr::simlint::violations_to_json(violations);
    const std::vector<std::string> schema_errors =
        mlcr::obs::check_simlint_json(report);
    if (!schema_errors.empty()) {
      for (const auto& err : schema_errors)
        std::cerr << "simlint --json internal schema error: " << err << "\n";
      return 2;
    }
    std::ofstream os(json_path, std::ios::binary);
    if (!os.is_open()) {
      std::cerr << "simlint: cannot write " << json_path << "\n";
      return 2;
    }
    os << report << "\n";
  }

  if (!violations.empty()) {
    std::cout << violations.size() << " violation(s)\n";
    return 1;
  }
  return 0;
}
