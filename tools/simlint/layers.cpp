#include "simlint/layers.hpp"

#include <algorithm>
#include <filesystem>
#include <functional>
#include <map>
#include <regex>
#include <sstream>

namespace mlcr::simlint {

namespace {

constexpr char kCycleId[] = "layer-cycle";
constexpr char kUpwardId[] = "layer-upward";

struct LayerSpec {
  const char* prefix;
  int layer;
};

// The as-built layer order; see layers.hpp for the rationale. obs/faults sit
// below sim because event records and fault schedules are inputs the
// simulator consumes, not instrumentation layered on top of it.
const LayerSpec kLayers[] = {
    {"src/util/", 0},        {"src/obs/", 1},    {"src/faults/", 1},
    {"src/containers/", 2},  {"src/nn/", 2},     {"src/sim/", 3},
    {"src/rl/", 3},          {"src/policies/", 4}, {"src/core/", 5},
    {"src/fleet/", 5},       {"src/fstartbench/", 5}, {"src/serve/", 6},
    {"bench/", 7},           {"tools/", 7},      {"examples/", 7},
    {"tests/", 7},
};

constexpr int kTopLayer = 8;

[[nodiscard]] bool starts_with(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

struct Include {
  std::size_t line = 0;
  std::string target;
};

/// Quoted `#include "..."` directives. code_lines() keeps line structure, so
/// a code line that is still an `#include` once comments and literals are
/// blanked is a real directive, and its path is on the same raw line.
/// Includes inside comments, strings and raw strings are blanked away;
/// angle includes do not match the quoted form.
[[nodiscard]] std::vector<Include> quoted_includes(const std::string& source) {
  static const std::regex kDirective(R"(^\s*#\s*include\b)");
  static const std::regex kQuoted(R"re(^\s*#\s*include\s*"([^"]+)")re");
  const std::vector<std::string> code = code_lines(source);
  std::istringstream is(source);
  std::string raw;
  std::vector<Include> out;
  for (std::size_t i = 0; i < code.size() && std::getline(is, raw); ++i) {
    std::smatch m;
    if (std::regex_search(code[i], kDirective) &&
        std::regex_search(raw, m, kQuoted))
      out.push_back({i + 1, m[1].str()});
  }
  return out;
}

/// Resolve a quoted include against the scanned set, mirroring the build's
/// include directories: the includer's own directory first, then the `src/`
/// and `tools/` roots, then repo-relative. Unresolved includes are ignored.
[[nodiscard]] std::string resolve_include(
    const std::string& includer_rel, const std::string& target,
    const std::map<std::string, std::size_t>& known) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(includer_rel).parent_path();
  const std::string candidates[] = {
      (dir / target).lexically_normal().generic_string(),
      (fs::path("src") / target).lexically_normal().generic_string(),
      (fs::path("tools") / target).lexically_normal().generic_string(),
      fs::path(target).lexically_normal().generic_string(),
  };
  for (const std::string& c : candidates)
    if (known.count(c) != 0) return c;
  return {};
}

}  // namespace

const std::vector<RuleInfo>& layer_rules() {
  static const std::vector<RuleInfo> kRules = {
      {kCycleId,
       "cycle in the resolved quoted-include graph (reported at the include "
       "that closes the cycle)"},
      {kUpwardId,
       "quoted include that reaches a higher architectural layer than the "
       "including file"},
  };
  return kRules;
}

int layer_of(const std::string& rel_path) {
  for (const LayerSpec& spec : kLayers)
    if (starts_with(rel_path, spec.prefix)) return spec.layer;
  return kTopLayer;
}

std::vector<Violation> check_layers(const std::vector<LayerFile>& files) {
  std::map<std::string, std::size_t> index;
  for (std::size_t i = 0; i < files.size(); ++i)
    index.emplace(files[i].rel_path, i);

  struct Edge {
    std::size_t to = 0;
    std::size_t line = 0;
  };
  std::vector<std::vector<Edge>> adj(files.size());
  std::vector<Suppressions> allow;
  allow.reserve(files.size());
  std::vector<Violation> out;

  for (std::size_t i = 0; i < files.size(); ++i) {
    allow.emplace_back(files[i].source);
    for (const Include& inc : quoted_includes(files[i].source)) {
      const std::string resolved =
          resolve_include(files[i].rel_path, inc.target, index);
      if (resolved.empty()) continue;
      const std::size_t j = index.at(resolved);
      adj[i].push_back({j, inc.line});
      if (layer_of(files[j].rel_path) > layer_of(files[i].rel_path) &&
          !allow[i].allowed(kUpwardId, inc.line)) {
        out.push_back(
            {files[i].rel_path, inc.line, kUpwardId,
             "layer " + std::to_string(layer_of(files[i].rel_path)) +
                 " file includes '" + files[j].rel_path + "' (layer " +
                 std::to_string(layer_of(files[j].rel_path)) +
                 "); dependencies must point downward — move the shared "
                 "piece to a lower layer or invert the dependency"});
      }
    }
  }

  // Cycle detection: DFS with tricolor marking over the sorted-by-caller file
  // order; every back edge closes exactly one reported cycle.
  enum class Color { kWhite, kGray, kBlack };
  std::vector<Color> color(files.size(), Color::kWhite);
  std::vector<std::size_t> path;

  const std::function<void(std::size_t)> dfs = [&](std::size_t u) {
    color[u] = Color::kGray;
    path.push_back(u);
    for (const Edge& e : adj[u]) {
      if (color[e.to] == Color::kGray) {
        std::string chain;
        const auto it = std::find(path.begin(), path.end(), e.to);
        for (auto p = it; p != path.end(); ++p)
          chain += files[*p].rel_path + " -> ";
        chain += files[e.to].rel_path;
        if (!allow[u].allowed(kCycleId, e.line))
          out.push_back({files[u].rel_path, e.line, kCycleId,
                         "include cycle: " + chain +
                             "; break the cycle with a forward declaration "
                             "or by splitting the header"});
      } else if (color[e.to] == Color::kWhite) {
        dfs(e.to);
      }
    }
    path.pop_back();
    color[u] = Color::kBlack;
  };
  for (std::size_t i = 0; i < files.size(); ++i)
    if (color[i] == Color::kWhite) dfs(i);

  std::sort(out.begin(), out.end(),
            [](const Violation& a, const Violation& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              return a.rule < b.rule;
            });
  return out;
}

std::vector<Violation> lint_layers(const std::string& repo_root,
                                   const std::vector<std::string>& roots) {
  std::vector<LayerFile> files;
  for (const std::string& rel : source_files(repo_root, roots)) {
    if (rel.find("fixtures/") != std::string::npos)
      continue;  // fixture trees contain deliberate violations
    files.push_back(
        {rel, read_file((std::filesystem::path(repo_root) / rel).string())});
  }
  return check_layers(files);
}

}  // namespace mlcr::simlint
