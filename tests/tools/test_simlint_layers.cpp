// Layering checker tests: the fixture trees under fixtures/layers_bad and
// fixtures/layers_clean pin the upward-include and cycle rules against
// `// VIOLATION <rule-id>` markers, exactly like the per-file fixtures; the
// inline cases pin resolution, suppression, and the layer table itself.
#include "tools/simlint/layers.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#ifndef SIMLINT_FIXTURE_DIR
#error "SIMLINT_FIXTURE_DIR must point at tools/simlint/fixtures"
#endif

namespace mlcr::simlint {
namespace {

// (file, line, rule) — layer markers span multiple files, so the file is
// part of the marker identity.
using Marker = std::pair<std::string, std::pair<std::size_t, std::string>>;

std::set<Marker> tree_markers(const std::string& tree_root) {
  static const std::regex kMarker(R"(//\s*VIOLATION\s+([A-Za-z0-9-]+))");
  namespace fs = std::filesystem;
  std::set<Marker> out;
  for (const auto& entry : fs::recursive_directory_iterator(tree_root)) {
    if (!entry.is_regular_file()) continue;
    std::ifstream is(entry.path());
    std::string line;
    std::size_t lineno = 0;
    const std::string rel =
        entry.path().lexically_relative(tree_root).generic_string();
    while (std::getline(is, line)) {
      ++lineno;
      std::smatch m;
      if (std::regex_search(line, m, kMarker))
        out.insert({rel, {lineno, m[1].str()}});
    }
  }
  return out;
}

std::set<Marker> as_markers(const std::vector<Violation>& violations) {
  std::set<Marker> out;
  for (const Violation& v : violations)
    out.insert({v.file, {v.line, v.rule}});
  return out;
}

TEST(SimlintLayers, BadTreeFiresExactlyOnItsMarkers) {
  const std::string root = std::string(SIMLINT_FIXTURE_DIR) + "/layers_bad";
  const auto actual = as_markers(lint_layers(root, {"src"}));
  EXPECT_EQ(tree_markers(root), actual);
}

TEST(SimlintLayers, CleanTreeIsQuiet) {
  const std::string root = std::string(SIMLINT_FIXTURE_DIR) + "/layers_clean";
  EXPECT_TRUE(lint_layers(root, {"src"}).empty());
}

TEST(SimlintLayers, EveryLayerRuleIsPinnedByTheBadTree) {
  const std::string root = std::string(SIMLINT_FIXTURE_DIR) + "/layers_bad";
  std::set<std::string> pinned;
  for (const auto& [file, at] : tree_markers(root)) {
    (void)file;
    pinned.insert(at.second);
  }
  for (const RuleInfo& rule : layer_rules())
    EXPECT_TRUE(pinned.count(rule.id) == 1)
        << "layer rule '" << rule.id << "' has no fixture marker pinning it";
  for (const std::string& rule : pinned)
    EXPECT_TRUE(rule == "layer-cycle" || rule == "layer-upward")
        << "bad tree pins unknown layer rule '" << rule << "'";
}

TEST(SimlintLayers, LayerTableOrdersTheArchitecture) {
  EXPECT_EQ(layer_of("src/util/rng.hpp"), 0);
  EXPECT_LT(layer_of("src/obs/tracer.hpp"), layer_of("src/sim/env.hpp"));
  EXPECT_LT(layer_of("src/faults/plan.hpp"), layer_of("src/fleet/router.hpp"));
  EXPECT_LT(layer_of("src/containers/pool.hpp"), layer_of("src/sim/env.hpp"));
  EXPECT_LT(layer_of("src/nn/tensor.hpp"), layer_of("src/rl/dqn.hpp"));
  EXPECT_LT(layer_of("src/sim/env.hpp"), layer_of("src/policies/keep.hpp"));
  EXPECT_LT(layer_of("src/policies/keep.hpp"), layer_of("src/core/mlcr.hpp"));
  EXPECT_LT(layer_of("src/core/mlcr.hpp"), layer_of("src/serve/service.hpp"));
  EXPECT_LT(layer_of("src/serve/service.hpp"), layer_of("bench/serve.cpp"));
  EXPECT_EQ(layer_of("tests/sim/test_env.cpp"), layer_of("tools/x/main.cpp"));
  // Unknown paths rank above everything: free to include anything.
  EXPECT_GT(layer_of("scripts/gen.cpp"), layer_of("tests/sim/test_env.cpp"));
}

TEST(SimlintLayers, SuppressionsSilenceUpwardIncludes) {
  const std::vector<LayerFile> files = {
      {"src/util/low.hpp",
       "#pragma once\n"
       "// transitional: scheduler split pending — simlint:allow(layer-upward)\n"
       "#include \"serve/high.hpp\"\n"},
      {"src/serve/high.hpp", "#pragma once\n"},
  };
  EXPECT_TRUE(check_layers(files).empty());

  const std::vector<LayerFile> unsuppressed = {
      {"src/util/low.hpp", "#pragma once\n#include \"serve/high.hpp\"\n"},
      {"src/serve/high.hpp", "#pragma once\n"},
  };
  const auto violations = check_layers(unsuppressed);
  ASSERT_EQ(violations.size(), 1U);
  EXPECT_EQ(violations[0].rule, "layer-upward");
  EXPECT_EQ(violations[0].file, "src/util/low.hpp");
  EXPECT_EQ(violations[0].line, 2U);
}

TEST(SimlintLayers, IncludesInCommentsStringsOrOutsideTheSetAreIgnored) {
  const std::vector<LayerFile> files = {
      {"src/util/doc.hpp",
       "#pragma once\n"
       "// #include \"serve/high.hpp\"\n"
       "const char* kDoc = \"#include \\\"serve/high.hpp\\\"\";\n"
       "#include \"serve/not_in_this_set.hpp\"\n"
       "#include <vector>\n"},
      {"src/serve/high.hpp", "#pragma once\n"},
  };
  EXPECT_TRUE(check_layers(files).empty());
}

TEST(SimlintLayers, IncludesInBlockCommentsAndRawStringsAreIgnored) {
  const std::vector<LayerFile> files = {
      {"src/util/doc.hpp",
       "#pragma once\n"
       "/* moved out:\n"
       "#include \"serve/high.hpp\"\n"
       "*/\n"
       "const char* kExample = R\"x(\n"
       "#include \"serve/high.hpp\"\n"
       ")\" still inside\n"
       ")x\";\n"},
      {"src/serve/high.hpp", "#pragma once\n"},
  };
  EXPECT_TRUE(check_layers(files).empty());
}

TEST(SimlintLayers, IncludeAfterADigitSeparatorStillCounts) {
  const std::vector<LayerFile> files = {
      {"src/util/big.hpp",
       "#pragma once\n"
       "constexpr long kBig = 1'000'000;\n"
       "#include \"serve/high.hpp\"\n"},
      {"src/serve/high.hpp", "#pragma once\n"},
  };
  const auto violations = check_layers(files);
  ASSERT_EQ(violations.size(), 1U);
  EXPECT_EQ(violations[0].rule, "layer-upward");
  EXPECT_EQ(violations[0].line, 3U);
}

TEST(SimlintLayers, SameDirectoryIncludesResolveRelative) {
  // "detail.hpp" from src/serve/front.hpp resolves to src/serve/detail.hpp
  // (the includer's own directory), which is the same layer: no violation.
  // From src/util it resolves nowhere and is ignored.
  const std::vector<LayerFile> files = {
      {"src/serve/front.hpp", "#include \"detail.hpp\"\n"},
      {"src/serve/detail.hpp", "#pragma once\n"},
      {"src/util/lone.hpp", "#include \"detail.hpp\"\n"},
  };
  EXPECT_TRUE(check_layers(files).empty());
}

TEST(SimlintLayers, SelfIncludeIsACycle) {
  const std::vector<LayerFile> files = {
      {"src/sim/loop.hpp", "#include \"sim/loop.hpp\"\n"},
  };
  const auto violations = check_layers(files);
  ASSERT_EQ(violations.size(), 1U);
  EXPECT_EQ(violations[0].rule, "layer-cycle");
}

}  // namespace
}  // namespace mlcr::simlint
