// Seeded mutation fuzz of simlint's line lexer over its own fixtures: every
// mutant must keep code_lines()'s contract — one output line per source
// line, each exactly as long as its source line — and code_lines(),
// Suppressions and lint_source() must never throw on it, whatever
// unterminated comments, raw strings, quotes or escapes it carries. Every
// reported line must lie inside the file. Crashes and out-of-range reads
// surface in the sanitizer builds, which run this test with the rest of the
// suite.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "testing/mutate.hpp"
#include "tools/simlint/lint.hpp"
#include "util/rng.hpp"

#ifndef SIMLINT_FIXTURE_DIR
#error "SIMLINT_FIXTURE_DIR must point at tools/simlint/fixtures"
#endif

namespace mlcr::simlint {
namespace {

/// Every fixture file, layering trees included, in sorted path order.
std::vector<std::string> fixture_sources() {
  std::vector<std::filesystem::path> paths;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(SIMLINT_FIXTURE_DIR))
    if (entry.is_regular_file()) paths.push_back(entry.path());
  std::sort(paths.begin(), paths.end());
  std::vector<std::string> sources;
  for (const auto& path : paths) {
    std::ifstream is(path, std::ios::binary);
    std::ostringstream ss;
    ss << is.rdbuf();
    sources.push_back(ss.str());
  }
  return sources;
}

/// Pieces that open, close or escape the lexer's comment and literal
/// states, plus suppression comments and line breaks.
const std::vector<std::string>& lexer_pieces() {
  static const std::vector<std::string> pieces = {
      "//",   "/*",    "*/",  "\"",    "'",      "\\",  "\\\n", "R\"(",
      ")\"",  "R\"x(", ")x\"", "R\"",  "\n",     "\r\n", "0'1",  "u8\"",
      "'\\''", "{",    "}",   ";",     "// simlint:allow(bare-lock)",
      "// simlint:allow-file(banned-random)", "// simlint:allow(",
      "::route(", "::pick(", "#include \""};
  return pieces;
}

/// The source split exactly as code_lines() splits its blanked copy.
std::vector<std::string> source_lines(const std::string& source) {
  std::vector<std::string> lines;
  std::istringstream is(source);
  std::string line;
  while (std::getline(is, line)) lines.push_back(line);
  return lines;
}

/// Paths that switch on every path-scoped rule between them.
const char* const kPretendPaths[] = {"src/sim/env.cpp", "src/fleet/router.cpp",
                                     "src/serve/service.cpp",
                                     "src/containers/pool.cpp"};

/// Checks one mutant; `label` names it in failure messages.
void check(const std::string& source, std::size_t variant,
           const std::string& label) {
  const std::vector<std::string> want = source_lines(source);
  std::vector<std::string> code;
  ASSERT_NO_THROW(code = code_lines(source)) << label;
  ASSERT_EQ(code.size(), want.size()) << label;
  for (std::size_t i = 0; i < code.size(); ++i)
    ASSERT_EQ(code[i].size(), want[i].size())
        << label << ", line " << i + 1;

  const std::size_t last_line = std::max<std::size_t>(1, want.size());
  ASSERT_NO_THROW({
    const Suppressions suppressions(source);
    for (const Suppressions::Entry& e : suppressions.entries())
      EXPECT_TRUE(e.line >= 1 && e.line <= last_line) << label;
  }) << label;
  const char* path = kPretendPaths[variant % std::size(kPretendPaths)];
  std::vector<Violation> found;
  ASSERT_NO_THROW(found = lint_source(source, path)) << label;
  for (const Violation& v : found)
    EXPECT_TRUE(v.line >= 1 && v.line <= last_line)
        << label << ": " << v.rule << " at line " << v.line;
}

/// "fixture <s>[ mutant <m> (<kind>)]" for failure messages.
std::string label(std::size_t s, std::size_t m = 0, const char* kind = "") {
  std::ostringstream ss;
  ss << "fixture " << s;
  if (*kind != '\0') ss << " mutant " << m << " (" << kind << ")";
  return ss.str();
}

TEST(SimlintFuzz, MutatedFixturesKeepLineStructureAndNeverThrow) {
  const std::vector<std::string> seeds = fixture_sources();
  ASSERT_GE(seeds.size(), 10U);
  util::Rng rng(20250611);
  std::size_t mutants = 0;
  for (std::size_t s = 0; s < seeds.size(); ++s) {
    const std::string& seed = seeds[s];
    ASSERT_FALSE(seed.empty());
    check(seed, s, label(s));
    for (std::size_t m = 0; m < 24; ++m, ++mutants) {
      check(seed.substr(0, rng.uniform_index(seed.size() + 1)), m,
            label(s, m, "truncated"));
      check(testing::flip_bytes(seed, rng), m, label(s, m, "flipped"));
      check(testing::splice(seed, lexer_pieces(), 1 + rng.uniform_index(6),
                            rng),
            m, label(s, m, "spliced"));
    }
  }
  EXPECT_GE(mutants, 240U);
}

/// Inputs that end inside each lexer state, and empty input.
TEST(SimlintFuzz, InputsEndingInsideALiteralOrCommentKeepTheirLines) {
  const char* const sources[] = {"",
                                 "\n",
                                 "a\n\n",
                                 "/*",
                                 "x /* open\nstill\n",
                                 "\"open",
                                 "'\\",
                                 "s = \"a\\\nb\";\n",
                                 "R\"",
                                 "R\"delim(never closed\n)\"\n",
                                 "//",
                                 "int x = 0'",
                                 "x \\"};
  for (const char* source : sources) check(source, 0, source);
}

}  // namespace
}  // namespace mlcr::simlint
