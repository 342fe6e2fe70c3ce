// Fixture tests for simlint: every rule is pinned by a fixture under
// tools/simlint/fixtures/, where each expected firing is marked with
// `// VIOLATION <rule-id>` on the exact line the checker must report.
// The tests parse those markers and require the lint output to match the
// marker set exactly — no missed firings, no extras.
#include "tools/simlint/lint.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "obs/schema_check.hpp"

#ifndef SIMLINT_FIXTURE_DIR
#error "SIMLINT_FIXTURE_DIR must point at tools/simlint/fixtures"
#endif

namespace mlcr::simlint {
namespace {

using Marker = std::pair<std::size_t, std::string>;  // (line, rule id)

std::string read_fixture(const std::string& name) {
  const std::string path = std::string(SIMLINT_FIXTURE_DIR) + "/" + name;
  std::ifstream is(path);
  EXPECT_TRUE(is.is_open()) << "cannot open fixture " << path;
  std::ostringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

/// Parse `// VIOLATION <rule-id>` markers; the marker's line number is the
/// line the checker must report.
std::set<Marker> expected_markers(const std::string& source) {
  static const std::regex kMarker(R"(//\s*VIOLATION\s+([A-Za-z0-9-]+))");
  std::set<Marker> out;
  std::istringstream is(source);
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    std::smatch m;
    if (std::regex_search(line, m, kMarker)) out.insert({lineno, m[1].str()});
  }
  return out;
}

std::set<Marker> as_markers(const std::vector<Violation>& violations) {
  std::set<Marker> out;
  for (const Violation& v : violations) out.insert({v.line, v.rule});
  return out;
}

std::string describe(const std::set<Marker>& markers) {
  std::ostringstream ss;
  for (const auto& [line, rule] : markers) ss << "  " << line << ": " << rule
                                              << "\n";
  return ss.str();
}

struct FixtureCase {
  const char* file;     ///< file name under tools/simlint/fixtures/
  const char* pretend;  ///< repo-relative path the fixture is linted as
};

const FixtureCase kFixtureCases[] = {
    {"banned_random.cpp", "src/sim/banned_random.cpp"},
    {"banned_clock.cpp", "src/sim/banned_clock.cpp"},
    {"banned_getenv.cpp", "src/sim/banned_getenv.cpp"},
    {"pointer_key.cpp", "src/sim/pointer_key.cpp"},
    {"unordered_iteration.cpp", "src/sim/unordered_iteration.cpp"},
    {"uninit_member.cpp", "src/containers/uninit_member.cpp"},
    {"missing_transition_check.cpp", "src/sim/env.cpp"},
    {"serve_clock_injection.cpp", "src/serve/service_like.cpp"},
    {"obs_concurrent_registry.cpp", "src/serve/metrics_misuse.cpp"},
    {"router_route_check.cpp", "src/fleet/router.cpp"},
    {"fault_rng_stream.cpp", "src/faults/fault_rng_stream.cpp"},
    {"bare_lock.cpp", "src/serve/bare_lock.cpp"},
    {"unused_suppression.cpp", "src/serve/unused_suppression.cpp"},
    {"clean.cpp", "src/sim/clean.cpp"},
};

TEST(Simlint, EveryFixtureMarkerFiresExactlyOnItsLine) {
  for (const FixtureCase& fc : kFixtureCases) {
    const std::string source = read_fixture(fc.file);
    ASSERT_FALSE(source.empty()) << fc.file;
    const auto expected = expected_markers(source);
    const auto actual = as_markers(lint_source(source, fc.pretend));
    EXPECT_EQ(expected, actual)
        << fc.file << " linted as " << fc.pretend << "\nexpected:\n"
        << describe(expected) << "actual:\n"
        << describe(actual);
  }
}

TEST(Simlint, PathScopedRulesAreQuietOutsideTheirScope) {
  // Wall-clock reads are legal inside src/util (that is where a timing
  // interface would live) and getenv is legal outside simulator code.
  const std::string clock_src = read_fixture("banned_clock.cpp");
  EXPECT_TRUE(lint_source(clock_src, "src/util/wallclock.cpp").empty());
  const std::string getenv_src = read_fixture("banned_getenv.cpp");
  EXPECT_TRUE(lint_source(getenv_src, "bench/banned_getenv.cpp").empty());
  // route() definitions outside fleet/router.cpp are someone else's
  // interface; the router rule keys on the file, not the method name.
  const std::string router_src = read_fixture("router_route_check.cpp");
  EXPECT_TRUE(lint_source(router_src, "src/policies/router_like.cpp").empty());
  // Wall-time reads are legal in the two allowed zones — the WallClock
  // implementation itself and src/util — and outside src/ entirely (bench
  // code stamps wall time for its own tables, e.g. via util::wall_now_us).
  const std::string serve_src = read_fixture("serve_clock_injection.cpp");
  EXPECT_TRUE(lint_source(serve_src, "src/serve/clock.cpp").empty());
  EXPECT_TRUE(lint_source(serve_src, "src/util/wall_clock.cpp").empty());
  EXPECT_TRUE(lint_source(serve_src, "bench/serve_throughput.cpp").empty());
  EXPECT_TRUE(lint_source(serve_src, "bench/obs_wall_time.cpp").empty());
  // ...and the rule covers all service/simulation logic, not just src/serve,
  // including the clock-free tracing layer.
  EXPECT_FALSE(lint_source(serve_src, "src/fleet/serve_like.cpp").empty());
  EXPECT_FALSE(lint_source(serve_src, "src/obs/obs_wall_time.cpp").empty());
  // The raw obs types are legal inside the telemetry facade itself (the
  // one place that serialises them) and everywhere outside src/serve.
  const std::string obs_reg_src = read_fixture("obs_concurrent_registry.cpp");
  EXPECT_TRUE(lint_source(obs_reg_src, "src/serve/telemetry.cpp").empty());
  EXPECT_TRUE(lint_source(obs_reg_src, "src/fleet/metrics_misuse.cpp").empty());
  // Literal-seed and default-constructed Rngs are legal outside
  // fault-handling code (benches and tests seed their own streams); the rule
  // is scoped to src/faults and src/fleet.
  const std::string fault_src = read_fixture("fault_rng_stream.cpp");
  EXPECT_TRUE(lint_source(fault_src, "src/core/fault_rng_stream.cpp").empty());
  EXPECT_TRUE(
      lint_source(fault_src, "tests/faults/fault_rng_stream.cpp").empty());
  // And also fires under src/fleet, the other half of its scope.
  EXPECT_FALSE(
      lint_source(fault_src, "src/fleet/fault_rng_stream.cpp").empty());
}

TEST(Simlint, CleanFixtureIsQuietUnderEveryScope) {
  const std::string source = read_fixture("clean.cpp");
  for (const char* pretend :
       {"src/sim/clean.cpp", "src/containers/clean.cpp", "src/util/clean.cpp",
        "src/serve/clean.cpp",
        "bench/clean.cpp", "tests/sim/clean.cpp"}) {
    const auto violations = lint_source(source, pretend);
    EXPECT_TRUE(violations.empty())
        << "clean.cpp fired under " << pretend << ":\n"
        << describe(as_markers(violations));
  }
}

TEST(Simlint, EveryRegisteredRuleIsPinnedByAFixture) {
  std::set<std::string> pinned;
  for (const FixtureCase& fc : kFixtureCases)
    for (const auto& [line, rule] : expected_markers(read_fixture(fc.file)))
      pinned.insert(rule);
  for (const RuleInfo& rule : rules())
    EXPECT_TRUE(pinned.count(rule.id) == 1)
        << "rule '" << rule.id << "' has no fixture marker pinning it";
  // And no fixture pins a rule that does not exist (marker typo guard).
  std::set<std::string> registered;
  for (const RuleInfo& rule : rules()) registered.insert(rule.id);
  for (const std::string& rule : pinned)
    EXPECT_TRUE(registered.count(rule) == 1)
        << "fixture marker names unknown rule '" << rule << "'";
}

TEST(Simlint, LineAndFileSuppressionsSilenceARule) {
  const std::string bare = "int f() { return rand() % 3; }\n";
  EXPECT_EQ(lint_source(bare, "src/sim/x.cpp").size(), 1U);

  const std::string line_allow =
      "int f() { return rand() % 3; }  // simlint:allow(banned-random)\n";
  EXPECT_TRUE(lint_source(line_allow, "src/sim/x.cpp").empty());

  const std::string prev_line_allow =
      "// simlint:allow(banned-random) justified: fixture\n"
      "int f() { return rand() % 3; }\n";
  EXPECT_TRUE(lint_source(prev_line_allow, "src/sim/x.cpp").empty());

  const std::string file_allow =
      "// simlint:allow-file(banned-random)\n"
      "int f() { return rand() % 3; }\n"
      "int g() { return rand() % 5; }\n";
  EXPECT_TRUE(lint_source(file_allow, "src/sim/x.cpp").empty());

  // A suppression for one rule must not silence another — and the mismatch
  // is itself an error: the banned-clock allow suppresses nothing here.
  const std::string wrong_allow =
      "int f() { return rand() % 3; }  // simlint:allow(banned-clock)\n";
  const auto wrong = lint_source(wrong_allow, "src/sim/x.cpp");
  ASSERT_EQ(wrong.size(), 2U);
  EXPECT_EQ(wrong[0].rule, "banned-random");
  EXPECT_EQ(wrong[1].rule, "unused-suppression");

  // Unused-suppression violations cannot themselves be suppressed.
  const std::string meta_allow =
      "// simlint:allow(banned-clock)  // simlint:allow(unused-suppression)\n";
  EXPECT_FALSE(lint_source(meta_allow, "src/sim/x.cpp").empty());

  // An allow spelled inside a string literal (e.g. a lint test's own source
  // text) is not a suppression: it neither silences the rule on the next
  // line nor counts as unused.
  const std::string in_string =
      "const char* kDoc = \"x  // simlint:allow(banned-random)\";\n"
      "int f() { return rand() % 3; }\n";
  const auto stringy = lint_source(in_string, "src/sim/x.cpp");
  ASSERT_EQ(stringy.size(), 1U);
  EXPECT_EQ(stringy[0].rule, "banned-random");
}

TEST(Simlint, PairedHeaderMembersFeedUnorderedIterationRule) {
  const std::string header =
      "#include <unordered_map>\n"
      "class Stats {\n"
      " public:\n"
      "  double sum() const;\n"
      " private:\n"
      "  std::unordered_map<int, double> totals_;\n"
      "};\n";
  const std::string source =
      "double Stats::sum() const {\n"
      "  double s = 0.0;\n"
      "  for (const auto& [k, v] : totals_) s += v;\n"
      "  return s;\n"
      "}\n";
  // Without the header the member's type is unknown -> silent.
  EXPECT_TRUE(lint_source(source, "src/sim/stats.cpp").empty());
  // With the paired header the iteration is recognised as unordered.
  const auto violations = lint_source(source, "src/sim/stats.cpp", header);
  ASSERT_EQ(violations.size(), 1U);
  EXPECT_EQ(violations[0].rule, "unordered-iteration");
  EXPECT_EQ(violations[0].line, 3U);
}

TEST(Simlint, JsonOutputSatisfiesTheSimlintSchema) {
  // The exact JSON --json writes (main.cpp self-validates the same way
  // before writing) — pin it against the obs schema checker here so a
  // serializer change that breaks the schema fails in unit tests, not CI.
  const std::string empty_doc = violations_to_json({});
  EXPECT_TRUE(obs::check_simlint_json(empty_doc).empty()) << empty_doc;

  const std::string source =
      "int f() { return rand() % 3; }  // path: \"quoted\\here\"\n";
  const std::string doc =
      violations_to_json(lint_source(source, "src/sim/x.cpp"));
  const auto errors = obs::check_simlint_json(doc);
  EXPECT_TRUE(errors.empty()) << (errors.empty() ? doc : errors[0]);
  EXPECT_NE(doc.find("\"rule\":\"banned-random\""), std::string::npos) << doc;
}

TEST(Simlint, CommentsAndStringsNeverFire) {
  const std::string source =
      "// rand() and std::random_device in a comment\n"
      "/* system_clock::now() in a block comment */\n"
      "const char* kDoc = \"call getenv(\\\"X\\\") and rand()\";\n"
      "const char* kRaw = R\"(std::random_device)\";\n";
  EXPECT_TRUE(lint_source(source, "src/sim/docs.cpp").empty());
}

// The line lexer's hazards: each case puts a violation after the hazard
// and requires it to be reported on its own line, and nothing else.

using Fired = std::vector<std::pair<std::size_t, std::string>>;

Fired fired(const std::string& source) {
  Fired out;
  for (const Violation& v : lint_source(source, "src/sim/x.cpp"))
    out.push_back({v.line, v.rule});
  return out;
}

TEST(Simlint, DigitSeparatorsAndUnterminatedLiteralsDoNotHideLaterCode) {
  // A digit separator is part of the number, not the start of a char
  // literal that swallows the rest of the file.
  EXPECT_EQ(fired("constexpr long k = 5'000;\n"
                  "int f() { return rand() % 3; }\n"),
            (Fired{{2, "banned-random"}}));
  EXPECT_EQ(fired("auto r = 1'000'000 + 0x1F'FF + 0.5e3 + 07'7;\n"
                  "int f() { return rand() % 3; }\n"),
            (Fired{{2, "banned-random"}}));
  // An unterminated string or char literal ends at its line.
  EXPECT_EQ(fired("const char* broken = \"no closing quote\n"
                  "int fine = 2;\n"
                  "int f() { return rand() % 3; }\n"),
            (Fired{{3, "banned-random"}}));
  EXPECT_EQ(fired("char broken = 'x;\n"
                  "int f() { return rand() % 3; }\n"),
            (Fired{{2, "banned-random"}}));
}

TEST(Simlint, PrefixedCharLiteralsAreBlanked) {
  // u8'x' and L'x' are char literals: their contents never match, and
  // nothing after them is swallowed. The trailing digit of `u8` does not
  // start a number.
  EXPECT_EQ(fired("char8_t a = u8'(';\n"
                  "wchar_t b = L'r';\n"
                  "char c = '{';\n"
                  "int f() { return rand() % 3; }\n"),
            (Fired{{4, "banned-random"}}));
  EXPECT_EQ(fired("auto a = u8'\\'' + L'\\\\';\n"
                  "int f() { return rand() % 3; }\n"),
            (Fired{{2, "banned-random"}}));
}

TEST(Simlint, BlockCommentsEndAtTheFirstClose) {
  // C++ block comments do not nest: code after the first */ is live.
  EXPECT_EQ(fired("/* rand() /* inner rand() */ int x = rand();\n"),
            (Fired{{1, "banned-random"}}));
}

// Raw-string lexing of code_lines, the one lexer every rule reads.
TEST(SimlintToken, RawStringsMatchByDelimiterAndTrackLines) {
  // A plain )" inside a delimited raw string does not end it.
  EXPECT_EQ(fired("auto s = R\"x(rand() )\" rand() )x\";\n"
                  "int f() { return rand() % 3; }\n"),
            (Fired{{2, "banned-random"}}));
}

TEST(SimlintToken, MultiLineRawStringKeepsLineNumbers) {
  EXPECT_EQ(fired("auto s = R\"(line one rand()\n"
                  "line two std::random_device\n"
                  ")\";\n"
                  "int f() { return rand() % 3; }\n"),
            (Fired{{4, "banned-random"}}));
}

}  // namespace
}  // namespace mlcr::simlint
