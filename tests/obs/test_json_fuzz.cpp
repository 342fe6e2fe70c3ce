// Seeded mutation fuzz of obs::parse_json over a bench-style document:
// every mutant must either parse or return false with an error message, and
// never crash or throw. Crashes, overflows and unbounded recursion surface
// in the sanitizer builds, which run this test with the rest of the suite.
#include <gtest/gtest.h>

#include <string>

#include "obs/json.hpp"
#include "testing/mutate.hpp"
#include "util/rng.hpp"

namespace mlcr::obs {
namespace {

/// A document shaped like the benches' --json output, with every value
/// kind and several number spellings.
std::string bench_document() {
  return R"({
  "bench": "serve_throughput",
  "config": {"nodes": 64, "threads": 4, "policy": "Least-Outstanding",
             "replay_only": 0, "ratio": -0.5, "tiny": 1e-7,
             "huge": 3.2E+10, "flag": true, "off": false, "none": null},
  "wall_ms": 33.625,
  "events_per_sec": 8327137.5464684013,
  "metrics": {"service_route_p50_s": 0.030048388487730768,
              "service_lost": 0, "note": "a\"b\\c\nA"},
  "series": [[0, 1.5], [2, -3e2], [], {}]
})";
}

/// Parses `text`: true when it parsed, and then the error is empty; false
/// only with an error message.
bool parses(const std::string& text) {
  JsonValue value;
  std::string error;
  const bool ok = parse_json(text, value, error);
  EXPECT_EQ(ok, error.empty()) << "error '" << error << "' for input\n"
                               << text;
  return ok;
}

std::string nested(std::size_t depth, const std::string& open,
                   const std::string& close) {
  std::string text;
  for (std::size_t i = 0; i < depth; ++i) text += open;
  text += "0";
  for (std::size_t i = 0; i < depth; ++i) text += close;
  return text;
}

TEST(JsonFuzz, MutatedDocumentsParseOrReportAnError) {
  const std::string seed = bench_document();
  ASSERT_TRUE(parses(seed));

  // Truncation at every byte: the document is one object, so no strict
  // prefix of it is a document.
  for (std::size_t end = 0; end < seed.size(); ++end)
    EXPECT_FALSE(parses(seed.substr(0, end))) << "prefix of " << end;

  util::Rng rng(2025);
  // One to four random byte flips anywhere in the document.
  for (int i = 0; i < 1000; ++i)
    (void)parses(testing::flip_bytes(seed, rng));
  // Digit, sign and exponent splices.
  for (int i = 0; i < 1000; ++i)
    (void)parses(testing::splice(seed, testing::number_pieces(),
                                 1 + rng.uniform_index(3), rng));

  // Deep nesting: accepted up to the parser's depth cap (64 values deep,
  // the innermost 0 included), rejected beyond it without recursing
  // further, closed or not.
  for (const std::size_t depth : {62, 63, 64, 1000, 100000}) {
    const bool within = depth < 64;
    EXPECT_EQ(parses(nested(depth, "[", "]")), within) << depth;
    EXPECT_EQ(parses(nested(depth, "{\"a\":", "}")), within) << depth;
    EXPECT_FALSE(parses(std::string(depth, '['))) << depth;
  }
}

}  // namespace
}  // namespace mlcr::obs
