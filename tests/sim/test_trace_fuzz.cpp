// Seeded mutation fuzz of sim::read_trace_csv over a generated trace: every
// mutant must either throw util::CheckError or load as a trace that writes
// back and re-reads bit-identical. Crashes and undefined conversions
// surface in the sanitizer builds, which run this test with the rest of the
// suite.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "fstartbench/benchmark.hpp"
#include "fstartbench/workloads.hpp"
#include "sim/trace_io.hpp"
#include "testing/mutate.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace mlcr::sim {
namespace {

std::string written(const Trace& trace) {
  std::ostringstream os;
  write_trace_csv(trace, os);
  return os.str();
}

bool same_bits(const Trace& a, const Trace& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a.at(i).function != b.at(i).function ||
        std::bit_cast<std::uint64_t>(a.at(i).arrival_s) !=
            std::bit_cast<std::uint64_t>(b.at(i).arrival_s) ||
        std::bit_cast<std::uint64_t>(a.at(i).exec_s) !=
            std::bit_cast<std::uint64_t>(b.at(i).exec_s))
      return false;
  return true;
}

/// Reads `text`. Returns false when it threw CheckError; on success the
/// trace must write back and re-read bit-identical. Any other exception
/// fails the test.
bool loads(const std::string& text, const FunctionTable& functions) {
  std::istringstream is(text);
  try {
    const Trace trace = read_trace_csv(is, functions);
    std::istringstream again(written(trace));
    EXPECT_TRUE(same_bits(read_trace_csv(again, functions), trace))
        << "input\n"
        << text;
    return true;
  } catch (const util::CheckError&) {
    return false;
  }
}

TEST(TraceFuzz, MutatedTracesLoadOrThrowCheckError) {
  const fstartbench::Benchmark bench = fstartbench::make_benchmark();
  util::Rng gen(5);
  const std::string seed =
      written(fstartbench::make_overall_workload(bench, 40, gen));
  ASSERT_TRUE(loads(seed, bench.functions));

  // Truncation at every byte: a cut inside a row leaves a short row, a
  // shorter number or a zero execution time; each must load exactly or be
  // rejected.
  for (std::size_t end = 0; end <= seed.size(); ++end)
    (void)loads(seed.substr(0, end), bench.functions);

  util::Rng rng(2026);
  // One to four random byte flips anywhere in the file.
  for (int i = 0; i < 1000; ++i)
    (void)loads(testing::flip_bytes(seed, rng), bench.functions);
  // Digit, sign and exponent splices, plus stray separators.
  std::vector<std::string> pieces = testing::number_pieces();
  pieces.insert(pieces.end(), {",", "\n", ",,", "\n\n"});
  for (int i = 0; i < 1000; ++i)
    (void)loads(testing::splice(seed, pieces, 1 + rng.uniform_index(3), rng),
                bench.functions);
}

}  // namespace
}  // namespace mlcr::sim
