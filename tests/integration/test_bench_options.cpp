// The bench command line: --reps, --episodes and --threads take whole
// non-negative decimals that fit size_t, and anything else — a typo, a sign,
// an overflow, a missing value, zero reps or zero episodes — throws
// CheckError naming the flag instead of reading as 0 or a wrapped count. A
// path flag without its value throws the same way instead of writing
// nothing.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "util/check.hpp"

namespace mlcr {
namespace {

benchtools::BenchOptions parse(std::vector<std::string> args) {
  args.insert(args.begin(), "bench");
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  return benchtools::BenchOptions::parse(static_cast<int>(argv.size()),
                                         argv.data());
}

/// The CheckError message `args` throws, or "" when they parse.
std::string parse_error(const std::vector<std::string>& args) {
  try {
    (void)parse(args);
  } catch (const util::CheckError& e) {
    return e.what();
  }
  return "";
}

TEST(BenchOptions, ParsesWholeDecimalCounts) {
  const benchtools::BenchOptions defaults = parse({});
  EXPECT_EQ(defaults.reps, 7U);
  EXPECT_EQ(defaults.episodes, 30U);
  EXPECT_EQ(defaults.threads, 1U);

  const benchtools::BenchOptions o =
      parse({"--reps", "3", "--episodes", "012", "--threads", "0"});
  EXPECT_EQ(o.reps, 3U);
  EXPECT_EQ(o.episodes, 12U);
  EXPECT_EQ(o.threads, 0U);  // 0 = hardware concurrency

  EXPECT_EQ(parse({"--reps", "18446744073709551615"}).reps, SIZE_MAX);
}

TEST(BenchOptions, RejectsMalformedCountsNamingTheFlag) {
  for (const std::string flag : {"--reps", "--episodes", "--threads"})
    for (const std::string value :
         {"abc", "-1", "", "3x", " 3", "+3", "1.5", "18446744073709551616"}) {
      SCOPED_TRACE(flag + " '" + value + "'");
      const std::string error = parse_error({flag, value});
      EXPECT_NE(error.find(flag), std::string::npos) << error;
    }
}

TEST(BenchOptions, RejectsAMissingValueNamingTheFlag) {
  for (const std::string flag : {"--reps", "--episodes", "--threads",
                                 "--trace", "--metrics", "--json",
                                 "--snapshots"}) {
    const std::string error = parse_error({"--fresh", flag});
    EXPECT_NE(error.find(flag + " needs a value"), std::string::npos)
        << error;
  }
}

TEST(BenchOptions, RejectsZeroRepsAndZeroEpisodes) {
  EXPECT_NE(parse_error({"--reps", "0"}).find("--reps"), std::string::npos);
  EXPECT_NE(parse_error({"--episodes", "0"}).find("--episodes"),
            std::string::npos);
}

}  // namespace
}  // namespace mlcr
