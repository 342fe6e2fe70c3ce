#include "sim/trace_io.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "fstartbench/benchmark.hpp"
#include "fstartbench/workloads.hpp"
#include "testing/fixtures.hpp"
#include "util/check.hpp"

namespace mlcr::sim {
namespace {

using mlcr::testing::TinyWorld;

TEST(TraceIo, RoundTripPreservesInvocations) {
  TinyWorld world;
  const Trace original =
      TinyWorld::make_trace({TinyWorld::inv(world.fn_py_flask, 0.5, 0.25),
                             TinyWorld::inv(world.fn_js, 1.75, 0.125)});
  std::stringstream buffer;
  write_trace_csv(original, buffer);
  const Trace loaded = read_trace_csv(buffer, world.functions);
  ASSERT_EQ(loaded.size(), original.size());
  for (std::size_t i = 0; i < loaded.size(); ++i) {
    EXPECT_EQ(loaded.at(i).function, original.at(i).function);
    EXPECT_DOUBLE_EQ(loaded.at(i).arrival_s, original.at(i).arrival_s);
    EXPECT_DOUBLE_EQ(loaded.at(i).exec_s, original.at(i).exec_s);
  }
}

// Generated arrivals and execution times use every bit of their doubles, so
// the writer must print enough digits for the reader to get them back
// exactly: a save/load cycle must replay the same workload.
TEST(TraceIo, GeneratedTraceRoundTripsExactly) {
  const fstartbench::Benchmark bench = fstartbench::make_benchmark();
  util::Rng rng(21);
  const Trace original = fstartbench::make_overall_workload(bench, 300, rng);
  std::stringstream buffer;
  write_trace_csv(original, buffer);
  const Trace loaded = read_trace_csv(buffer, bench.functions);
  ASSERT_EQ(loaded.size(), original.size());
  for (std::size_t i = 0; i < loaded.size(); ++i) {
    EXPECT_EQ(loaded.at(i).function, original.at(i).function) << i;
    EXPECT_EQ(loaded.at(i).arrival_s, original.at(i).arrival_s) << i;
    EXPECT_EQ(loaded.at(i).exec_s, original.at(i).exec_s) << i;
  }

  std::stringstream one;
  write_trace_csv(TinyWorld::make_trace({TinyWorld::inv(0, 1234.5678901, 0.1)}),
                  one);
  EXPECT_EQ(read_trace_csv(one, bench.functions).at(0).arrival_s,
            1234.5678901);
}

// Function ids are plain base-10 integers in range; every other spelling
// strtod would accept, and any value too large for the id type, is an error.
TEST(TraceIo, RejectsFunctionIdSpellings) {
  TinyWorld world;
  for (const char* bad : {"5000000000", "4294967296", "-1", "+1", "1e0",
                          "0x1", "1.0", " 1", "1 ", "", "one"}) {
    std::stringstream buffer(std::string("function_id,arrival_s,exec_s\n") +
                             bad + ",1.0,0.5\n");
    EXPECT_THROW((void)read_trace_csv(buffer, world.functions),
                 util::CheckError)
        << "id '" << bad << "'";
  }
  std::stringstream ok("function_id,arrival_s,exec_s\n01,1.0,0.5\n");
  EXPECT_EQ(read_trace_csv(ok, world.functions).at(0).function, 1U);
}

TEST(TraceIo, ReaderSortsByArrival) {
  TinyWorld world;
  std::stringstream buffer(
      "function_id,arrival_s,exec_s\n0,5.0,0.5\n1,1.0,0.5\n");
  const Trace t = read_trace_csv(buffer, world.functions);
  EXPECT_EQ(t.at(0).function, 1U);
  EXPECT_EQ(t.at(1).function, 0U);
}

TEST(TraceIo, RejectsMissingHeader) {
  TinyWorld world;
  std::stringstream buffer("0,1.0,0.5\n");
  EXPECT_THROW((void)read_trace_csv(buffer, world.functions),
               util::CheckError);
}

TEST(TraceIo, RejectsUnknownFunctionId) {
  TinyWorld world;
  std::stringstream buffer("function_id,arrival_s,exec_s\n99,1.0,0.5\n");
  EXPECT_THROW((void)read_trace_csv(buffer, world.functions),
               util::CheckError);
}

TEST(TraceIo, RejectsMalformedRows) {
  TinyWorld world;
  {
    std::stringstream buffer("function_id,arrival_s,exec_s\n0,1.0\n");
    EXPECT_THROW((void)read_trace_csv(buffer, world.functions),
                 util::CheckError);
  }
  {
    std::stringstream buffer("function_id,arrival_s,exec_s\n0,abc,0.5\n");
    EXPECT_THROW((void)read_trace_csv(buffer, world.functions),
                 util::CheckError);
  }
}

TEST(TraceIo, RejectsExtraColumns) {
  TinyWorld world;
  std::stringstream buffer(
      "function_id,arrival_s,exec_s\n0,1.0,0.5,surprise\n");
  EXPECT_THROW((void)read_trace_csv(buffer, world.functions),
               util::CheckError);
}

TEST(TraceIo, RejectsNonFiniteNumbers) {
  TinyWorld world;
  for (const char* bad : {"nan", "inf", "-inf", "NAN", "Infinity"}) {
    {
      std::stringstream buffer(std::string("function_id,arrival_s,exec_s\n0,") +
                               bad + ",0.5\n");
      EXPECT_THROW((void)read_trace_csv(buffer, world.functions),
                   util::CheckError)
          << "arrival " << bad;
    }
    {
      std::stringstream buffer(
          std::string("function_id,arrival_s,exec_s\n0,1.0,") + bad + "\n");
      EXPECT_THROW((void)read_trace_csv(buffer, world.functions),
                   util::CheckError)
          << "exec " << bad;
    }
  }
}

TEST(TraceIo, RejectsNegativeTimes) {
  TinyWorld world;
  {
    std::stringstream buffer("function_id,arrival_s,exec_s\n0,-1.0,0.5\n");
    EXPECT_THROW((void)read_trace_csv(buffer, world.functions),
                 util::CheckError);
  }
  {
    std::stringstream buffer("function_id,arrival_s,exec_s\n0,1.0,-0.5\n");
    EXPECT_THROW((void)read_trace_csv(buffer, world.functions),
                 util::CheckError);
  }
  // Zero arrival is a legal boundary (zero exec is not: the Trace
  // constructor requires strictly positive execution times).
  std::stringstream ok("function_id,arrival_s,exec_s\n0,0.0,0.5\n");
  const Trace t = read_trace_csv(ok, world.functions);
  ASSERT_EQ(t.size(), 1U);
  EXPECT_DOUBLE_EQ(t.at(0).arrival_s, 0.0);
  EXPECT_DOUBLE_EQ(t.at(0).exec_s, 0.5);
}

TEST(TraceIo, SkipsBlankLinesAndHandlesEmptyTrace) {
  TinyWorld world;
  std::stringstream buffer("function_id,arrival_s,exec_s\n\n\n");
  const Trace t = read_trace_csv(buffer, world.functions);
  EXPECT_TRUE(t.empty());
}

TEST(TraceIo, FileRoundTrip) {
  TinyWorld world;
  const Trace original = TinyWorld::make_trace(
      {TinyWorld::inv(world.fn_py_numpy, 2.5, 0.75)});
  const std::string path = ::testing::TempDir() + "/mlcr_trace.csv";
  write_trace_csv(original, path);
  const Trace loaded = read_trace_csv(path, world.functions);
  ASSERT_EQ(loaded.size(), 1U);
  EXPECT_EQ(loaded.at(0).function, world.fn_py_numpy);
}

}  // namespace
}  // namespace mlcr::sim
