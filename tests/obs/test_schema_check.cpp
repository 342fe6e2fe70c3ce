// Schema checker: accepts what the sinks emit, rejects malformed JSON and
// contract violations, and reports per-name span/instant/counter tallies.
#include "obs/schema_check.hpp"

#include <gtest/gtest.h>

#include <string>

#include "obs/json.hpp"

namespace mlcr::obs {
namespace {

bool any_error_contains(const TraceCheckReport& report,
                        const std::string& needle) {
  for (const std::string& err : report.errors)
    if (err.find(needle) != std::string::npos) return true;
  return false;
}

TEST(SchemaCheck, AcceptsMinimalValidTraces) {
  // Object root with traceEvents, plus the bare-array form.
  const char* kObject = R"({"traceEvents":[
    {"name":"startup","ph":"X","ts":10,"dur":5,"pid":0,"tid":0,"cat":"sim"},
    {"name":"match","ph":"i","ts":10,"pid":0,"tid":0},
    {"name":"pool_used_mb","ph":"C","ts":10,"pid":0,"tid":0,
     "args":{"value":12.5}},
    {"name":"process_name","ph":"M","pid":0,"tid":0,"ts":0,
     "args":{"name":"simulated-cluster"}}
  ],"displayTimeUnit":"ms"})";
  const auto report = check_trace_json(kObject);
  EXPECT_TRUE(report.ok()) << (report.errors.empty() ? "" : report.errors[0]);
  EXPECT_EQ(report.event_count, 4U);
  EXPECT_EQ(report.span_counts.at("startup"), 1U);
  EXPECT_EQ(report.instant_counts.at("match"), 1U);
  EXPECT_EQ(report.counter_counts.at("pool_used_mb"), 1U);

  const char* kArray =
      R"([{"name":"a","ph":"i","ts":0,"pid":1,"tid":2}])";
  EXPECT_TRUE(check_trace_json(kArray).ok());
}

TEST(SchemaCheck, RejectsMalformedJson) {
  EXPECT_FALSE(check_trace_json("").ok());
  EXPECT_FALSE(check_trace_json("{").ok());
  EXPECT_FALSE(check_trace_json("{\"traceEvents\":[}").ok());
  EXPECT_FALSE(check_trace_json("not json at all").ok());
  // Trailing garbage after a valid document.
  EXPECT_FALSE(check_trace_json("[] []").ok());
  // A valid JSON value that is not a trace.
  EXPECT_FALSE(check_trace_json("42").ok());
  EXPECT_FALSE(check_trace_json("{\"events\":[]}").ok());
}

TEST(SchemaCheck, RejectsContractViolations) {
  // Missing name.
  EXPECT_TRUE(any_error_contains(
      check_trace_json(R"([{"ph":"i","ts":0,"pid":0,"tid":0}])"), "name"));
  // Unknown phase.
  EXPECT_TRUE(any_error_contains(
      check_trace_json(
          R"([{"name":"a","ph":"Z","ts":0,"pid":0,"tid":0}])"),
      "ph"));
  // Negative timestamp.
  EXPECT_TRUE(any_error_contains(
      check_trace_json(
          R"([{"name":"a","ph":"i","ts":-1,"pid":0,"tid":0}])"),
      "ts"));
  // Span without duration.
  EXPECT_TRUE(any_error_contains(
      check_trace_json(
          R"([{"name":"a","ph":"X","ts":0,"pid":0,"tid":0}])"),
      "dur"));
  // Counter without numeric args.
  EXPECT_FALSE(check_trace_json(
                   R"([{"name":"a","ph":"C","ts":0,"pid":0,"tid":0}])")
                   .ok());
  EXPECT_FALSE(
      check_trace_json(
          R"([{"name":"a","ph":"C","ts":0,"pid":0,"tid":0,
               "args":{"value":"high"}}])")
          .ok());
  // Metadata with an unknown name.
  EXPECT_FALSE(
      check_trace_json(
          R"([{"name":"mystery","ph":"M","ts":0,"pid":0,"tid":0,
               "args":{"name":"x"}}])")
          .ok());
  // args must be an object when present.
  EXPECT_FALSE(
      check_trace_json(
          R"([{"name":"a","ph":"i","ts":0,"pid":0,"tid":0,"args":[1]}])")
          .ok());
  // An event must be an object.
  EXPECT_FALSE(check_trace_json(R"([17])").ok());
  // A dqn_inference instant says whether the mask allowed one action.
  EXPECT_TRUE(
      check_trace_json(
          R"([{"name":"dqn_inference","ph":"i","ts":0,"pid":0,"tid":0,
               "args":{"action":3,"forced":0}}])")
          .ok());
  for (const char* args : {"", R"(,"args":{"action":3})",
                           R"(,"args":{"forced":2})",
                           R"(,"args":{"forced":"1"})"})
    EXPECT_TRUE(any_error_contains(
        check_trace_json(
            std::string(
                R"([{"name":"dqn_inference","ph":"i","ts":0,"pid":0,"tid":0)") +
            args + "}]"),
        "forced"))
        << args;
}

TEST(SchemaCheck, ErrorCollectionStopsAtTheCap) {
  std::string many = "[";
  for (int i = 0; i < 200; ++i) {
    if (i != 0) many += ",";
    many += R"({"ph":"i","ts":0,"pid":0,"tid":0})";  // all missing "name"
  }
  many += "]";
  const auto report = check_trace_json(many);
  EXPECT_FALSE(report.ok());
  EXPECT_LE(report.errors.size(), TraceCheckReport::kMaxErrors + 1);
  EXPECT_EQ(report.event_count, 200U);
}

TEST(SchemaCheck, ParsesEscapesAndNestedStructures) {
  const char* kTrace = R"([{"name":"a\"b\\cA","ph":"i","ts":1.5,
    "pid":0,"tid":0,"cat":"sim",
    "args":{"s":"line\nbreak","n":-2.5e3,"flag":true,"none":null}}])";
  const auto report = check_trace_json(kTrace);
  EXPECT_TRUE(report.ok()) << (report.errors.empty() ? "" : report.errors[0]);
  EXPECT_EQ(report.event_count, 1U);
}

TEST(SchemaCheck, RejectsNonFiniteNumbers) {
  // JSON has no literal NaN/Infinity: parse_json rejects them (see
  // ParseJson.FollowsTheRfc8259Grammar). A well-formed number that
  // overflows a double is caught by the schema's finite check instead.
  EXPECT_FALSE(
      check_trace_json(
          R"([{"name":"a","ph":"i","ts":1e999,"pid":0,"tid":0}])")
          .ok());
  EXPECT_FALSE(
      check_trace_json(
          R"([{"name":"a","ph":"i","ts":NaN,"pid":0,"tid":0}])")
          .ok());
  EXPECT_FALSE(
      check_trace_json(
          R"([{"name":"a","ph":"i","ts":Infinity,"pid":0,"tid":0}])")
          .ok());
}

TEST(ParseJson, FollowsTheRfc8259Grammar) {
  struct Case {
    std::string text;
    bool ok;
  };
  const Case kCases[] = {
      // Numbers.
      {"0", true},
      {"-0", true},
      {"12", true},
      {"-2.5e3", true},
      {"1E+2", true},
      {"1e-2", true},
      {"0.5", true},
      {"-inf", false},
      {"inf", false},
      {"infinity", false},
      {"NaN", false},
      {"0x1A", false},
      {"+1", false},
      {".5", false},
      {"1.", false},
      {"01", false},
      {"-", false},
      {"1e", false},
      {"1e+", false},
      {"--1", false},
      // Strings: control characters must be escaped.
      {"\"a\\tb\"", true},
      {"\"a\tb\"", false},
      {"\"a\nb\"", false},
      {std::string("\"a") + '\0' + "b\"", false},
      // Whitespace is space, tab, newline and carriage return only.
      {" \t\r\n[1]\n", true},
      {"\f[1]", false},
      {"[1]\v", false},
  };
  for (const Case& c : kCases) {
    JsonValue value;
    std::string error;
    EXPECT_EQ(parse_json(c.text, value, error), c.ok)
        << "input: " << c.text << " error: " << error;
  }
  JsonValue value;
  std::string error;
  ASSERT_TRUE(parse_json("-2.5e3", value, error));
  EXPECT_EQ(value.number, -2500.0);
}

TEST(BenchSchema, AcceptsMinimalAndFullDocuments) {
  EXPECT_TRUE(check_bench_json(
                  R"({"bench":"x","config":{},"wall_ms":1,)"
                  R"("events_per_sec":2,"metrics":{}})")
                  .empty());
  EXPECT_TRUE(check_bench_json(
                  R"({"bench":"fleet_throughput",)"
                  R"("config":{"nodes":10,"router":"RR","traced":false},)"
                  R"("wall_ms":12.5,"events_per_sec":800.0,)"
                  R"("metrics":{"speedup":3.5},"extra":"ignored"})")
                  .empty());
}

TEST(BenchSchema, RejectsMissingOrMistypedFields) {
  // No bench name.
  EXPECT_FALSE(check_bench_json(
                   R"({"config":{},"wall_ms":1,"events_per_sec":2,)"
                   R"("metrics":{}})")
                   .empty());
  // Empty bench name.
  EXPECT_FALSE(check_bench_json(
                   R"({"bench":"","config":{},"wall_ms":1,)"
                   R"("events_per_sec":2,"metrics":{}})")
                   .empty());
  // config values must be scalars.
  EXPECT_FALSE(check_bench_json(
                   R"({"bench":"x","config":{"nested":{}},"wall_ms":1,)"
                   R"("events_per_sec":2,"metrics":{}})")
                   .empty());
  // wall_ms must be a non-negative number.
  EXPECT_FALSE(check_bench_json(
                   R"({"bench":"x","config":{},"wall_ms":-1,)"
                   R"("events_per_sec":2,"metrics":{}})")
                   .empty());
  // metrics values must be numbers.
  EXPECT_FALSE(check_bench_json(
                   R"({"bench":"x","config":{},"wall_ms":1,)"
                   R"("events_per_sec":2,"metrics":{"m":"no"}})")
                   .empty());
  // Malformed JSON never throws.
  EXPECT_FALSE(check_bench_json("{").empty());
  EXPECT_FALSE(check_bench_json("[]").empty());
}

TEST(SimlintSchema, AcceptsEmptyAndPopulatedReports) {
  EXPECT_TRUE(check_simlint_json(
                  R"({"tool":"simlint","count":0,"violations":[]})")
                  .empty());
  EXPECT_TRUE(check_simlint_json(
                  R"({"tool":"simlint","count":2,"violations":[)"
                  R"({"file":"src/sim/env.cpp","line":12,)"
                  R"("rule":"banned-random","message":"use util::Rng"},)"
                  R"({"file":"src/serve/service.cpp","line":300,)"
                  R"("rule":"lock-order","message":"inversion"}],)"
                  R"("extra":"ignored"})")
                  .empty());
}

TEST(SimlintSchema, RejectsContractViolations) {
  // Wrong tool name.
  EXPECT_FALSE(check_simlint_json(
                   R"({"tool":"otherlint","count":0,"violations":[]})")
                   .empty());
  // count disagrees with the array length.
  EXPECT_FALSE(check_simlint_json(
                   R"({"tool":"simlint","count":3,"violations":[]})")
                   .empty());
  // Missing violations array.
  EXPECT_FALSE(
      check_simlint_json(R"({"tool":"simlint","count":0})").empty());
  // Violation with an empty rule.
  EXPECT_FALSE(check_simlint_json(
                   R"({"tool":"simlint","count":1,"violations":[)"
                   R"({"file":"a.cpp","line":1,"rule":"","message":"m"}]})")
                   .empty());
  // Line numbers are 1-based.
  EXPECT_FALSE(check_simlint_json(
                   R"({"tool":"simlint","count":1,"violations":[)"
                   R"({"file":"a.cpp","line":0,"rule":"r","message":"m"}]})")
                   .empty());
  // Violation missing its message.
  EXPECT_FALSE(check_simlint_json(
                   R"({"tool":"simlint","count":1,"violations":[)"
                   R"({"file":"a.cpp","line":1,"rule":"r"}]})")
                   .empty());
  // Root must be an object; malformed JSON never throws.
  EXPECT_FALSE(check_simlint_json("[]").empty());
  EXPECT_FALSE(check_simlint_json("{").empty());
}

TEST(FlowPairing, AcceptsMatchedStartStepEnd) {
  const char* kTrace = R"({"traceEvents":[
    {"name":"request","cat":"serve","ph":"s","ts":0,"pid":3,"tid":0,"id":7},
    {"name":"request","cat":"serve","ph":"t","ts":5,"pid":3,"tid":4,"id":7},
    {"name":"request","cat":"serve","ph":"f","bp":"e","ts":9,"pid":3,
     "tid":4,"id":7}
  ]})";
  const auto report = check_trace_json(kTrace);
  EXPECT_TRUE(report.ok()) << (report.errors.empty() ? "" : report.errors[0]);
  EXPECT_TRUE(report.flows_ok())
      << (report.flow_errors.empty() ? "" : report.flow_errors[0]);
  EXPECT_EQ(report.flow_start_counts.at("request"), 1U);
  EXPECT_EQ(report.flow_end_counts.at("request"), 1U);
}

TEST(FlowPairing, UnpairedFlowsAreFlowErrorsNotSchemaErrors) {
  // An end without a start: schema-valid, but the flow check must flag it.
  const char* kEndOnly = R"([
    {"name":"request","cat":"serve","ph":"f","bp":"e","ts":9,"pid":3,
     "tid":4,"id":7}
  ])";
  auto report = check_trace_json(kEndOnly);
  EXPECT_TRUE(report.ok());
  EXPECT_FALSE(report.flows_ok());
  ASSERT_EQ(report.flow_errors.size(), 1U);
  EXPECT_NE(report.flow_errors[0].find("end without a flow-start"),
            std::string::npos);

  // A start that never ends (the lost-track regression this guards).
  const char* kStartOnly = R"([
    {"name":"request","cat":"serve","ph":"s","ts":0,"pid":3,"tid":0,"id":7}
  ])";
  report = check_trace_json(kStartOnly);
  EXPECT_TRUE(report.ok());
  ASSERT_EQ(report.flow_errors.size(), 1U);
  EXPECT_NE(report.flow_errors[0].find("started but never ended"),
            std::string::npos);
}

TEST(FlowPairing, CountMismatchAndDistinctIdsAreReported) {
  // Two starts against one end on the same (cat, name, id) key.
  const char* kMismatch = R"([
    {"name":"request","cat":"serve","ph":"s","ts":0,"pid":3,"tid":0,"id":1},
    {"name":"request","cat":"serve","ph":"s","ts":1,"pid":3,"tid":0,"id":1},
    {"name":"request","cat":"serve","ph":"f","bp":"e","ts":2,"pid":3,
     "tid":1,"id":1}
  ])";
  auto report = check_trace_json(kMismatch);
  ASSERT_EQ(report.flow_errors.size(), 1U);
  EXPECT_NE(report.flow_errors[0].find("2 starts vs 1 ends"),
            std::string::npos);

  // Different ids never pair, even with matching names.
  const char* kCrossed = R"([
    {"name":"request","cat":"serve","ph":"s","ts":0,"pid":3,"tid":0,"id":1},
    {"name":"request","cat":"serve","ph":"f","bp":"e","ts":2,"pid":3,
     "tid":1,"id":2}
  ])";
  report = check_trace_json(kCrossed);
  EXPECT_EQ(report.flow_errors.size(), 2U);
}

TEST(FlowPairing, FlowEventsRequireAUsableId) {
  const char* kNoId = R"([
    {"name":"request","cat":"serve","ph":"s","ts":0,"pid":3,"tid":0}
  ])";
  const auto report = check_trace_json(kNoId);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(any_error_contains(report, "flow event needs"));
}

TEST(SnapshotSchema, AcceptsFlightRecorderShapedLines) {
  const std::string line1 =
      R"({"t":1,"seq":0,"counters":{"serve.routed":3},)"
      R"("gauges":{"serve.nodes":4},)"
      R"("histograms":{"serve.e2e_latency_s":{"count":2,"sum":0.75,)"
      R"("min":0.25,"max":0.5,"mean":0.375,"p50":0.25,"p95":0.5,"p99":0.5}},)"
      R"("slo":{"window_s":60,"goodput":1,"breaches":[]}})";
  const std::string line2 =
      R"({"t":2,"seq":1,"counters":{},"gauges":{},"histograms":{},)"
      R"("slo":{"breaches":["e2e_p99_s 0.5 > max 0.1"]}})";
  EXPECT_TRUE(check_snapshot_jsonl(line1 + "\n" + line2 + "\n").empty());
  // Blank lines between records are tolerated.
  EXPECT_TRUE(check_snapshot_jsonl(line1 + "\n\n" + line2 + "\n").empty());
}

TEST(SnapshotSchema, RejectsContractViolations) {
  const std::string valid =
      R"({"t":1,"seq":5,"counters":{},"gauges":{},"histograms":{},)"
      R"("slo":{"breaches":[]}})";
  // seq must strictly increase across lines.
  EXPECT_FALSE(check_snapshot_jsonl(valid + "\n" + valid + "\n").empty());
  // Missing "t".
  EXPECT_FALSE(check_snapshot_jsonl(
                   R"({"seq":0,"counters":{},"gauges":{},"histograms":{},)"
                   R"("slo":{"breaches":[]}})")
                   .empty());
  // Counter values must be numbers.
  EXPECT_FALSE(check_snapshot_jsonl(
                   R"({"t":1,"seq":0,"counters":{"c":"no"},"gauges":{},)"
                   R"("histograms":{},"slo":{"breaches":[]}})")
                   .empty());
  // Histogram entries need every summary field.
  EXPECT_FALSE(check_snapshot_jsonl(
                   R"({"t":1,"seq":0,"counters":{},"gauges":{},)"
                   R"("histograms":{"h":{"count":1}},)"
                   R"("slo":{"breaches":[]}})")
                   .empty());
  // Breach entries must be non-empty strings.
  EXPECT_FALSE(check_snapshot_jsonl(
                   R"({"t":1,"seq":0,"counters":{},"gauges":{},)"
                   R"("histograms":{},"slo":{"breaches":[""]}})")
                   .empty());
  // Malformed lines report a parse error and never throw.
  EXPECT_FALSE(check_snapshot_jsonl("{oops\n").empty());
}

}  // namespace
}  // namespace mlcr::obs
