// Tracer front-end: the null fast path, event rendering through the Chrome
// sink, multi-sink fan-out, and close() semantics.
#include "obs/tracer.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>

#include "obs/schema_check.hpp"
#include "obs/sink.hpp"
#include "util/parse.hpp"

namespace mlcr::obs {
namespace {

bool contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

TEST(Tracer, NoSinksMeansDisabledAndEmitsNothing) {
  Tracer tracer;
  EXPECT_FALSE(tracer.enabled());
  // Emits against a disabled tracer are cheap no-ops, not errors: this is
  // exactly what an unguarded instrumentation site would do.
  tracer.span(Tracer::kSimPid, 0, 0, 10, "startup", "sim");
  tracer.instant(Tracer::kSimPid, 0, 0, "match", "sim");
  tracer.counter(Tracer::kSimPid, 0, 0, "pool_used_mb", 1.0);
  EXPECT_EQ(tracer.event_count(), 0U);
}

TEST(Tracer, ChromeSinkProducesSchemaValidJson) {
  std::ostringstream out;
  {
    Tracer tracer;
    tracer.add_sink(std::make_shared<ChromeTraceSink>(out));
    EXPECT_TRUE(tracer.enabled());
    tracer.process_name(Tracer::kSimPid, "simulated-cluster");
    tracer.thread_name(Tracer::kSimPid, 0, "node0");
    tracer.instant(Tracer::kSimPid, 0, 5, "match", "sim",
                   {sarg("level", "L2"), narg("container", std::int64_t{3})});
    tracer.span(Tracer::kSimPid, 0, 5, 1200, "startup", "sim",
                {sarg("function", "py-flask")});
    tracer.counter(Tracer::kSimPid, 0, 5, "pool_used_mb", 130.5);
    tracer.close();
    EXPECT_EQ(tracer.event_count(), 5U);
  }
  const auto report = check_trace_json(out.str());
  EXPECT_TRUE(report.ok()) << (report.errors.empty() ? "" : report.errors[0]);
  EXPECT_EQ(report.event_count, 5U);
  EXPECT_EQ(report.span_counts.at("startup"), 1U);
  EXPECT_EQ(report.instant_counts.at("match"), 1U);
  EXPECT_EQ(report.counter_counts.at("pool_used_mb"), 1U);
}

TEST(Tracer, ChromeSinkRendersFieldsExactly) {
  std::ostringstream out;
  Tracer tracer;
  tracer.add_sink(std::make_shared<ChromeTraceSink>(out));
  tracer.span(Tracer::kSimPid, 2, 100, 250, "exec", "sim",
              {narg("seq", std::int64_t{7})});
  tracer.close();
  const std::string json = out.str();
  EXPECT_TRUE(contains(json, "\"name\":\"exec\"")) << json;
  EXPECT_TRUE(contains(json, "\"ph\":\"X\"")) << json;
  EXPECT_TRUE(contains(json, "\"ts\":100")) << json;
  EXPECT_TRUE(contains(json, "\"dur\":250")) << json;
  EXPECT_TRUE(contains(json, "\"pid\":0")) << json;
  EXPECT_TRUE(contains(json, "\"tid\":2")) << json;
  EXPECT_TRUE(contains(json, "\"args\":{\"seq\":7}")) << json;
  EXPECT_TRUE(contains(json, "\"displayTimeUnit\":\"ms\"")) << json;
}

TEST(Tracer, EverySinkReceivesEveryEvent) {
  std::ostringstream first;
  std::ostringstream second;
  Tracer tracer;
  tracer.add_sink(std::make_shared<ChromeTraceSink>(first));
  tracer.add_sink(std::make_shared<ChromeTraceSink>(second));
  tracer.instant(Tracer::kSimPid, 0, 1, "match", "sim");
  tracer.counter(Tracer::kTrainPid, 1, 4, "loss", 0.25);
  tracer.close();
  EXPECT_TRUE(contains(first.str(), "\"name\":\"match\""));
  EXPECT_TRUE(contains(first.str(), "\"name\":\"loss\""));
  EXPECT_EQ(first.str(), second.str());
  EXPECT_EQ(check_trace_json(second.str()).event_count, 2U);
}

TEST(Tracer, CloseIsIdempotentAndDropsLateEvents) {
  std::ostringstream out;
  Tracer tracer;
  tracer.add_sink(std::make_shared<ChromeTraceSink>(out));
  tracer.instant(Tracer::kSimPid, 0, 1, "match", "sim");
  tracer.close();
  tracer.close();
  const std::string after_close = out.str();
  // Emits after close are dropped, not appended to the finalized JSON.
  tracer.instant(Tracer::kSimPid, 0, 2, "late", "sim");
  EXPECT_EQ(out.str(), after_close);
  EXPECT_EQ(tracer.event_count(), 1U);
  EXPECT_TRUE(check_trace_json(out.str()).ok());
}

TEST(Tracer, JsonEscapeHandlesControlCharactersAndQuotes) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(json_escape(std::string(1, '\x01')), "\\u0001");
}

TEST(Tracer, FormatNumberIsCompactAndRoundTrips) {
  EXPECT_EQ(format_number(3.0), "3");
  EXPECT_EQ(format_number(0.25), "0.25");
  EXPECT_EQ(format_number(-1.5), "-1.5");
  const double v = 0.12345678901;
  EXPECT_DOUBLE_EQ(util::parse_number(format_number(v), "format_number"), v);
}

TEST(Tracer, ToMicrosRoundsToNearest) {
  EXPECT_EQ(to_micros(0.0), 0);
  EXPECT_EQ(to_micros(1.5), 1'500'000);
  EXPECT_EQ(to_micros(0.0000004), 0);
  EXPECT_EQ(to_micros(0.0000006), 1);
}

TEST(Tracer, FlowEventsCarryTheirIdAndBindTheEndToTheEnclosingSlice) {
  std::ostringstream out;
  Tracer tracer;
  tracer.add_sink(std::make_shared<ChromeTraceSink>(out));
  tracer.flow_start(Tracer::kServePid, 0, 10, 42, "request", "serve");
  tracer.flow_step(Tracer::kServePid, 2, 20, 42, "request", "serve");
  tracer.flow_end(Tracer::kServePid, 2, 30, 42, "request", "serve");
  tracer.close();
  const std::string json = out.str();

  EXPECT_TRUE(contains(json, "\"ph\":\"s\"")) << json;
  EXPECT_TRUE(contains(json, "\"ph\":\"t\"")) << json;
  EXPECT_TRUE(contains(json, "\"ph\":\"f\"")) << json;
  EXPECT_TRUE(contains(json, "\"id\":42")) << json;
  // Per the trace_event spec the end binds to its enclosing slice; only the
  // "f" event may carry the binding point.
  EXPECT_TRUE(contains(json, "\"bp\":\"e\"")) << json;

  const auto report = check_trace_json(json);
  EXPECT_TRUE(report.ok());
  EXPECT_TRUE(report.flows_ok())
      << (report.flow_errors.empty() ? "" : report.flow_errors[0]);
  EXPECT_EQ(report.flow_start_counts.at("request"), 1U);
  EXPECT_EQ(report.flow_end_counts.at("request"), 1U);
}

}  // namespace
}  // namespace mlcr::obs
