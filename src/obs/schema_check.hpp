// Minimal in-repo Chrome trace_event schema checker: parses a JSON trace
// (self-contained recursive-descent parser, no third-party dependency) and
// validates the subset of the trace_event format this repo emits — the
// contract CI's trace-smoke job and the round-trip tests pin.
//
// Accepted schema:
//   root        := {"traceEvents": [event*], ...} | [event*]
//   event       := object with required fields
//                    "name" non-empty string
//                    "ph"   1-char string in {X, B, E, i, I, C, M, s, t, f}
//                    "ts"   finite number >= 0
//                    "pid"  number, "tid" number
//                  and conditionally
//                    ph X -> "dur" finite number >= 0
//                    ph C -> "args" non-empty object of numeric values
//                    ph M -> "name" in {process_name, thread_name,
//                            process_labels} and "args" object with "name"
//                    ph s/t/f -> "id" finite number >= 0 or non-empty string
//                    ph i/I named dqn_inference -> "args" with "forced"
//                            0 or 1 (1: the mask allowed one action)
//                  "args" (when present) must be an object; "cat" a string.
//
// Flow pairing (ph s/t/f) is validated separately into `flow_errors`: every
// started flow id must end (on any thread), every end/step must have a start.
#pragma once

#include <map>
#include <string>
#include <vector>

namespace mlcr::obs {

struct TraceCheckReport {
  /// Empty means the trace is schema-valid. Each entry is one human-readable
  /// problem ("event 12: ..."); collection stops after kMaxErrors.
  std::vector<std::string> errors;
  std::size_t event_count = 0;
  /// Complete-span ("X") occurrences by event name.
  std::map<std::string, std::size_t> span_counts;
  /// Counter ("C") series names.
  std::map<std::string, std::size_t> counter_counts;
  /// Instant ("i"/"I") occurrences by event name.
  std::map<std::string, std::size_t> instant_counts;
  /// Flow-start ("s") occurrences by event name.
  std::map<std::string, std::size_t> flow_start_counts;
  /// Flow-end ("f") occurrences by event name.
  std::map<std::string, std::size_t> flow_end_counts;
  /// Cross-thread flow pairing problems, kept separate from `errors` so a
  /// schema-valid trace with unpaired flows still passes plain validation;
  /// tracecheck --flows gates on this list being empty.
  std::vector<std::string> flow_errors;

  static constexpr std::size_t kMaxErrors = 50;

  [[nodiscard]] bool ok() const noexcept { return errors.empty(); }
  [[nodiscard]] bool flows_ok() const noexcept { return flow_errors.empty(); }
};

/// Parse and validate `json_text` as a Chrome trace. Never throws on bad
/// input — parse failures are reported in `errors`.
[[nodiscard]] TraceCheckReport check_trace_json(const std::string& json_text);

/// Validate `json_text` against the bench result schema every bench's
/// --json flag emits (and tools/benchdiff consumes):
///   root := {"bench":   non-empty string,
///            "config":  object of scalar values (string/number/bool),
///            "wall_ms": finite number >= 0,
///            "events_per_sec": finite number >= 0,
///            "metrics": object of finite numbers}
/// Unknown extra keys are allowed (the schema is append-only). Returns the
/// problems found; empty means valid. Never throws on bad input.
[[nodiscard]] std::vector<std::string> check_bench_json(
    const std::string& json_text);

/// Validate `json_text` against the report schema simlint --json emits (and
/// CI's lint-strict job uploads):
///   root := {"tool": "simlint",
///            "count": number == len(violations),
///            "violations": [{"file":    non-empty string,
///                            "line":    finite number >= 1,
///                            "rule":    non-empty string,
///                            "message": non-empty string}*]}
/// Unknown extra keys are allowed (append-only schema). Returns the problems
/// found; empty means valid. Never throws on bad input.
[[nodiscard]] std::vector<std::string> check_simlint_json(
    const std::string& json_text);

/// Validate `jsonl_text` against the flight-recorder snapshot schema the
/// serve telemetry plane exports (one JSON object per line):
///   line := {"t":   finite number >= 0,
///            "seq": finite number >= 0 (strictly increasing across lines),
///            "counters":   object of finite numbers,
///            "gauges":     object of finite numbers,
///            "histograms": object of {"count","sum","min","max","mean",
///                                     "p50","p95","p99"} finite numbers,
///            "slo": object with finite-number stats and
///                   "breaches" array of non-empty strings}
/// Unknown extra keys are allowed (append-only schema). Returns the problems
/// found; empty means valid. Never throws on bad input.
[[nodiscard]] std::vector<std::string> check_snapshot_jsonl(
    const std::string& jsonl_text);

}  // namespace mlcr::obs
