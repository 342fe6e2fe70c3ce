// Trace sinks: where finalized TraceEvents go. ChromeTraceSink streams the
// Chrome trace_event JSON object ({"traceEvents":[...]}) in emission order —
// events are not re-sorted by timestamp, and Perfetto does not require them
// to be.
#pragma once

#include <fstream>
#include <memory>
#include <ostream>
#include <string>

#include "obs/trace_event.hpp"

namespace mlcr::obs {

class TraceSink {
 public:
  virtual ~TraceSink() = default;

  virtual void write(const TraceEvent& event) = 0;

  /// Finalize the output (write JSON tail, flush). Idempotent; called by
  /// Tracer::close() and the destructor of concrete sinks.
  virtual void close() {}
};

/// Streams `{"traceEvents":[...]}` to an ostream (or a file it owns).
class ChromeTraceSink final : public TraceSink {
 public:
  /// Write to a caller-owned stream (must outlive the sink).
  explicit ChromeTraceSink(std::ostream& os);
  /// Write to `path`; throws util::CheckError if the file cannot be opened.
  explicit ChromeTraceSink(const std::string& path);
  ~ChromeTraceSink() override;

  void write(const TraceEvent& event) override;
  void close() override;

 private:
  std::unique_ptr<std::ofstream> owned_;
  std::ostream* os_ = nullptr;
  bool first_ = true;
  bool closed_ = false;
};

/// Escape a string for a JSON string literal (quotes not included).
[[nodiscard]] std::string json_escape(const std::string& s);

}  // namespace mlcr::obs
