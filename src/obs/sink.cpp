#include "obs/sink.hpp"

#include <cstdio>

#include "util/check.hpp"

namespace mlcr::obs {

std::string format_number(double value) {
  // %.12g round-trips every latency/counter value this codebase produces and
  // renders integers without a trailing ".0" — compact and deterministic on
  // a given platform.
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.12g", value);
  return buf;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace {

[[nodiscard]] std::unique_ptr<std::ofstream> open_for_write(
    const std::string& path) {
  auto os = std::make_unique<std::ofstream>(path);
  MLCR_CHECK_MSG(os->is_open(), "cannot open " << path << " for writing");
  return os;
}

}  // namespace

// --- ChromeTraceSink --------------------------------------------------------

ChromeTraceSink::ChromeTraceSink(std::ostream& os) : os_(&os) {
  *os_ << "{\"traceEvents\":[";
}

ChromeTraceSink::ChromeTraceSink(const std::string& path)
    : owned_(open_for_write(path)), os_(owned_.get()) {
  *os_ << "{\"traceEvents\":[";
}

ChromeTraceSink::~ChromeTraceSink() { close(); }

void ChromeTraceSink::write(const TraceEvent& e) {
  MLCR_CHECK_MSG(!closed_, "write to a closed trace sink");
  std::ostream& os = *os_;
  os << (first_ ? "\n" : ",\n");
  first_ = false;
  os << "{\"name\":\"" << json_escape(e.name) << "\",\"ph\":\""
     << static_cast<char>(e.phase) << "\",\"ts\":" << e.ts;
  if (e.phase == Phase::kComplete) os << ",\"dur\":" << e.dur;
  if (is_flow_phase(e.phase)) {
    os << ",\"id\":" << e.flow_id;
    // Bind the flow end to the enclosing slice rather than the next one, per
    // the trace_event flow-event spec.
    if (e.phase == Phase::kFlowEnd) os << ",\"bp\":\"e\"";
  }
  os << ",\"pid\":" << e.pid << ",\"tid\":" << e.tid;
  if (!e.category.empty())
    os << ",\"cat\":\"" << json_escape(e.category) << "\"";
  if (!e.args.empty()) {
    os << ",\"args\":{";
    for (std::size_t i = 0; i < e.args.size(); ++i) {
      const TraceArg& a = e.args[i];
      if (i != 0) os << ",";
      os << "\"" << json_escape(a.key) << "\":";
      if (a.quoted)
        os << "\"" << json_escape(a.value) << "\"";
      else
        os << a.value;
    }
    os << "}";
  }
  os << "}";
}

void ChromeTraceSink::close() {
  if (closed_) return;
  closed_ = true;
  *os_ << "\n],\"displayTimeUnit\":\"ms\"}\n";
  os_->flush();
}

}  // namespace mlcr::obs
