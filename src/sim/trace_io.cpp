#include "sim/trace_io.hpp"

#include <array>
#include <charconv>
#include <cmath>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <string_view>
#include <vector>

#include "util/check.hpp"

namespace mlcr::sim {

namespace {
constexpr char kHeader[] = "function_id,arrival_s,exec_s";

[[nodiscard]] double parse_double(std::string_view field, std::size_t line) {
  // std::from_chars<double> is not universally available; strtod suffices.
  const std::string buf(field);
  char* end = nullptr;
  const double v = std::strtod(buf.c_str(), &end);
  MLCR_CHECK_MSG(end != nullptr && *end == '\0' && !buf.empty(),
                 "trace CSV line " << line << ": bad number '" << buf << "'");
  // strtod happily parses "nan"/"inf"; neither is a valid trace quantity.
  MLCR_CHECK_MSG(std::isfinite(v), "trace CSV line "
                                       << line << ": non-finite number '"
                                       << buf << "'");
  return v;
}

/// A function id: base-10 digits only, in range. strtod would also take
/// "1e0", "0x1", "1.0" and "+1", and casting an out-of-range double to the
/// id type is undefined behaviour.
[[nodiscard]] FunctionTypeId parse_function_id(std::string_view field,
                                               std::size_t line) {
  FunctionTypeId id = 0;
  const char* end = field.data() + field.size();
  const auto [ptr, ec] = std::from_chars(field.data(), end, id);
  MLCR_CHECK_MSG(ec == std::errc() && ptr == end,
                 "trace CSV line " << line << ": bad function id '" << field
                                   << "'");
  return id;
}

/// The shortest text that reads back as exactly `v`.
void write_double(std::ostream& os, double v) {
  std::array<char, 32> buf{};
  const auto [end, ec] = std::to_chars(buf.data(), buf.data() + buf.size(), v);
  MLCR_CHECK(ec == std::errc());
  os.write(buf.data(), end - buf.data());
}
}  // namespace

void write_trace_csv(const Trace& trace, std::ostream& os) {
  os << kHeader << '\n';
  for (const Invocation& inv : trace.invocations()) {
    os << inv.function << ',';
    write_double(os, inv.arrival_s);
    os << ',';
    write_double(os, inv.exec_s);
    os << '\n';
  }
  MLCR_CHECK_MSG(os.good(), "failed writing trace CSV");
}

void write_trace_csv(const Trace& trace, const std::string& path) {
  std::ofstream os(path);
  MLCR_CHECK_MSG(os.is_open(), "cannot open " << path << " for writing");
  write_trace_csv(trace, os);
}

Trace read_trace_csv(std::istream& is, const FunctionTable& functions) {
  std::string line;
  MLCR_CHECK_MSG(std::getline(is, line) && line == kHeader,
                 "trace CSV: missing or wrong header (expected '" << kHeader
                                                                  << "')");
  std::vector<Invocation> invocations;
  std::size_t line_no = 1;
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty()) continue;
    std::stringstream row(line);
    std::string fn_field, arrival_field, exec_field, extra;
    MLCR_CHECK_MSG(std::getline(row, fn_field, ',') &&
                       std::getline(row, arrival_field, ',') &&
                       std::getline(row, exec_field, ','),
                   "trace CSV line " << line_no << ": expected 3 columns");
    MLCR_CHECK_MSG(!std::getline(row, extra, ','),
                   "trace CSV line " << line_no
                                     << ": expected 3 columns, found more");
    Invocation inv;
    inv.function = parse_function_id(fn_field, line_no);
    MLCR_CHECK_MSG(inv.function < functions.size(),
                   "trace CSV line " << line_no << ": unknown function id "
                                     << inv.function);
    inv.arrival_s = parse_double(arrival_field, line_no);
    MLCR_CHECK_MSG(inv.arrival_s >= 0.0, "trace CSV line "
                                             << line_no
                                             << ": negative arrival time");
    inv.exec_s = parse_double(exec_field, line_no);
    MLCR_CHECK_MSG(inv.exec_s >= 0.0, "trace CSV line "
                                          << line_no
                                          << ": negative execution time");
    invocations.push_back(inv);
  }
  return Trace(std::move(invocations));
}

Trace read_trace_csv(const std::string& path, const FunctionTable& functions) {
  std::ifstream is(path);
  MLCR_CHECK_MSG(is.is_open(), "cannot open " << path << " for reading");
  return read_trace_csv(is, functions);
}

}  // namespace mlcr::sim
