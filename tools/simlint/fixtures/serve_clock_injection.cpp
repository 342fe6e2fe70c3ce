// Fixture for the serve-clock-injection rule: code under src/ never reads
// wall time directly. Service logic asks an injected serve::Clock, so the
// same code runs live (WallClock) or deterministically replayed (SimClock),
// and the tracing layer (src/obs) is clock-free: every timestamp is supplied
// by the caller. The only wall-time consumers are src/util and
// src/serve/clock.cpp. This file is linted as src/serve/service_like.cpp
// (and as src/obs/... for scope); it is never compiled.
#include <ctime>

namespace mlcr::serve {

double bad_direct_wall_read() {
  return static_cast<double>(util::wall_now_us());  // VIOLATION serve-clock-injection
}

void bad_posix_clocks() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);  // VIOLATION serve-clock-injection
  timeval tv{};
  gettimeofday(&tv, nullptr);  // VIOLATION serve-clock-injection
  timespec_get(&ts, TIME_UTC);  // VIOLATION serve-clock-injection
}

void bad_calendar_time() {
  std::time_t t = 0;
  (void)localtime(&t);  // VIOLATION serve-clock-injection
  (void)gmtime(&t);     // VIOLATION serve-clock-injection
}

// The contract: time flows in through the injected clock or the caller.
// Never flagged.
double good_injected_time(const Clock& clock) { return clock.now_s(); }
double good_caller_supplied(double now_us) { return now_us; }

// Identifiers that merely contain a banned name are not calls.
struct Stamp {
  double wall_now_us_cache = 0.0;
  double cached() const { return wall_now_us_cache; }
};

}  // namespace mlcr::serve
