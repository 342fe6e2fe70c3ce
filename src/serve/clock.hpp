// Time injection for the serving layer (DESIGN.md §6, §11). Service logic
// never reads a clock directly — it asks an injected serve::Clock — so the
// same SchedulerService runs live against wall time (WallClock) or replayed
// deterministically against the simulator (SimClock driven by a trace). The
// simlint rule `serve-clock-injection` enforces that src/serve/clock.cpp
// stays the only wall-time producer outside the existing allowed zones.
#pragma once

#include <atomic>
#include <cstdint>

namespace mlcr::serve {

/// Service time source, seconds since the service epoch. Implementations
/// must be monotone non-decreasing across calls and safe to read from any
/// thread.
class Clock {
 public:
  virtual ~Clock() = default;

  [[nodiscard]] virtual double now_s() const = 0;
};

/// Simulated clock: time moves only via advance_to(), so a service driven by
/// it is a pure function of its inputs. The driving thread advances it; any
/// thread may read it.
class SimClock final : public Clock {
 public:
  explicit SimClock(double start_s = 0.0);

  [[nodiscard]] double now_s() const override;

  /// Move time forward to `t` (seconds). Requires t >= now_s().
  void advance_to(double t);

 private:
  std::atomic<double> now_s_;
};

/// Wall clock for live serving: monotonic time relative to construction
/// (the service epoch), so arrival stamps start near zero like a trace.
class WallClock final : public Clock {
 public:
  WallClock();

  [[nodiscard]] double now_s() const override;

 private:
  std::int64_t epoch_us_;
};

}  // namespace mlcr::serve
