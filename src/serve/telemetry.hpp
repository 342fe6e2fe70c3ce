// serve::Telemetry — the concurrent telemetry facade of the serving plane
// (DESIGN.md §13). SchedulerService (and only it — simlint's
// obs-concurrent-registry rule bans the single-threaded obs front-ends from
// src/serve) reports every request's lifecycle here:
//
//   submit  -> flow-start "request" (id = invocation seq) on the ingest
//              track, counters, queue-depth watermark sample
//   route   -> flow-step on the target node's track
//   dispatch-> dispatch span + flow-end on the node track, routing/e2e
//              latency samples
//   lost    -> flow-end on the lost track (so every flow pairs)
//   janitor -> advance() the sliding SLO windows off the injected
//              serve::Clock and emit a flight-recorder snapshot every
//              snapshot_period_s
//
// Metrics go to an obs::ConcurrentMetricsRegistry (per-slot locks — the
// hot path never takes a global lock for a counter). The borrowed
// obs::Tracer is single-threaded, so trace emission and the SLO windows
// share one telemetry mutex (rank util::lock_ranks::kTelemetry; the
// registry's slot locks rank above it so snapshots can merge while holding
// it). A null/disabled tracer skips that mutex entirely on the trace paths.
//
// Determinism: every timestamp is caller-supplied from the service clock.
// Under SimClock with single-threaded run_replay, traces and snapshot JSONL
// are byte-identical across runs (pinned in tests/serve/test_telemetry.cpp).
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "obs/concurrent.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/slo.hpp"
#include "obs/tracer.hpp"
#include "sim/env.hpp"
#include "sim/invocation.hpp"

namespace mlcr::serve {

struct TelemetryConfig {
  /// SLO thresholds + window length (defaults: observe only, no breaches).
  obs::SloConfig slo;
  /// Flight-recorder cadence in clock seconds.
  double snapshot_period_s = 1.0;
  /// JSONL snapshot path; empty disables the flight recorder.
  std::string snapshot_path;
  /// Writer slots in the concurrent registry (~ worker threads).
  std::size_t registry_slots = 8;
};

class Telemetry {
 public:
  /// `tracer` is borrowed (may be null: metrics/SLO only). Null or sink-less
  /// tracers cost one predicted branch per hook.
  explicit Telemetry(TelemetryConfig config = {},
                     obs::Tracer* tracer = nullptr);

  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  /// Reset counters and windows, emit the serve-track naming metadata.
  /// Track layout: tid [0, workers) ingest slots, [workers, workers+nodes)
  /// node tracks, workers+nodes the lost track.
  void begin_episode(std::size_t nodes, std::size_t workers, double now_s);

  /// Final window advance + one last snapshot, then close the recorder.
  void end_episode(double now_s);

  /// One submit() call. `accepted` false means backpressure-rejected (no
  /// flow is started); `queue_depth` is the depth seen at ingestion.
  void on_submit(const sim::Invocation& inv, std::size_t queue_slot,
                 std::size_t queue_depth, bool accepted, double now_s);

  /// Routing decision for an accepted request (before dispatch).
  void on_route(const sim::Invocation& inv, std::size_t node, bool rerouted,
                double now_s);

  /// Request executed on `node`. Records routing + end-to-end latency and
  /// ends the request's flow.
  void on_dispatch(const sim::Invocation& inv, std::size_t node,
                   bool rerouted, const sim::StepResult& result, double now_s);

  /// Accepted request dropped: no healthy node. Ends the flow on the lost
  /// track.
  void on_lost(const sim::Invocation& inv, double now_s);

  // Fault-plane hooks (DESIGN.md §14): the service reports crash/recover/
  // domain events here so chaos runs are gateable offline (tracecheck on the
  // instants, obsreport on the loss-rate / retry-pressure SLOs).

  /// `node` crashed (partial: compute lost, warm pool survives).
  void on_node_crash(std::size_t node, bool partial, double now_s);

  /// `node` rejoined the routable fleet.
  void on_node_recover(std::size_t node, double now_s);

  /// First member crash of a correlated (domain, down_at) group.
  void on_domain_crash(std::size_t domain, bool partial, double now_s);

  /// A crash event admitted cold spare `node` into the routable set.
  void on_spare_activated(std::size_t node, double now_s);

  /// Janitor tick: evict expired window samples and, when
  /// snapshot_period_s has elapsed, write a flight-recorder snapshot
  /// (metrics + SLO report + breach evaluation).
  void advance(double now_s);

  /// Merged view of the concurrent registry.
  [[nodiscard]] obs::MetricsRegistry metrics() const;

  /// Windowed SLO evaluation as of the last advance()/hook.
  [[nodiscard]] obs::SloReport slo_report() const;

  /// Total SLO breaches recorded at snapshots so far.
  [[nodiscard]] std::uint64_t breach_count() const;

  /// Snapshots written so far (0 without a snapshot_path).
  [[nodiscard]] std::uint64_t snapshot_count() const;

  [[nodiscard]] const TelemetryConfig& config() const noexcept {
    return config_;
  }

 private:
  /// Build the SLO report from the windows; caller holds telemetry_mutex_.
  [[nodiscard]] obs::SloReport windowed_slo_locked() const;

  /// Write one snapshot line; caller holds telemetry_mutex_.
  void snapshot_locked(double now_s);

  [[nodiscard]] bool tracing() const noexcept {
    return tracer_ != nullptr && tracer_->enabled();
  }

  TelemetryConfig config_;
  obs::Tracer* tracer_ = nullptr;
  obs::ConcurrentMetricsRegistry registry_;

  /// Guards the windows, the tracer, and the recorder (single-threaded
  /// pieces behind the concurrent facade).
  mutable std::mutex telemetry_mutex_;
  std::size_t nodes_ = 0;
  std::size_t workers_ = 0;
  obs::SlidingWindow route_latency_;
  obs::SlidingWindow e2e_latency_;
  obs::SlidingWindow queue_depth_;
  obs::SlidingWindow submits_;
  obs::SlidingWindow routes_;
  obs::SlidingWindow rejects_;
  obs::SlidingWindow losses_;
  /// Extra start attempts per dispatched request (retry pressure, §14).
  obs::SlidingWindow retries_;
  std::unique_ptr<obs::FlightRecorder> recorder_;
  double last_snapshot_s_ = 0.0;
  std::uint64_t breaches_total_ = 0;
};

}  // namespace mlcr::serve
