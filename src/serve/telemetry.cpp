#include "serve/telemetry.hpp"

#include <algorithm>

#include "util/check.hpp"
#include "util/lock_audit.hpp"

namespace mlcr::serve {

namespace {

constexpr std::uint32_t kPid = obs::Tracer::kServePid;

[[nodiscard]] std::uint32_t track(std::size_t tid) {
  return static_cast<std::uint32_t>(tid);
}

}  // namespace

Telemetry::Telemetry(TelemetryConfig config, obs::Tracer* tracer)
    : config_(std::move(config)),
      tracer_(tracer),
      registry_(config_.registry_slots),
      route_latency_(config_.slo.window_s),
      e2e_latency_(config_.slo.window_s),
      queue_depth_(config_.slo.window_s),
      submits_(config_.slo.window_s),
      routes_(config_.slo.window_s),
      rejects_(config_.slo.window_s),
      losses_(config_.slo.window_s),
      retries_(config_.slo.window_s) {
  MLCR_CHECK_MSG(config_.snapshot_period_s > 0.0,
                 "snapshot period must be positive");
  if (!config_.snapshot_path.empty())
    recorder_ = std::make_unique<obs::FlightRecorder>(config_.snapshot_path);
}

void Telemetry::begin_episode(std::size_t nodes, std::size_t workers,
                              double now_s) {
  registry_.clear();
  registry_.set_gauge("serve.nodes", static_cast<double>(nodes));
  registry_.set_gauge("serve.workers", static_cast<double>(workers));

  std::lock_guard<std::mutex> guard(telemetry_mutex_);
  const util::LockRankScope rank(util::lock_ranks::kTelemetry,
                                 "telemetry_mutex_");
  nodes_ = nodes;
  workers_ = workers;
  for (obs::SlidingWindow* window :
       {&route_latency_, &e2e_latency_, &queue_depth_, &submits_, &routes_,
        &rejects_, &losses_, &retries_})
    window->clear();
  last_snapshot_s_ = now_s;
  breaches_total_ = 0;
  if (tracing()) {
    tracer_->process_name(kPid, "serving");
    for (std::size_t w = 0; w < workers_; ++w)
      tracer_->thread_name(kPid, track(w), "ingest-" + std::to_string(w));
    for (std::size_t n = 0; n < nodes_; ++n)
      tracer_->thread_name(kPid, track(workers_ + n),
                           "node-" + std::to_string(n));
    tracer_->thread_name(kPid, track(workers_ + nodes_), "lost");
  }
}

void Telemetry::end_episode(double now_s) {
  std::lock_guard<std::mutex> guard(telemetry_mutex_);
  const util::LockRankScope rank(util::lock_ranks::kTelemetry,
                                 "telemetry_mutex_");
  for (obs::SlidingWindow* window :
       {&route_latency_, &e2e_latency_, &queue_depth_, &submits_, &routes_,
        &rejects_, &losses_, &retries_})
    window->advance(now_s);
  snapshot_locked(now_s);
  last_snapshot_s_ = now_s;
  if (recorder_) recorder_->close();
}

void Telemetry::on_submit(const sim::Invocation& inv, std::size_t queue_slot,
                          std::size_t queue_depth, bool accepted,
                          double now_s) {
  registry_.add("serve.submitted");
  if (!accepted) registry_.add("serve.rejected");
  registry_.record("serve.queue_depth", static_cast<double>(queue_depth));

  std::lock_guard<std::mutex> guard(telemetry_mutex_);
  const util::LockRankScope rank(util::lock_ranks::kTelemetry,
                                 "telemetry_mutex_");
  submits_.record(now_s, 1.0);
  if (!accepted) rejects_.record(now_s, 1.0);
  queue_depth_.record(now_s, static_cast<double>(queue_depth));
  if (!tracing()) return;
  const obs::Micros ts = obs::to_micros(now_s);
  if (accepted) {
    tracer_->flow_start(
        kPid, track(queue_slot), ts, inv.seq, "request", "serve",
        {obs::narg("function", static_cast<std::uint64_t>(inv.function)),
         obs::narg("queue_depth", static_cast<std::uint64_t>(queue_depth))});
  } else {
    tracer_->instant(
        kPid, track(queue_slot), ts, "request_rejected", "serve",
        {obs::narg("seq", inv.seq),
         obs::narg("queue_depth", static_cast<std::uint64_t>(queue_depth))});
  }
}

void Telemetry::on_route(const sim::Invocation& inv, std::size_t node,
                         bool rerouted, double now_s) {
  const double wait = std::max(0.0, now_s - inv.arrival_s);
  registry_.record("serve.route_latency_s", wait);

  std::lock_guard<std::mutex> guard(telemetry_mutex_);
  const util::LockRankScope rank(util::lock_ranks::kTelemetry,
                                 "telemetry_mutex_");
  route_latency_.record(now_s, wait);
  if (!tracing()) return;
  tracer_->flow_step(kPid, track(workers_ + node), obs::to_micros(now_s),
                     inv.seq, "request", "serve",
                     {obs::narg("node", static_cast<std::uint64_t>(node)),
                      obs::narg("rerouted",
                                static_cast<std::int64_t>(rerouted ? 1 : 0))});
}

void Telemetry::on_dispatch(const sim::Invocation& inv, std::size_t node,
                            bool rerouted, const sim::StepResult& result,
                            double now_s) {
  registry_.add("serve.routed");
  if (rerouted) registry_.add("serve.rerouted");
  if (result.cold) registry_.add("serve.cold_starts");
  registry_.record("serve.startup_latency_s", result.latency_s);
  const double wait = std::max(0.0, now_s - inv.arrival_s);
  const double e2e = wait + result.latency_s;
  registry_.record("serve.e2e_latency_s", e2e);
  const double retries = static_cast<double>(result.attempts - 1);
  if (retries > 0.0) registry_.add("serve.start_retries",
                                   static_cast<std::uint64_t>(retries));

  std::lock_guard<std::mutex> guard(telemetry_mutex_);
  const util::LockRankScope rank(util::lock_ranks::kTelemetry,
                                 "telemetry_mutex_");
  e2e_latency_.record(now_s, e2e);
  routes_.record(now_s, 1.0);
  retries_.record(now_s, retries);
  if (!tracing()) return;
  const obs::Micros ts = obs::to_micros(now_s);
  tracer_->span(
      kPid, track(workers_ + node), ts, obs::to_micros(result.latency_s),
      "serve.dispatch", "serve",
      {obs::narg("seq", inv.seq),
       obs::narg("cold", static_cast<std::int64_t>(result.cold ? 1 : 0)),
       obs::narg("latency_s", result.latency_s)});
  tracer_->flow_end(kPid, track(workers_ + node), ts, inv.seq, "request",
                    "serve",
                    {obs::narg("node", static_cast<std::uint64_t>(node))});
}

void Telemetry::on_lost(const sim::Invocation& inv, double now_s) {
  registry_.add("serve.lost");

  std::lock_guard<std::mutex> guard(telemetry_mutex_);
  const util::LockRankScope rank(util::lock_ranks::kTelemetry,
                                 "telemetry_mutex_");
  losses_.record(now_s, 1.0);
  if (!tracing()) return;
  const obs::Micros ts = obs::to_micros(now_s);
  tracer_->instant(kPid, track(workers_ + nodes_), ts, "request_lost",
                   "serve", {obs::narg("seq", inv.seq)});
  tracer_->flow_end(kPid, track(workers_ + nodes_), ts, inv.seq, "request",
                    "serve");
}

void Telemetry::on_node_crash(std::size_t node, bool partial, double now_s) {
  registry_.add("serve.node_crashes");
  if (partial) registry_.add("serve.partial_crashes");
  if (!tracing()) return;
  std::lock_guard<std::mutex> guard(telemetry_mutex_);
  const util::LockRankScope rank(util::lock_ranks::kTelemetry,
                                 "telemetry_mutex_");
  tracer_->instant(
      kPid, track(workers_ + node), obs::to_micros(now_s), "node_crash",
      "fault",
      {obs::narg("node", static_cast<std::uint64_t>(node)),
       obs::narg("partial", static_cast<std::int64_t>(partial ? 1 : 0))});
}

void Telemetry::on_node_recover(std::size_t node, double now_s) {
  registry_.add("serve.node_recoveries");
  if (!tracing()) return;
  std::lock_guard<std::mutex> guard(telemetry_mutex_);
  const util::LockRankScope rank(util::lock_ranks::kTelemetry,
                                 "telemetry_mutex_");
  tracer_->instant(kPid, track(workers_ + node), obs::to_micros(now_s),
                   "node_recover", "fault",
                   {obs::narg("node", static_cast<std::uint64_t>(node))});
}

void Telemetry::on_domain_crash(std::size_t domain, bool partial,
                                double now_s) {
  registry_.add("serve.domain_crashes");
  if (!tracing()) return;
  std::lock_guard<std::mutex> guard(telemetry_mutex_);
  const util::LockRankScope rank(util::lock_ranks::kTelemetry,
                                 "telemetry_mutex_");
  // Domain events are fleet-wide, so they land on the shared lost track
  // rather than any single node's.
  tracer_->instant(
      kPid, track(workers_ + nodes_), obs::to_micros(now_s), "domain_crash",
      "fault",
      {obs::narg("domain", static_cast<std::uint64_t>(domain)),
       obs::narg("partial", static_cast<std::int64_t>(partial ? 1 : 0))});
}

void Telemetry::on_spare_activated(std::size_t node, double now_s) {
  registry_.add("serve.spares_activated");
  if (!tracing()) return;
  std::lock_guard<std::mutex> guard(telemetry_mutex_);
  const util::LockRankScope rank(util::lock_ranks::kTelemetry,
                                 "telemetry_mutex_");
  tracer_->instant(kPid, track(workers_ + node), obs::to_micros(now_s),
                   "spare_activated", "fault",
                   {obs::narg("node", static_cast<std::uint64_t>(node))});
}

void Telemetry::advance(double now_s) {
  std::lock_guard<std::mutex> guard(telemetry_mutex_);
  const util::LockRankScope rank(util::lock_ranks::kTelemetry,
                                 "telemetry_mutex_");
  for (obs::SlidingWindow* window :
       {&route_latency_, &e2e_latency_, &queue_depth_, &submits_, &routes_,
        &rejects_, &losses_, &retries_})
    window->advance(now_s);
  if (now_s - last_snapshot_s_ >= config_.snapshot_period_s) {
    snapshot_locked(now_s);
    last_snapshot_s_ = now_s;
  }
}

obs::SloReport Telemetry::windowed_slo_locked() const {
  obs::SloReport report;
  report.window_s = config_.slo.window_s;
  report.submitted = submits_.count();
  report.routed = routes_.count();
  report.rejected = rejects_.count();
  report.lost = losses_.count();
  const std::vector<double> ps = {50.0, 95.0, 99.0};
  const std::vector<double> route = route_latency_.percentiles(ps);
  report.route_p50_s = route[0];
  report.route_p95_s = route[1];
  report.route_p99_s = route[2];
  const std::vector<double> e2e = e2e_latency_.percentiles(ps);
  report.e2e_p50_s = e2e[0];
  report.e2e_p95_s = e2e[1];
  report.e2e_p99_s = e2e[2];
  const double submitted = static_cast<double>(report.submitted);
  report.goodput =
      report.submitted == 0
          ? 1.0
          : static_cast<double>(report.routed) / submitted;
  report.rejection_rate =
      report.submitted == 0
          ? 0.0
          : static_cast<double>(report.rejected) / submitted;
  report.queue_depth_max = queue_depth_.max();
  report.loss_rate = report.submitted == 0
                         ? 0.0
                         : static_cast<double>(report.lost) / submitted;
  report.retry_pressure =
      report.routed == 0
          ? 0.0
          : retries_.sum() / static_cast<double>(report.routed);
  return report;
}

void Telemetry::snapshot_locked(double now_s) {
  obs::SloReport report = windowed_slo_locked();
  report.breaches = obs::slo_breaches(config_.slo, report);
  breaches_total_ += report.breaches.size();
  if (!report.breaches.empty())
    registry_.add("serve.slo_breach", report.breaches.size());
  registry_.set_gauge("serve.retry_pressure", report.retry_pressure);
  if (tracing()) {
    const obs::Micros ts = obs::to_micros(now_s);
    tracer_->counter(kPid, 0, ts, "serve.e2e_p99_s", report.e2e_p99_s);
    tracer_->counter(kPid, 0, ts, "serve.goodput", report.goodput);
    tracer_->counter(kPid, 0, ts, "serve.queue_depth_max",
                     report.queue_depth_max);
    tracer_->counter(kPid, 0, ts, "serve.retry_pressure",
                     report.retry_pressure);
  }
  if (recorder_) recorder_->write(now_s, registry_.snapshot(), report);
}

obs::MetricsRegistry Telemetry::metrics() const {
  return registry_.snapshot();
}

obs::SloReport Telemetry::slo_report() const {
  std::lock_guard<std::mutex> guard(telemetry_mutex_);
  const util::LockRankScope rank(util::lock_ranks::kTelemetry,
                                 "telemetry_mutex_");
  obs::SloReport report = windowed_slo_locked();
  report.breaches = obs::slo_breaches(config_.slo, report);
  return report;
}

std::uint64_t Telemetry::breach_count() const {
  std::lock_guard<std::mutex> guard(telemetry_mutex_);
  const util::LockRankScope rank(util::lock_ranks::kTelemetry,
                                 "telemetry_mutex_");
  return breaches_total_;
}

std::uint64_t Telemetry::snapshot_count() const {
  std::lock_guard<std::mutex> guard(telemetry_mutex_);
  const util::LockRankScope rank(util::lock_ranks::kTelemetry,
                                 "telemetry_mutex_");
  return recorder_ ? recorder_->snapshot_count() : 0;
}

}  // namespace mlcr::serve
