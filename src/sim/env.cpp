#include "sim/env.hpp"

#include <cmath>
#include <limits>
#include <set>

#include "containers/matching.hpp"
#include "faults/injector.hpp"
#include "obs/tracer.hpp"
#include "util/audit.hpp"
#include "util/check.hpp"

namespace mlcr::sim {

using containers::Container;
using containers::ContainerState;
using containers::MatchLevel;

ClusterEnv::ClusterEnv(const FunctionTable& functions,
                       const containers::PackageCatalog& catalog,
                       StartupCostModel cost_model, EnvConfig config,
                       EvictionPolicyFactory eviction_factory)
    : functions_(functions),
      catalog_(catalog),
      cost_model_(std::move(cost_model)),
      config_(config),
      eviction_factory_(std::move(eviction_factory)) {
  MLCR_CHECK(eviction_factory_ != nullptr);
  MLCR_CHECK(config_.pool_capacity_mb > 0.0);
}

void ClusterEnv::set_tracer(obs::Tracer* tracer, std::uint32_t track) noexcept {
  tracer_ = tracer;
  track_ = track;
  if (pool_ != nullptr) pool_->set_tracer(tracer, track);
}

void ClusterEnv::reset(const Trace& trace) {
  reset_streaming();
  trace_ = &trace;
  if (!trace.empty()) intake(trace.at(0));
}

void ClusterEnv::reset_streaming() {
  trace_ = nullptr;
  offered_ = 0;
  next_index_ = 0;
  now_ = 0.0;
  down_ = false;
  partial_down_ = false;
  crashes_ = 0;
  pool_ = std::make_unique<containers::WarmPool>(config_.pool_capacity_mb,
                                                 eviction_factory_());
  pool_->set_tracer(tracer_, track_);
  busy_ = {};
  next_container_id_ = 0;
  metrics_.clear();
}

void ClusterEnv::offer(Invocation inv) {
  MLCR_CHECK_MSG(pool_ != nullptr && trace_ == nullptr,
                 "offer() requires reset_streaming(): a reset(trace) "
                 "episode offers its own invocations");
  intake(inv);
  MLCR_AUDIT_POINT(audit());
}

void ClusterEnv::intake(const Invocation& inv) {
  MLCR_CHECK_MSG(!down_, "offer() to a crashed node (invocation "
                             << offered_ << ", seq " << inv.seq
                             << "): route around it or recover() first");
  MLCR_CHECK_MSG(done(), "previous invocation has not been stepped yet");
  MLCR_CHECK_MSG(inv.function < functions_.size(),
                 "invocation " << offered_ << " (seq " << inv.seq
                               << ") names unknown function id "
                               << inv.function << " (table has "
                               << functions_.size() << " types)");
  MLCR_CHECK_MSG(inv.arrival_s >= now_,
                 "invocation " << offered_ << " (seq " << inv.seq
                               << ") arrives at " << inv.arrival_s
                               << "s, before the node clock " << now_
                               << "s — traces must be in arrival order");
  pending_ = inv;
  ++offered_;
  drain_to(inv.arrival_s);
}

void ClusterEnv::advance_to(double time) {
  MLCR_CHECK_MSG(done(), "advance_to() with a pending invocation");
  if (time > now_) drain_to(time);
  MLCR_AUDIT_POINT(audit());
}

std::optional<double> ClusterEnv::next_event_time() const {
  if (down_ || pool_ == nullptr) return std::nullopt;
  std::optional<double> next;
  if (!busy_.empty()) next = busy_.top().time;
  if (config_.keep_alive_ttl_s) {
    if (const auto oldest = pool_->oldest_idle_at()) {
      // Smallest double t with t - oldest > ttl under floating-point
      // rounding: expire_older_than compares strictly, so a deadline of
      // exactly oldest + ttl would wake the fleet without expiring anything
      // (and a deadline one ulp short would skip the expiry entirely). The
      // nextafter loop terminates in a handful of steps.
      const double ttl = *config_.keep_alive_ttl_s;
      double deadline = *oldest + ttl;
      while (deadline - *oldest <= ttl)
        deadline =
            std::nextafter(deadline, std::numeric_limits<double>::infinity());
      if (!next || deadline < *next) next = deadline;
    }
  }
  return next;
}

void ClusterEnv::finish_streaming() {
  MLCR_CHECK_MSG(pool_ != nullptr && trace_ == nullptr,
                 "finish_streaming() requires reset_streaming()");
  MLCR_CHECK_MSG(done(), "finish_streaming() with a pending invocation");
  finish_episode();
  // Concurrent ingestion handed this node invocations in dispatch order;
  // restore canonical seq order so cumulative series and the fleet-level
  // audit see the strict sequential contract. The drain above left no
  // completion holding a record index the sort would move.
  metrics_.sort_records_by_seq();
  MLCR_AUDIT_POINT(audit());
}

void ClusterEnv::crash(double time, bool partial) {
  MLCR_CHECK_MSG(pool_ != nullptr, "crash() before the first reset");
  MLCR_CHECK_MSG(!down_, "crash() on an already-crashed node");
  MLCR_CHECK_MSG(done(), "crash() with a pending invocation");
  MLCR_CHECK_MSG(time >= now_, "crash() in the simulated past");
  drain_to(time);
  // In-flight executions die with the node: their containers are gone and
  // their invocations retroactively fail (the time spent stays in the
  // latency totals — it was spent).
  std::size_t killed = 0;
  while (!busy_.empty()) {
    metrics_.mark_failed(busy_.top().record);
    busy_.pop();
    ++killed;
  }
  // A partial crash loses only compute: the warm pool rides out the window
  // (TTL expiry still applies at the next drain, as always).
  const std::size_t dropped = partial ? 0 : pool_->invalidate_all(time);
  down_ = true;
  partial_down_ = partial;
  ++crashes_;
  if (tracer_ != nullptr && tracer_->enabled()) {
    std::vector<obs::TraceArg> args = {
        obs::narg("killed_executions", static_cast<std::int64_t>(killed)),
        obs::narg("lost_warm_containers", static_cast<std::int64_t>(dropped))};
    // Full-crash traces keep their exact pre-§14 bytes; only partial
    // windows carry the extra flag.
    if (partial) args.push_back(obs::narg("partial", std::int64_t{1}));
    tracer_->instant(obs::Tracer::kSimPid, track_, obs::to_micros(time),
                     "node_crash", "fault", std::move(args));
    tracer_->counter(obs::Tracer::kSimPid, track_, obs::to_micros(time),
                     "failed_invocations",
                     static_cast<double>(metrics_.failed_count()));
  }
  MLCR_AUDIT_POINT(audit());
}

void ClusterEnv::recover(double time) {
  MLCR_CHECK_MSG(down_, "recover() on a healthy node");
  MLCR_CHECK_MSG(time >= now_, "recover() in the simulated past");
  drain_to(time);
  down_ = false;
  partial_down_ = false;
  if (tracer_ != nullptr && tracer_->enabled())
    tracer_->instant(obs::Tracer::kSimPid, track_, obs::to_micros(time),
                     "node_recover", "fault", {});
  MLCR_AUDIT_POINT(audit());
}

bool ClusterEnv::done() const noexcept { return next_index_ >= offered_; }

const Invocation& ClusterEnv::current() const {
  MLCR_CHECK_MSG(!done(), "no current invocation: episode is done");
  return pending_;
}

const containers::WarmPool& ClusterEnv::pool() const {
  MLCR_CHECK_MSG(pool_ != nullptr, "call reset() first");
  return *pool_;
}

MatchLevel ClusterEnv::match_for(containers::ContainerId id,
                                 FunctionTypeId function) const {
  const Container* c = pool().find(id);
  if (c == nullptr) return MatchLevel::kNoMatch;
  return containers::match(functions_.get(function).image, c->image);
}

void ClusterEnv::drain_to(double time) {
  while (!busy_.empty() && busy_.top().time <= time) {
    Completion done_c = busy_.top();
    busy_.pop();
    if (config_.keep_alive_ttl_s)
      pool_->expire_older_than(done_c.time, *config_.keep_alive_ttl_s);
    Container& c = done_c.container;
    c.state = ContainerState::kIdle;
    c.last_idle_at = done_c.time;
    // Rejected containers are destroyed (their worker memory is released).
    (void)pool_->admit(std::move(c), done_c.time);
  }
  if (config_.keep_alive_ttl_s)
    pool_->expire_older_than(time, *config_.keep_alive_ttl_s);
  now_ = time;
}

void ClusterEnv::finish_episode() {
  // Drain outstanding executions so pool peak/eviction stats are complete.
  while (!busy_.empty()) drain_to(busy_.top().time);
}

Container ClusterEnv::start_cold(const FunctionType& fn,
                                 StepResult& result) {
  Container c;
  c.id = next_container_id_++;
  c.image = fn.image;
  c.level_keys = fn.level_keys;
  c.created_at = now_;
  c.refresh_memory(catalog_);
  result.breakdown = cost_model_.cold_start(fn);
  result.cold = true;
  return c;
}

StepResult ClusterEnv::step(const Action& action) {
  MLCR_CHECK_MSG(!down_, "step() on a crashed node");
  const Invocation inv = current();
  drain_to(inv.arrival_s);
  const FunctionType& fn = functions_.get(inv.function);
  const bool traced = tracer_ != nullptr && tracer_->enabled();

  StepResult result;
  Container container;

  MatchLevel level = MatchLevel::kNoMatch;
  if (action.kind == Action::Kind::kReuse) {
    if (config_.reuse_semantics == ReuseSemantics::kUnion) {
      // Union reuse only needs a matching OS; report the Table-I-style
      // level implied by what is (not) missing.
      const Container* c = pool().find(action.container);
      if (c != nullptr && c->image.level_equals(fn.image,
                                                containers::Level::kOs)) {
        if (!c->image.level_contains(fn.image, containers::Level::kLanguage))
          level = MatchLevel::kL1;
        else if (!c->image.level_contains(fn.image,
                                          containers::Level::kRuntime))
          level = MatchLevel::kL2;
        else
          level = MatchLevel::kL3;
      }
    } else {
      level = match_for(action.container, inv.function);
    }
  }

  // Fault: the volume swap of an L1/L2 repack reuse can fail, destroying
  // the candidate container; the start degrades to cold, still paying the
  // attempted swap's cleaner time (DESIGN.md §9). L3 reuse swaps nothing
  // and union reuse removes nothing, so neither can repack-fail.
  double fault_overhead_s = 0.0;
  if (injector_ != nullptr && containers::reusable(level) &&
      level != MatchLevel::kL3 &&
      config_.reuse_semantics == ReuseSemantics::kRepack &&
      injector_->draw_repack_failure()) {
    auto broken = pool_->take(action.container, now_);
    MLCR_CHECK(broken.has_value());
    fault_overhead_s += cost_model_.warm_start(fn, level).cleaner_s;
    if (traced)
      tracer_->instant(
          obs::Tracer::kSimPid, track_, obs::to_micros(now_), "fault_injected",
          "fault",
          {obs::sarg("kind", "repack_failure"), obs::sarg("function", fn.name),
           obs::narg("container",
                     static_cast<std::int64_t>(action.container))});
    level = MatchLevel::kNoMatch;
  }

  if (containers::reusable(level)) {
    auto taken = pool_->take(action.container, now_);
    MLCR_CHECK(taken.has_value());
    container = std::move(*taken);
    if (config_.reuse_semantics == ReuseSemantics::kUnion) {
      result.breakdown = cost_model_.union_warm_start(fn, container.image);
      const bool grew =
          !container.image.level_contains(fn.image,
                                          containers::Level::kLanguage) ||
          !container.image.level_contains(fn.image,
                                          containers::Level::kRuntime);
      container.image.merge_level(containers::Level::kLanguage, fn.image);
      container.image.merge_level(containers::Level::kRuntime, fn.image);
      container.level_keys = functions_.level_keys(container.image);
      container.refresh_memory(catalog_);
      if (grew) ++container.repack_count;
    } else {
      result.breakdown = cost_model_.warm_start(fn, level);
      cost_model_.cleaner().repack(container, fn.image, catalog_, level);
      // The repacked image is the function's own image.
      container.level_keys = fn.level_keys;
    }
    result.cold = false;
  } else {
    container = start_cold(fn, result);
    level = MatchLevel::kNoMatch;
  }

  // Fault machinery: startup failures and timeouts, retried under the
  // plan's RetryPolicy. Draw order is fixed (DESIGN.md §9): one Bernoulli
  // per risky (cold or repack) start, the deadline comparison (no draw),
  // then one jitter draw per backoff — so the stream position is a pure
  // function of the episode. Without an injector this block is skipped and
  // the result is bit-identical to the pre-fault simulator.
  bool is_repack_start = !result.cold &&
                         config_.reuse_semantics == ReuseSemantics::kRepack &&
                         level != MatchLevel::kL3;
  bool failed_invocation = false;
  std::size_t attempts = 1;
  if (injector_ != nullptr) {
    const faults::FaultPlan& plan = injector_->plan();
    // SLO-based timeout tuning (DESIGN.md §14): the deadline is the
    // function's own override when present, else the global timeout_s.
    const std::optional<double> deadline_s =
        plan.timeout_for(static_cast<std::size_t>(inv.function));
    for (;;) {
      double attempt_cost_s = -1.0;  // < 0: the attempt succeeds
      const char* kind = nullptr;
      if ((result.cold || is_repack_start) &&
          injector_->draw_startup_failure()) {
        // The failure surfaces at the end of the startup sequence.
        attempt_cost_s = result.breakdown.total();
        kind = "startup_failure";
      } else if (deadline_s.has_value() &&
                 result.breakdown.total() + inv.exec_s > *deadline_s) {
        // Startup plus execution would blow the deadline: the container is
        // killed at the deadline and the attempt costs the full timeout.
        attempt_cost_s = *deadline_s;
        kind = "timeout";
      }
      if (attempt_cost_s < 0.0) break;
      fault_overhead_s += attempt_cost_s;
      if (traced)
        tracer_->instant(
            obs::Tracer::kSimPid, track_,
            obs::to_micros(inv.arrival_s + fault_overhead_s), "fault_injected",
            "fault",
            {obs::sarg("kind", kind), obs::sarg("function", fn.name),
             obs::narg("attempt", static_cast<std::int64_t>(attempts))});
      if (attempts >= plan.retry.max_attempts) {
        failed_invocation = true;
        break;
      }
      const double backoff_s = injector_->draw_backoff(attempts);
      fault_overhead_s += backoff_s;
      ++attempts;
      if (traced)
        tracer_->instant(
            obs::Tracer::kSimPid, track_,
            obs::to_micros(inv.arrival_s + fault_overhead_s), "retry_attempt",
            "fault",
            {obs::narg("attempt", static_cast<std::int64_t>(attempts)),
             obs::narg("backoff_s", backoff_s)});
      // The failed attempt's container is destroyed; any warm candidate was
      // consumed by the first attempt, so every retry is a fresh cold start.
      container = start_cold(fn, result);
      level = MatchLevel::kNoMatch;
      is_repack_start = false;
    }
  }

  result.match = failed_invocation ? MatchLevel::kNoMatch : level;
  result.failed = failed_invocation;
  result.attempts = attempts;
  if (failed_invocation) {
    result.cold = true;
    result.container = containers::kInvalidContainer;
    result.latency_s = fault_overhead_s;
  } else {
    result.latency_s = fault_overhead_s + result.breakdown.total();
    result.container = container.id;

    container.state = ContainerState::kBusy;
    container.last_used_at = now_;
    ++container.use_count;
    container.last_function = inv.function;
    container.last_startup_cost_s = result.latency_s;

    busy_.push(Completion{now_ + result.latency_s + inv.exec_s,
                          std::move(container), metrics_.invocation_count()});
  }

  InvocationRecord rec;
  rec.seq = inv.seq;
  rec.function = inv.function;
  rec.container = result.container;
  rec.match = result.match;
  rec.cold = result.cold;
  rec.latency_s = result.latency_s;
  rec.failed = result.failed;
  rec.attempts = attempts;
  metrics_.record(std::move(rec));

  if (traced) trace_step(inv, fn, result);

  ++next_index_;
  // A trace-fed episode offers its own next invocation or, after the last,
  // finishes; a streaming one never knows whether more will arrive, so
  // finish_streaming() drains it explicitly.
  if (trace_ != nullptr) {
    if (next_index_ < trace_->size())
      intake(trace_->at(next_index_));
    else
      finish_episode();
  }

  MLCR_AUDIT_POINT(audit());
  return result;
}

void ClusterEnv::trace_step(const Invocation& inv, const FunctionType& fn,
                            const StepResult& result) const {
  namespace o = mlcr::obs;
  o::Tracer& t = *tracer_;
  const std::uint32_t pid = o::Tracer::kSimPid;
  const o::Micros arrival = o::to_micros(inv.arrival_s);
  const auto cid = static_cast<std::int64_t>(result.container);

  if (result.failed) {
    // No container ran: the fault loop already emitted one fault_injected
    // instant per attempt; close with the failure and the running count.
    t.instant(pid, track_, arrival, "invocation_failed", "fault",
              {o::sarg("function", fn.name),
               o::narg("attempts", static_cast<std::int64_t>(result.attempts)),
               o::narg("spent_s", result.latency_s)});
    t.counter(pid, track_, arrival, "failed_invocations",
              static_cast<double>(metrics_.failed_count()));
    return;
  }

  t.instant(pid, track_, arrival, "match", "sim",
            {o::sarg("function", fn.name),
             o::sarg("level", std::string(containers::to_string(result.match))),
             o::narg("cold", static_cast<std::int64_t>(result.cold ? 1 : 0)),
             o::narg("container", cid)});

  const StartupBreakdown& b = result.breakdown;
  t.span(pid, track_, arrival, o::to_micros(result.latency_s), "startup",
         "sim",
         {o::sarg("function", fn.name),
          o::sarg("level", std::string(containers::to_string(result.match))),
          o::narg("cold", static_cast<std::int64_t>(result.cold ? 1 : 0)),
          o::narg("container", cid)});

  // Child segments, laid out sequentially in the order the platform performs
  // them; zero-cost components are omitted except the repack, which carries
  // the cleaner's volume plan whenever a repack actually happened. When
  // faults added retries, the children describe the final (successful)
  // attempt and are right-aligned inside the startup span.
  double cursor_s =
      inv.arrival_s + (result.latency_s - result.breakdown.total());
  auto child = [&](const char* name, double dur_s,
                   std::vector<o::TraceArg> args = {}) {
    t.span(pid, track_, o::to_micros(cursor_s), o::to_micros(dur_s), name,
           "sim", std::move(args));
    cursor_s += dur_s;
  };
  if (b.sandbox_s > 0.0) child("sandbox", b.sandbox_s);
  if (!result.cold && config_.reuse_semantics == ReuseSemantics::kRepack) {
    const containers::RepackPlan plan =
        cost_model_.cleaner().plan(fn.image, result.match);
    child("repack", b.cleaner_s,
          {o::narg("unmounted_volumes",
                   static_cast<std::int64_t>(plan.unmounted_volumes)),
           o::narg("mounted_volumes",
                   static_cast<std::int64_t>(plan.mounted_volumes)),
           o::narg("volume_ops_s", plan.volume_ops_s)});
  } else if (b.cleaner_s > 0.0) {
    child("repack", b.cleaner_s);
  }
  if (b.pull_s > 0.0) child("pull", b.pull_s);
  if (b.install_s > 0.0) child("install", b.install_s);
  if (b.runtime_init_s > 0.0) child("runtime_init", b.runtime_init_s);
  if (b.function_init_s > 0.0) child("function_init", b.function_init_s);

  t.span(pid, track_, o::to_micros(inv.arrival_s + result.latency_s),
         o::to_micros(inv.exec_s), "exec", "sim",
         {o::sarg("function", fn.name), o::narg("container", cid)});
}

void ClusterEnv::audit() const {
  if (pool_ == nullptr) return;  // before the first reset there is no state
  pool_->audit();

  // Busy containers: unique ids, disjoint from the pool ("no container
  // simultaneously busy and reusable"), kBusy state, completion not in the
  // simulated past, ids actually issued.
  auto heap = busy_;
  std::set<containers::ContainerId> seen;
  while (!heap.empty()) {
    const Completion& c = heap.top();
    MLCR_CHECK_MSG(c.container.state == ContainerState::kBusy,
                   "container " << c.container.id << " idle while executing");
    MLCR_CHECK_MSG(seen.insert(c.container.id).second,
                   "container " << c.container.id << " busy twice");
    MLCR_CHECK_MSG(pool_->find(c.container.id) == nullptr,
                   "container " << c.container.id
                                << " simultaneously busy and pooled");
    MLCR_CHECK_MSG(c.container.id < next_container_id_,
                   "busy container id " << c.container.id << " never issued");
    MLCR_CHECK_MSG(c.time >= now_, "completion scheduled in the past");
    heap.pop();
  }
  for (const containers::Container* c : pool_->idle_containers()) {
    MLCR_CHECK_MSG(c->id < next_container_id_,
                   "pooled container id " << c->id << " never issued");
    MLCR_CHECK_MSG(c->level_keys == functions_.level_keys(c->image),
                   "pooled container " << c->id
                                       << " carries stale level keys");
  }

  // Mid-flight streaming records arrive in dispatch order, not seq order;
  // finish_streaming() sorts before the final audit re-imposes the strict
  // ordering contract.
  metrics_.audit(/*require_seq_order=*/trace_ != nullptr);
  MLCR_CHECK_MSG(next_index_ <= offered_, "episode index out of range");
  MLCR_CHECK_MSG(metrics_.invocation_count() == next_index_,
                 "metrics record count diverged from scheduled invocations");

  // Fault invariants (DESIGN.md §9, §14): a crashed node holds no busy
  // container; only a *full* crash also empties the warm pool (a partial
  // crash keeps it alive through the window).
  if (down_) {
    MLCR_CHECK_MSG(busy_.empty(), "busy container on a crashed node");
    if (!partial_down_)
      MLCR_CHECK_MSG(pool_->empty(), "warm container on a fully-crashed node");
  }
  if (injector_ != nullptr) {
    const std::size_t max_attempts = injector_->plan().retry.max_attempts;
    for (const InvocationRecord& r : metrics_.records())
      MLCR_CHECK_MSG(r.attempts <= max_attempts,
                     "record seq " << r.seq << " made " << r.attempts
                                   << " attempts, over the retry budget of "
                                   << max_attempts);
  }
}

}  // namespace mlcr::sim
