// Corruption tests for the debug invariant auditors (util/audit.hpp): each
// test breaks one private invariant through a test-only friend peer and
// expects the matching audit() to throw util::CheckError. Healthy-state
// tests pin that the auditors are quiet on real episodes — the same calls
// that run after every event in audit-enabled builds.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "containers/pool.hpp"
#include "core/state_encoder.hpp"
#include "fstartbench/workloads.hpp"
#include "sim/env.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace mlcr::containers {

/// Test-only corruption hook: pokes WarmPool private state so the audit's
/// cross-checks can be violated one at a time.
struct PoolTestPeer {
  static double& used_mb(WarmPool& p) { return p.used_mb_; }
  static double& peak_used_mb(WarmPool& p) { return p.peak_used_mb_; }
  static std::map<ContainerId, Container>& by_id(WarmPool& p) {
    return p.by_id_;
  }
};

}  // namespace mlcr::containers

namespace mlcr::sim {

/// Test-only corruption hook for MetricsCollector aggregates.
struct MetricsTestPeer {
  static double& total_latency_s(MetricsCollector& m) {
    return m.total_latency_s_;
  }
  static std::size_t& cold_starts(MetricsCollector& m) {
    return m.cold_starts_;
  }
  static std::vector<InvocationRecord>& records(MetricsCollector& m) {
    return m.records_;
  }
};

/// Test-only corruption hook for ClusterEnv cross-structure state.
struct EnvTestPeer {
  static containers::WarmPool& pool(ClusterEnv& e) { return *e.pool_; }
  static MetricsCollector& metrics(ClusterEnv& e) { return e.metrics_; }
  static containers::ContainerId& next_container_id(ClusterEnv& e) {
    return e.next_container_id_;
  }
  /// Push `c` onto the busy heap, as if it were executing on a worker.
  static void push_busy(ClusterEnv& e, containers::Container c, double time) {
    ClusterEnv::Completion comp;
    comp.time = time;
    comp.container = std::move(c);
    e.busy_.push(std::move(comp));
  }
};

}  // namespace mlcr::sim

namespace mlcr {
namespace {

containers::Container idle_container(containers::ContainerId id,
                                     double memory_mb, double idle_at) {
  containers::Container c;
  c.id = id;
  c.state = containers::ContainerState::kIdle;
  c.last_idle_at = idle_at;
  c.memory_mb = memory_mb;
  return c;
}

containers::WarmPool small_pool() {
  containers::WarmPool pool(1000.0,
                            std::make_unique<containers::LruEviction>());
  (void)pool.admit(idle_container(1, 100.0, 0.0), 0.0);
  (void)pool.admit(idle_container(2, 250.0, 1.0), 1.0);
  (void)pool.admit(idle_container(3, 50.0, 2.0), 2.0);
  return pool;
}

TEST(PoolAudit, QuietOnHealthyPool) {
  const containers::WarmPool pool = small_pool();
  EXPECT_NO_THROW(pool.audit());
}

TEST(PoolAudit, CatchesByteAccountingDrift) {
  containers::WarmPool pool = small_pool();
  containers::PoolTestPeer::used_mb(pool) += 64.0;
  EXPECT_THROW(pool.audit(), util::CheckError);
}

TEST(PoolAudit, CatchesBusyContainerInPool) {
  containers::WarmPool pool = small_pool();
  containers::PoolTestPeer::by_id(pool).at(2).state =
      containers::ContainerState::kBusy;
  EXPECT_THROW(pool.audit(), util::CheckError);
}

TEST(PoolAudit, CatchesKeyIdMismatch) {
  containers::WarmPool pool = small_pool();
  auto& by_id = containers::PoolTestPeer::by_id(pool);
  // Re-file container 3 under the wrong key; sizes still sum correctly, so
  // only the key==id invariant is violated.
  containers::Container c = by_id.at(3);
  by_id.erase(3);
  by_id.emplace(99, std::move(c));
  EXPECT_THROW(pool.audit(), util::CheckError);
}

TEST(PoolAudit, CatchesPeakBelowCurrentUse) {
  containers::WarmPool pool = small_pool();
  containers::PoolTestPeer::peak_used_mb(pool) = 1.0;
  EXPECT_THROW(pool.audit(), util::CheckError);
}

/// Runs a short all-cold episode so the env ends with a populated pool and
/// non-trivial metrics.
struct EpisodeFixture {
  fstartbench::Benchmark bench = fstartbench::make_benchmark();
  sim::StartupCostModel cost{bench.catalog,
                             fstartbench::default_cost_config()};
  sim::Trace trace;
  sim::ClusterEnv env;

  EpisodeFixture()
      : env(bench.functions, bench.catalog, cost, sim::EnvConfig{},
            [] { return std::make_unique<containers::LruEviction>(); }) {
    util::Rng rng(17);
    trace = fstartbench::make_overall_workload(bench, 40, rng);
  }

  void run_episode() {
    env.reset(trace);
    while (!env.done()) (void)env.step(sim::Action::cold());
  }
};

TEST(EnvAudit, QuietAfterFullEpisode) {
  EpisodeFixture f;
  f.run_episode();
  ASSERT_GT(f.env.pool().size(), 0U);
  EXPECT_NO_THROW(f.env.audit());
}

TEST(EnvAudit, CatchesCorruptedPoolAccounting) {
  EpisodeFixture f;
  f.run_episode();
  containers::PoolTestPeer::used_mb(sim::EnvTestPeer::pool(f.env)) += 32.0;
  EXPECT_THROW(f.env.audit(), util::CheckError);
}

TEST(EnvAudit, CatchesContainerBothBusyAndPooled) {
  EpisodeFixture f;
  f.run_episode();
  const containers::WarmPool& pool = f.env.pool();
  ASSERT_GT(pool.size(), 0U);
  const containers::ContainerId pooled_id = pool.idle_containers().front()->id;
  containers::Container twin = *pool.find(pooled_id);
  twin.state = containers::ContainerState::kBusy;
  sim::EnvTestPeer::push_busy(f.env, std::move(twin), f.env.now() + 1.0);
  EXPECT_THROW(f.env.audit(), util::CheckError);
}

TEST(EnvAudit, CatchesStaleIdCounter) {
  EpisodeFixture f;
  f.run_episode();
  ASSERT_GT(f.env.pool().size(), 0U);
  // Every pooled id must be below the allocator's next id; rewinding the
  // counter makes ids look like they came from the future.
  sim::EnvTestPeer::next_container_id(f.env) = 0;
  EXPECT_THROW(f.env.audit(), util::CheckError);
}

TEST(EnvAudit, CatchesMetricsDesync) {
  EpisodeFixture f;
  f.run_episode();
  sim::MetricsTestPeer::records(sim::EnvTestPeer::metrics(f.env)).pop_back();
  EXPECT_THROW(f.env.audit(), util::CheckError);
}

TEST(MetricsAudit, QuietAfterEpisode) {
  EpisodeFixture f;
  f.run_episode();
  EXPECT_NO_THROW(f.env.metrics().audit());
}

TEST(MetricsAudit, CatchesLatencyDrift) {
  EpisodeFixture f;
  f.run_episode();
  sim::MetricsCollector& m = sim::EnvTestPeer::metrics(f.env);
  sim::MetricsTestPeer::total_latency_s(m) += 0.5;
  EXPECT_THROW(m.audit(), util::CheckError);
}

TEST(MetricsAudit, CatchesColdCountDrift) {
  EpisodeFixture f;
  f.run_episode();
  sim::MetricsCollector& m = sim::EnvTestPeer::metrics(f.env);
  sim::MetricsTestPeer::cold_starts(m) += 1;
  EXPECT_THROW(m.audit(), util::CheckError);
}

TEST(MetricsAudit, CatchesOutOfOrderRecords) {
  EpisodeFixture f;
  f.run_episode();
  sim::MetricsCollector& m = sim::EnvTestPeer::metrics(f.env);
  auto& records = sim::MetricsTestPeer::records(m);
  ASSERT_GE(records.size(), 2U);
  std::swap(records.front(), records.back());
  EXPECT_THROW(m.audit(), util::CheckError);
  // Streaming episodes audit without the ordering contract mid-flight
  // (concurrent producers dispatch out of arrival order)...
  EXPECT_NO_THROW(m.audit(/*require_seq_order=*/false));
  // ...and sorting restores the strict contract at episode end.
  m.sort_records_by_seq();
  EXPECT_NO_THROW(m.audit());
}

TEST(EncoderAudit, QuietOnRealEncodings) {
  EpisodeFixture f;
  core::StateEncoderConfig cfg;
  cfg.num_slots = 8;
  const core::StateEncoder encoder(cfg);
  f.env.reset(f.trace);
  double prev = f.env.current().arrival_s;
  while (!f.env.done()) {
    const sim::Invocation& inv = f.env.current();
    const core::EncodedState state = encoder.encode(f.env, inv, prev);
    EXPECT_NO_THROW(encoder.audit(f.env, inv, state));
    prev = inv.arrival_s;
    (void)f.env.step(sim::Action::cold());
  }
}

TEST(EncoderAudit, CatchesMaskedColdStart) {
  EpisodeFixture f;
  const core::StateEncoder encoder{core::StateEncoderConfig{}};
  f.env.reset(f.trace);
  const sim::Invocation& inv = f.env.current();
  core::EncodedState state = encoder.encode(f.env, inv, inv.arrival_s);
  state.mask.back() = 0;  // cold start must always be allowed (Sec. IV-C)
  EXPECT_THROW(encoder.audit(f.env, inv, state), util::CheckError);
}

TEST(EncoderAudit, CatchesEnabledActionForAbsentContainer) {
  EpisodeFixture f;
  core::StateEncoderConfig cfg;
  cfg.num_slots = 8;
  const core::StateEncoder encoder(cfg);
  f.env.reset(f.trace);
  // First invocation of an episode: the pool is empty, so every slot action
  // must be masked off. Enabling one exposes an unexecutable action.
  const sim::Invocation& inv = f.env.current();
  core::EncodedState state = encoder.encode(f.env, inv, inv.arrival_s);
  ASSERT_EQ(state.slot_ids[0], containers::kInvalidContainer);
  state.mask[0] = 1;
  EXPECT_THROW(encoder.audit(f.env, inv, state), util::CheckError);
}

}  // namespace
}  // namespace mlcr
