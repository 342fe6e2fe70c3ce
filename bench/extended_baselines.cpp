// Extension bench (beyond the paper's comparison set): adds the
// prediction-driven keep-alive baseline (policies::make_prewarm_system, in
// the spirit of Shahrad et al.'s pre-warming) and online-fine-tuned MLCR to
// the Fig. 8 protocol at the Moderate pool size. The paper argues that
// prediction-based schemes are brittle under hard-to-predict arrivals and
// that MLCR "does not rely on workload prediction"; this bench puts a
// concrete predictive baseline next to it, on both the smooth overall
// workload and the bursty Peak workload.
#include <iostream>

#include "common.hpp"
#include "core/online.hpp"
#include "policies/prewarm.hpp"
#include "policies/zygote.hpp"

int main(int argc, char** argv) {
  using namespace mlcr;
  const auto options = benchtools::BenchOptions::parse_or_exit(argc, argv);
  const benchtools::Suite suite;

  struct Family {
    std::string name;
    std::string tag;
    benchtools::TraceFactory factory;
  };
  const std::vector<Family> families = {
      {"overall (Poisson mix)", "bench_overall",
       [&](util::Rng& rng) {
         return fstartbench::make_overall_workload(suite.bench, 400, rng);
       }},
      {"Peak arrivals", "bench_arrival_Peak",
       [&](util::Rng& rng) {
         return fstartbench::make_arrival_workload(
             suite.bench, fstartbench::ArrivalPattern::kPeak, 300, rng);
       }},
  };

  const core::MlcrConfig cfg = core::make_default_mlcr_config();
  for (const auto& family : families) {
    util::Rng ref_rng(1000);
    const sim::Trace reference = family.factory(ref_rng);
    const double loose =
        fstartbench::estimate_loose_capacity_mb(suite.bench, reference);
    const auto pools = fstartbench::paper_pool_sizes(loose);
    const auto agent = benchtools::trained_agent(
        suite, family.tag, family.factory,
        {pools.tight_mb, pools.moderate_mb, pools.loose_mb}, cfg, options);

    // The online arm trains its agent, so each rep fine-tunes its own copy
    // of the trained weights.
    const auto weights = agent->snapshot_weights();
    const rl::DqnConfig dqn = agent->config();
    std::vector<benchtools::NamedSystem> systems;
    systems.push_back({"LRU", [] { return policies::make_lru_system(); }});
    systems.push_back(
        {"Prewarm", [] { return policies::make_prewarm_system(); }});
    systems.push_back(
        {"Zygote", [] { return policies::make_zygote_system(); }});
    systems.push_back(
        {"Greedy-Match", [] { return policies::make_greedy_match_system(); }});
    systems.push_back({"MLCR", benchtools::mlcr_system_factory(agent,
                                                               cfg.encoder)});
    systems.push_back({"MLCR-online", [weights, dqn, &cfg] {
                         auto online =
                             std::make_shared<rl::DqnAgent>(dqn, util::Rng(0));
                         online->restore_weights(weights);
                         return core::make_online_mlcr_system(
                             online, cfg.encoder, cfg.reward_scale_s);
                       }});

    util::Table table({"system", "Tight total (s)", "Tight cold",
                       "Moderate total (s)", "Moderate cold",
                       "Moderate peak pool (MB)"});
    for (const auto& system : systems) {
      const auto tight = benchtools::run_replications(
          suite, system.make, family.factory, pools.tight_mb, options.reps,
          options.threads);
      const auto moderate = benchtools::run_replications(
          suite, system.make, family.factory, pools.moderate_mb, options.reps,
          options.threads);
      table.add_row({system.name,
                     util::Table::num(tight.total_latency_s.mean(), 1),
                     util::Table::num(tight.cold_starts.mean(), 1),
                     util::Table::num(moderate.total_latency_s.mean(), 1),
                     util::Table::num(moderate.cold_starts.mean(), 1),
                     util::Table::num(moderate.peak_pool_mb.mean(), 0)});
    }
    std::cout << "\n=== extended baselines on " << family.name << " ("
              << options.reps << " reps) ===\n";
    table.print(std::cout);
  }
  std::cout
      << "(shapes to expect: zygotes shine when memory is plentiful but "
         "their union containers bloat the pool as it tightens; inter-"
         "arrival prediction only pays off for near-periodic per-function "
         "arrivals — superposed Poisson mixes and Peak bursts defeat it; "
         "MLCR-online tracks offline MLCR within exploration noise)\n";
  return 0;
}
