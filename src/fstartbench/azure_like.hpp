// Azure-like synthetic workload (substitution for the proprietary Azure
// Functions trace the paper cites). The paper's motivation rests on three
// production statistics (Shahrad et al., ATC'20):
//   * ~19% of functions are invoked exactly once (keep-alive never helps),
//   * >40% of functions are invoked no more than twice per day,
//   * per-function memory/footprint varies by ~4x and half the functions
//     run for under a second.
// This generator emits a function *population* (with three-level images
// sampled from Zipf-popular packages, mirroring the Fig. 3 registry) plus an
// invocation trace whose per-function counts follow a calibrated heavy-tail
// so those statistics hold by construction.
#pragma once

#include "containers/package.hpp"
#include "sim/invocation.hpp"
#include "util/rng.hpp"

namespace mlcr::fstartbench {

struct AzureLikeConfig {
  std::size_t num_functions = 200;  ///< distinct function types
  double window_s = 7200.0;         ///< trace window (scaled-down "day")
};

/// The generated world: catalog + function population + one trace.
struct AzureLikeWorkload {
  containers::PackageCatalog catalog;
  sim::FunctionTable functions;
  sim::Trace trace;
  std::vector<std::size_t> invocations_per_function;

  /// Fraction of function types invoked exactly once.
  [[nodiscard]] double fraction_invoked_once() const;
  /// Fraction of function types invoked at most `k` times.
  [[nodiscard]] double fraction_invoked_at_most(std::size_t k) const;
  /// Ratio of the 95th to 5th percentile of function image sizes
  /// (the paper cites a ~4x spread of memory usage).
  [[nodiscard]] double image_size_spread(
      double lo_percentile = 5.0, double hi_percentile = 95.0) const;
  /// Fraction of function types with mean execution below `threshold_s`.
  [[nodiscard]] double fraction_short_running(double threshold_s = 1.0) const;
};

[[nodiscard]] AzureLikeWorkload make_azure_like_workload(
    const AzureLikeConfig& config, util::Rng rng);

}  // namespace mlcr::fstartbench
