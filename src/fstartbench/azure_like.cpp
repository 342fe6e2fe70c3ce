#include "fstartbench/azure_like.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"
#include "util/stats.hpp"

namespace mlcr::fstartbench {

using containers::Level;
using containers::PackageId;

namespace {

/// Invocation-count distribution (reproduces the cited statistics):
/// P(count = 1), P(count = 2), and the Pareto tail exponent for counts > 2.
constexpr double kPSingle = 0.19;
constexpr double kPDouble = 0.21;
constexpr double kTailAlpha = 0.7;
constexpr std::size_t kMaxInvocationsPerFunction = 500;
/// Package universe (Zipf-popular, like the Fig. 3 registry).
constexpr std::size_t kNumOs = 6;
constexpr std::size_t kNumLanguages = 8;
constexpr std::size_t kNumRuntimePackages = 60;
constexpr std::int64_t kMaxRuntimePerFunction = 4;

static_assert(kPSingle >= 0.0 && kPDouble >= 0.0 && kPSingle + kPDouble <= 1.0);
static_assert(kNumOs > 0 && kNumLanguages > 0);

/// Per-function invocation count: a calibrated mixture — point masses at 1
/// and 2 plus a discrete Pareto tail for the hot functions.
[[nodiscard]] std::size_t sample_invocation_count(util::Rng& rng) {
  const double u = rng.uniform();
  if (u < kPSingle) return 1;
  if (u < kPSingle + kPDouble) return 2;
  // Pareto tail starting at 3: count = floor(3 * v^(-1/alpha)).
  const double v = 1.0 - rng.uniform();  // (0, 1]
  const double raw = 3.0 * std::pow(v, -1.0 / kTailAlpha);
  return std::min<std::size_t>(kMaxInvocationsPerFunction,
                               static_cast<std::size_t>(raw));
}

/// Heavy-tailed mean execution time: lognormal with a 1 s median, so about
/// half the functions are sub-second (Sec. II-C citation).
[[nodiscard]] double sample_mean_exec(util::Rng& rng) {
  const double log_mean = rng.normal(0.0, 1.1);
  return std::clamp(std::exp(log_mean), 0.02, 60.0);
}

}  // namespace

AzureLikeWorkload make_azure_like_workload(const AzureLikeConfig& config,
                                           util::Rng rng) {
  MLCR_CHECK(config.num_functions > 0);
  MLCR_CHECK(config.window_s > 0.0);

  AzureLikeWorkload out;

  // --- Package universe: sizes follow the FStartBench calibration ranges.
  std::vector<PackageId> oses, langs, runtimes;
  for (std::size_t i = 0; i < kNumOs; ++i)
    oses.push_back(out.catalog.add("os-" + std::to_string(i), Level::kOs,
                                   rng.uniform(8.0, 220.0),
                                   rng.uniform(0.3, 1.0)));
  for (std::size_t i = 0; i < kNumLanguages; ++i)
    langs.push_back(out.catalog.add("lang-" + std::to_string(i),
                                    Level::kLanguage,
                                    rng.uniform(40.0, 240.0),
                                    rng.uniform(0.5, 2.0)));
  for (std::size_t i = 0; i < kNumRuntimePackages; ++i)
    runtimes.push_back(out.catalog.add("rt-" + std::to_string(i),
                                       Level::kRuntime,
                                       rng.uniform(2.0, 120.0),
                                       rng.uniform(0.1, 1.0)));

  const util::ZipfSampler os_zipf(oses.size(), 1.4);
  const util::ZipfSampler lang_zipf(langs.size(), 1.2);
  const util::ZipfSampler rt_zipf(runtimes.size(), 1.05);

  // --- Function population.
  for (std::size_t i = 0; i < config.num_functions; ++i) {
    std::vector<PackageId> os = {oses[os_zipf.sample(rng)]};
    std::vector<PackageId> lang = {langs[lang_zipf.sample(rng)]};
    std::vector<PackageId> rt;
    const auto n_rt =
        static_cast<std::size_t>(rng.uniform_int(0, kMaxRuntimePerFunction));
    for (std::size_t j = 0; j < n_rt; ++j)
      rt.push_back(runtimes[rt_zipf.sample(rng)]);

    sim::FunctionType fn;
    fn.name = "azure-fn-" + std::to_string(i);
    fn.description = "synthetic Azure-like function";
    fn.image = containers::ImageSpec(std::move(os), std::move(lang),
                                     std::move(rt));
    const bool compiled = rng.bernoulli(0.3);
    fn.language_kind = compiled ? sim::LanguageKind::kCompiled
                                : sim::LanguageKind::kInterpreted;
    fn.runtime_init_s = compiled ? rng.uniform(1.0, 4.0)
                                 : rng.uniform(0.1, 0.5);
    fn.function_init_s = rng.uniform(0.02, 0.3);
    fn.mean_exec_s = sample_mean_exec(rng);
    fn.exec_cv = 0.3;
    (void)out.functions.add(std::move(fn));
  }

  // --- Trace: per-function heavy-tailed counts, arrivals uniform in the
  // window (equivalent to a Poisson process conditioned on the count).
  std::vector<sim::Invocation> invocations;
  out.invocations_per_function.resize(config.num_functions);
  for (std::size_t i = 0; i < config.num_functions; ++i) {
    const std::size_t count = sample_invocation_count(rng);
    out.invocations_per_function[i] = count;
    const auto& fn = out.functions.get(static_cast<sim::FunctionTypeId>(i));
    for (std::size_t k = 0; k < count; ++k) {
      sim::Invocation inv;
      inv.function = static_cast<sim::FunctionTypeId>(i);
      inv.arrival_s = rng.uniform(0.0, config.window_s);
      inv.exec_s = std::max(0.05 * fn.mean_exec_s,
                            rng.normal(fn.mean_exec_s,
                                       fn.exec_cv * fn.mean_exec_s));
      invocations.push_back(inv);
    }
  }
  out.trace = sim::Trace(std::move(invocations));
  return out;
}

double AzureLikeWorkload::fraction_invoked_once() const {
  if (invocations_per_function.empty()) return 0.0;
  std::size_t once = 0;
  for (const std::size_t c : invocations_per_function)
    if (c == 1) ++once;
  return static_cast<double>(once) /
         static_cast<double>(invocations_per_function.size());
}

double AzureLikeWorkload::fraction_invoked_at_most(std::size_t k) const {
  if (invocations_per_function.empty()) return 0.0;
  std::size_t n = 0;
  for (const std::size_t c : invocations_per_function)
    if (c <= k) ++n;
  return static_cast<double>(n) /
         static_cast<double>(invocations_per_function.size());
}

double AzureLikeWorkload::image_size_spread(double lo_percentile,
                                            double hi_percentile) const {
  std::vector<double> sizes;
  sizes.reserve(functions.size());
  for (const auto& fn : functions.all())
    sizes.push_back(fn.image.total_size_mb(catalog));
  if (sizes.empty()) return 0.0;
  const double lo = util::percentile(sizes, lo_percentile);
  const double hi = util::percentile(sizes, hi_percentile);
  return lo > 0.0 ? hi / lo : 0.0;
}

double AzureLikeWorkload::fraction_short_running(double threshold_s) const {
  if (functions.size() == 0) return 0.0;
  std::size_t n = 0;
  for (const auto& fn : functions.all())
    if (fn.mean_exec_s < threshold_s) ++n;
  return static_cast<double>(n) / static_cast<double>(functions.size());
}

}  // namespace mlcr::fstartbench
