// Deterministic random number generation for the simulator and workloads.
//
// Everything stochastic in this repository draws from an explicitly seeded Rng
// so that a (seed, configuration) pair reproduces results bit-for-bit. The
// engine is xoshiro256** seeded via splitmix64, which is fast, has a 256-bit
// state and passes BigCrush; we avoid std::mt19937 mainly because its
// distributions are not portable across standard libraries, while all
// distribution code here is our own.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

namespace mlcr::util {

/// splitmix64 step; used to expand a single 64-bit seed into engine state.
[[nodiscard]] std::uint64_t splitmix64(std::uint64_t& state) noexcept;

/// Deterministic pseudo-random generator (xoshiro256**) with portable
/// distribution helpers. Copyable: copies continue the sequence independently.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0xC0FFEEULL) noexcept;

  /// Raw 64 random bits (UniformRandomBitGenerator interface).
  [[nodiscard]] result_type operator()() noexcept { return next(); }
  [[nodiscard]] static constexpr result_type min() noexcept { return 0; }
  [[nodiscard]] static constexpr result_type max() noexcept {
    return ~result_type{0};
  }

  /// Uniform double in [0, 1).
  [[nodiscard]] double uniform() noexcept;
  /// Uniform double in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi) noexcept;
  /// Uniform integer in [0, n). Requires n > 0. Unbiased (rejection method).
  [[nodiscard]] std::uint64_t uniform_index(std::uint64_t n) noexcept;
  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  [[nodiscard]] std::int64_t uniform_int(std::int64_t lo,
                                         std::int64_t hi) noexcept;
  /// Exponential with rate lambda (> 0); mean 1/lambda.
  [[nodiscard]] double exponential(double lambda) noexcept;
  /// Standard normal via Box–Muller (no cached spare: keeps state minimal).
  [[nodiscard]] double normal() noexcept;
  [[nodiscard]] double normal(double mean, double stddev) noexcept;
  /// Poisson-distributed count with mean lambda (Knuth for small lambda,
  /// normal approximation above 64).
  [[nodiscard]] std::uint64_t poisson(double lambda) noexcept;
  /// Bernoulli trial with probability p in [0, 1].
  [[nodiscard]] bool bernoulli(double p) noexcept;

  /// Derive an independent child generator (for parallel replications).
  [[nodiscard]] Rng split() noexcept;

 private:
  [[nodiscard]] std::uint64_t next() noexcept;
  std::array<std::uint64_t, 4> state_{};
};

/// Zipf(s, n) sampler over ranks 1..n via inverse-CDF table; models package
/// popularity on Docker Hub (paper Fig. 3: a few images dominate pulls).
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double exponent);

  /// Rank in [0, n), rank 0 most popular.
  [[nodiscard]] std::size_t sample(Rng& rng) const noexcept;
  /// Probability of rank k.
  [[nodiscard]] double probability(std::size_t rank) const;
  [[nodiscard]] std::size_t size() const noexcept { return cdf_.size(); }

 private:
  std::vector<double> cdf_;
};

}  // namespace mlcr::util
