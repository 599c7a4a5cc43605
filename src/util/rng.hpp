// Deterministic, fast pseudo-random number generation for simulation and
// statistical code. The generator is xoshiro256++ (Blackman & Vigna), seeded
// through SplitMix64 so that nearby seeds produce uncorrelated streams.
//
// Rng satisfies UniformRandomBitGenerator, so it can drive <random>
// distributions, but the member helpers below are preferred: they are
// reproducible across standard-library implementations.
#pragma once

#include <array>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <span>
#include <vector>

namespace lattice::util {

/// SplitMix64 step; used for seeding and as a cheap stateless mixer.
constexpr std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// xoshiro256++ pseudo-random generator.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x853c49e6748fea9bULL) { reseed(seed); }

  void reseed(std::uint64_t seed) {
    std::uint64_t sm = seed;
    for (auto& s : state_) s = splitmix64(sm);
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()() {
    const std::uint64_t result = rotl(state_[0] + state_[3], 23) + state_[0];
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Derive an independent child generator; used to give each simulated
  /// entity its own stream without coupling their sequences.
  Rng split() { return Rng((*this)() ^ 0x6a09e667f3bcc909ULL); }

  /// Raw state access for checkpoint/restore (GARLI checkpointing must
  /// resume the exact random sequence).
  std::array<std::uint64_t, 4> state() const { return state_; }
  void set_state(const std::array<std::uint64_t, 4>& state) {
    state_ = state;
  }

  /// Uniform double in [0, 1).
  double uniform() {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Uniform integer in [0, n). n must be > 0.
  std::uint64_t below(std::uint64_t n) {
    assert(n > 0);
    // Lemire's multiply-shift rejection method: unbiased.
    std::uint64_t x = (*this)();
    __uint128_t m = static_cast<__uint128_t>(x) * n;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < n) {
      const std::uint64_t threshold = -n % n;
      while (lo < threshold) {
        x = (*this)();
        m = static_cast<__uint128_t>(x) * n;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    assert(lo <= hi);
    return lo + static_cast<std::int64_t>(
                    below(static_cast<std::uint64_t>(hi - lo) + 1));
  }

  bool bernoulli(double p) { return uniform() < p; }

  /// Standard normal via Box–Muller (no cached spare: keeps state minimal
  /// and replay-stable).
  double normal() {
    double u1 = uniform();
    while (u1 <= 0.0) u1 = uniform();
    const double u2 = uniform();
    return std::sqrt(-2.0 * std::log(u1)) *
           std::cos(2.0 * std::numbers::pi * u2);
  }

  double normal(double mean, double sd) { return mean + sd * normal(); }

  /// Lognormal with the given parameters of the underlying normal.
  double lognormal(double mu, double sigma) {
    return std::exp(normal(mu, sigma));
  }

  /// Exponential with the given mean (not rate). mean must be > 0.
  double exponential(double mean) {
    double u = uniform();
    while (u <= 0.0) u = uniform();
    return -mean * std::log(u);
  }

  /// Weibull(shape k, scale λ) by inversion; shape and scale must be > 0.
  /// shape == 1 degenerates to exponential(scale) with the identical draw
  /// sequence, which is what lets fault plans leave churn distributions
  /// untouched by default.
  double weibull(double shape, double scale) {
    double u = uniform();
    while (u <= 0.0) u = uniform();
    return scale * std::pow(-std::log(u), 1.0 / shape);
  }

  /// Gamma(shape, scale) via Marsaglia–Tsang; shape > 0.
  double gamma(double shape, double scale) {
    if (shape < 1.0) {
      // Boosting: Gamma(a) = Gamma(a+1) * U^(1/a).
      const double u = std::max(uniform(), 1e-300);
      return gamma(shape + 1.0, scale) * std::pow(u, 1.0 / shape);
    }
    const double d = shape - 1.0 / 3.0;
    const double c = 1.0 / std::sqrt(9.0 * d);
    for (;;) {
      double x = normal();
      double v = 1.0 + c * x;
      if (v <= 0.0) continue;
      v = v * v * v;
      const double u = uniform();
      if (u < 1.0 - 0.0331 * x * x * x * x) return d * v * scale;
      if (u > 0.0 &&
          std::log(u) < 0.5 * x * x + d * (1.0 - v + std::log(v)))
        return d * v * scale;
    }
  }

  /// Poisson-distributed count with the given mean (Knuth for small means,
  /// PTRS-style normal approximation cutoff for large ones).
  std::uint64_t poisson(double mean) {
    assert(mean >= 0.0);
    if (mean < 30.0) {
      const double limit = std::exp(-mean);
      double prod = uniform();
      std::uint64_t n = 0;
      while (prod > limit) {
        ++n;
        prod *= uniform();
      }
      return n;
    }
    // Normal approximation with continuity correction is adequate for the
    // workload-arrival uses in this codebase.
    const double x = normal(mean, std::sqrt(mean));
    return x <= 0.0 ? 0 : static_cast<std::uint64_t>(x + 0.5);
  }

  /// Fisher–Yates shuffle.
  template <typename Container>
  void shuffle(Container& c) {
    for (std::size_t i = c.size(); i > 1; --i) {
      using std::swap;
      swap(c[i - 1], c[below(i)]);
    }
  }

  /// Sample an index from unnormalized non-negative weights.
  std::size_t weighted_index(std::span<const double> weights) {
    double total = 0.0;
    for (double w : weights) total += w;
    assert(total > 0.0);
    double r = uniform() * total;
    for (std::size_t i = 0; i < weights.size(); ++i) {
      r -= weights[i];
      if (r <= 0.0) return i;
    }
    return weights.size() - 1;
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
};

}  // namespace lattice::util
