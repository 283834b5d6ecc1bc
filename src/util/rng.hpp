#pragma once
// Deterministic, seedable pseudo-random number generation for Monte-Carlo
// SSTA and workload stimulus.  We carry our own generator (xoshiro256++)
// rather than <random> engines so that results are bit-identical across
// standard-library implementations — reproducibility of the Monte-Carlo
// experiments is part of the methodology contract.

#include <cmath>
#include <cstdint>
#include <span>

namespace vipvt {

/// splitmix64: used to expand a single 64-bit seed into the 256-bit
/// xoshiro state.  Also usable standalone for cheap hashing.
constexpr std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Seed for item `index` of a batch job keyed by `key`: two full
/// splitmix64 rounds over (key, index) so that consecutive indices — the
/// common case for per-die / per-sample sub-streams — land on unrelated
/// seeds.  This is the determinism-under-parallelism primitive: a worker
/// processing item i seeds Rng{substream_seed(job_seed, i)}, which makes
/// the item's random stream a function of the item alone, never of the
/// thread schedule.
constexpr std::uint64_t substream_seed(std::uint64_t key,
                                       std::uint64_t index) noexcept {
  std::uint64_t sm = key;
  const std::uint64_t a = splitmix64(sm);
  sm ^= index * 0xd1342543de82ef95ULL + 0x2545f4914f6cdd1dULL;
  const std::uint64_t b = splitmix64(sm);
  return splitmix64(sm) ^ a ^ (b << 1);
}

/// xoshiro256++ PRNG (Blackman & Vigna).  Not cryptographic; excellent
/// statistical quality and very fast, which matters when every gate of a
/// 50k-instance netlist draws its own Lgate sample per Monte-Carlo run.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit constexpr Rng(std::uint64_t seed = 0x5eed5eed5eedULL) noexcept {
    std::uint64_t sm = seed;
    for (auto& word : state_) word = splitmix64(sm);
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~result_type{0}; }

  constexpr result_type operator()() noexcept { return next(); }

  constexpr std::uint64_t next() noexcept {
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

  /// Uniform double in [0, 1).
  double uniform() noexcept {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform();
  }

  /// Uniform integer in [0, n).  n must be > 0.
  std::uint64_t below(std::uint64_t n) noexcept {
    // Lemire's nearly-divisionless bounded generation.
    __uint128_t m = static_cast<__uint128_t>(next()) * n;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < n) {
      const std::uint64_t threshold = (0 - n) % n;
      while (lo < threshold) {
        m = static_cast<__uint128_t>(next()) * n;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Standard normal via Marsaglia polar method (cached second deviate).
  double normal() noexcept {
    if (has_cached_) {
      has_cached_ = false;
      return cached_;
    }
    double u, v, s;
    do {
      u = uniform(-1.0, 1.0);
      v = uniform(-1.0, 1.0);
      s = u * u + v * v;
    } while (s >= 1.0 || s == 0.0);
    const double f = std::sqrt(-2.0 * std::log(s) / s);
    cached_ = v * f;
    has_cached_ = true;
    return u * f;
  }

  /// Normal deviate with the given mean and standard deviation.
  double normal(double mean, double stddev) noexcept {
    return mean + stddev * normal();
  }

  /// Bernoulli trial with probability p of returning true.
  bool chance(double p) noexcept { return uniform() < p; }

  /// Fill `out` with i.i.d. standard-normal deviates: the bulk generator
  /// of the BatchedSimd draw profile.  Counter-driven Box-Muller instead
  /// of the polar method — no rejection loop, no cached-deviate state, one
  /// fixed-work iteration per output pair.  Exactly TWO parent next()
  /// calls are consumed regardless of out.size(): they key two
  /// splitmix64-finalized counter streams that supply the uniforms.
  /// Consequences relied on by callers (and pinned in test_util_rng):
  ///   * out[i] depends only on (parent state at entry, i) — prefixes are
  ///     stable, so a fill of m is a prefix of a fill of n for m <= n;
  ///   * an odd-length fill drops the second deviate of the last pair.
  /// The log/sin/cos run through the SIMD kernel layer's own vector math
  /// (DESIGN.md §17), never libm, so the stream is bit-identical across
  /// ISAs, compilers and build flags: every dispatch target instantiates
  /// the same kernel body with contraction disabled.  Defined in
  /// simd/dispatch.cpp.
  void normals_simd(std::span<double> out) noexcept;

  /// Bulk polar normals: out[k] is bit-identical to the k-th of
  /// out.size() successive normal() calls, and the generator — cached
  /// second deviate included — ends in exactly the state those calls
  /// leave (DESIGN.md §20).  It runs the same arithmetic in phases:
  /// sequential uniforms for only as many candidate pairs as are still
  /// owed (so acceptance can never overshoot), vector s = u*u + v*v,
  /// branch-free compaction of the accepted pairs, scalar std::log, then
  /// vector sqrt/div.  Defined in rng_polar.cpp, a strict-FP TU.
  void normals_polar(std::span<double> out) noexcept;

  /// Derive an independent child generator (for per-sample streams).
  /// The child's 256-bit state is built from a fresh splitmix64 stream
  /// keyed by TWO parent draws, not from a single XOR-perturbed draw:
  /// one draw only decorrelates the child from the parent's *next*
  /// output, while siblings forked in sequence would sit on nearby
  /// splitmix inputs.  Two draws give 128 bits of fork identity, fully
  /// re-expanded, so parent/child and sibling/sibling streams are
  /// statistically independent (regression-tested in test_util_rng).
  Rng fork() noexcept {
    const std::uint64_t hi = next();
    const std::uint64_t lo = next();
    Rng child{};
    std::uint64_t sm = hi;
    child.state_[0] = splitmix64(sm);
    child.state_[1] = splitmix64(sm);
    sm ^= lo * 0x9e3779b97f4a7c15ULL;
    child.state_[2] = splitmix64(sm);
    child.state_[3] = splitmix64(sm);
    return child;
  }

  /// Stateless uniform bits for counter `i` of the stream keyed by `key`:
  /// the splitmix64 finalizer over key + i*golden — the same spacing
  /// splitmix64 itself uses, evaluated at a random offset instead of
  /// sequentially, which is what makes the generator counter-driven.
  /// Public because the SIMD normal-fill and fused draw kernels
  /// (util/simd) and their tests consume the same counter streams.
  static constexpr std::uint64_t counter_bits(std::uint64_t key,
                                              std::uint64_t i) noexcept {
    std::uint64_t s = key + i * 0x9e3779b97f4a7c15ULL;
    return splitmix64(s);
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4]{};
  double cached_ = 0.0;
  bool has_cached_ = false;
};

}  // namespace vipvt
