// Tests for the deterministic PRNG: reproducibility, range contracts and
// first/second-moment sanity of the normal generator.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <numbers>
#include <set>
#include <vector>

#include "campaign/campaign.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace vipvt {
namespace {

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next() == b.next());
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    const double v = rng.uniform(-2.5, 1.5);
    EXPECT_GE(v, -2.5);
    EXPECT_LT(v, 1.5);
  }
}

TEST(Rng, BelowRespectsBound) {
  Rng rng(3);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 5000; ++i) {
    const auto v = rng.below(7);
    EXPECT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all residues hit
}

TEST(Rng, NormalMoments) {
  Rng rng(1234);
  RunningStats rs;
  for (int i = 0; i < 100000; ++i) rs.add(rng.normal());
  EXPECT_NEAR(rs.mean(), 0.0, 0.02);
  EXPECT_NEAR(rs.stddev(), 1.0, 0.02);
}

TEST(Rng, NormalScaledMoments) {
  Rng rng(99);
  RunningStats rs;
  for (int i = 0; i < 50000; ++i) rs.add(rng.normal(65.0, 1.3));
  EXPECT_NEAR(rs.mean(), 65.0, 0.05);
  EXPECT_NEAR(rs.stddev(), 1.3, 0.05);
}

TEST(Rng, ChanceFrequency) {
  Rng rng(5);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.chance(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, ForkDecorrelates) {
  Rng parent(42);
  Rng child = parent.fork();
  RunningStats diff;
  for (int i = 0; i < 1000; ++i) {
    diff.add(child.uniform() - parent.uniform());
  }
  // Not identical streams.
  EXPECT_GT(diff.stddev(), 0.1);
}

namespace {

// Pearson correlation of two equal-length sequences.
double correlation(const std::vector<double>& a, const std::vector<double>& b) {
  RunningStats sa, sb;
  for (double x : a) sa.add(x);
  for (double x : b) sb.add(x);
  double cov = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    cov += (a[i] - sa.mean()) * (b[i] - sb.mean());
  }
  cov /= static_cast<double>(a.size() - 1);
  return cov / (sa.stddev() * sb.stddev());
}

std::vector<double> draw(Rng& rng, int n) {
  std::vector<double> v(static_cast<std::size_t>(n));
  for (double& x : v) x = rng.uniform();
  return v;
}

}  // namespace

// Regression for the weak fork() derivation: a child seeded from a
// single parent draw XOR'd with a constant leaves parent/child and
// sibling/sibling streams correlated.  The reseed through the full
// splitmix64 expansion of two draws must keep every pairwise sample
// correlation at statistical-noise level (|r| ~ 1/sqrt(n)).
TEST(Rng, ForkStreamsStatisticallyIndependent) {
  constexpr int n = 4096;
  const double bound = 4.0 / std::sqrt(static_cast<double>(n));  // ~4 sigma

  Rng parent(0xfeedface);
  Rng child = parent.fork();
  auto child_seq = draw(child, n);
  auto parent_seq = draw(parent, n);
  EXPECT_LT(std::abs(correlation(parent_seq, child_seq)), bound);

  // Siblings forked in sequence (the per-MC-sample pattern).
  Rng p2(1);
  std::vector<std::vector<double>> sibs;
  for (int k = 0; k < 4; ++k) {
    Rng s = p2.fork();
    sibs.push_back(draw(s, n));
  }
  for (std::size_t i = 0; i < sibs.size(); ++i) {
    for (std::size_t j = i + 1; j < sibs.size(); ++j) {
      EXPECT_LT(std::abs(correlation(sibs[i], sibs[j])), bound)
          << "siblings " << i << "," << j;
    }
  }
}

TEST(Rng, ForkAdvancesParentByTwoDraws) {
  Rng a(7), b(7);
  (void)a.fork();
  b.next();
  b.next();
  for (int i = 0; i < 16; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, SubstreamSeedsDecorrelate) {
  // Consecutive batch indices — worst case for a weak mixer — must give
  // independent streams.
  constexpr int n = 4096;
  const double bound = 4.0 / std::sqrt(static_cast<double>(n));
  Rng s0(substream_seed(0x5eed, 0));
  Rng s1(substream_seed(0x5eed, 1));
  auto a = draw(s0, n);
  auto b = draw(s1, n);
  EXPECT_LT(std::abs(correlation(a, b)), bound);
}

// ---- bulk normal generation (the BatchedSimd draw profile's engine) ------

TEST(RngNormals, Moments) {
  Rng rng(0xb0b);
  std::vector<double> z(100000);
  rng.normals_simd(z);
  RunningStats rs;
  for (double x : z) rs.add(x);
  EXPECT_NEAR(rs.mean(), 0.0, 0.02);
  EXPECT_NEAR(rs.stddev(), 1.0, 0.02);
}

TEST(RngNormals, KolmogorovSmirnovAgainstStdNormal) {
  // One-sample KS test at alpha = 0.01: D_n < 1.63 / sqrt(n).  Catches a
  // broken transform (wrong tail, wrong scale) that moments alone miss.
  constexpr std::size_t n = 4096;
  Rng rng(0xd15ea5e);
  std::vector<double> z(n);
  rng.normals_simd(z);
  std::sort(z.begin(), z.end());
  double d = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double cdf = 0.5 * std::erfc(-z[i] / std::numbers::sqrt2);
    const double lo = static_cast<double>(i) / n;
    const double hi = static_cast<double>(i + 1) / n;
    d = std::max({d, std::abs(cdf - lo), std::abs(cdf - hi)});
  }
  EXPECT_LT(d, 1.63 / std::sqrt(static_cast<double>(n)));
}

TEST(RngNormals, DeterministicAndPrefixStable) {
  const auto fill = [](std::size_t n) {
    Rng rng(0xabcdef);
    std::vector<double> z(n);
    rng.normals_simd(z);
    return z;
  };
  const std::vector<double> ref = fill(1000);
  EXPECT_EQ(ref, fill(1000));  // bit-identical rerun
  // A fill of m is a prefix of a fill of n for m <= n — including odd
  // lengths (which drop the second deviate of their last pair) and
  // lengths that straddle the vector-fill block boundary.
  for (std::size_t m : {1u, 2u, 7u, 127u, 255u, 256u, 257u, 999u}) {
    const std::vector<double> zm = fill(m);
    for (std::size_t i = 0; i < m; ++i) {
      EXPECT_EQ(zm[i], ref[i]) << "prefix length " << m << " index " << i;
    }
  }
}

TEST(RngNormals, ConsumesExactlyTwoParentDraws) {
  // The draw count is independent of the fill size: the two next() calls
  // key the counter streams, the counters supply everything else.
  for (std::size_t n : {3u, 4096u}) {
    Rng a(7), b(7);
    std::vector<double> z(n);
    a.normals_simd(z);
    b.next();
    b.next();
    for (int i = 0; i < 16; ++i) {
      EXPECT_EQ(a.next(), b.next()) << "fill size " << n;
    }
  }
}

TEST(RngNormals, SubstreamsDecorrelate) {
  // Adjacent per-sample substreams — exactly how draw_factors_batch keys
  // its lanes — must be independent.
  constexpr std::size_t n = 4096;
  const double bound = 4.0 / std::sqrt(static_cast<double>(n));
  Rng s0(substream_seed(0x5eed, 0));
  Rng s1(substream_seed(0x5eed, 1));
  std::vector<double> a(n), b(n);
  s0.normals_simd(a);
  s1.normals_simd(b);
  EXPECT_LT(std::abs(correlation(a, b)), bound);
  // And the two counter streams WITHIN one fill must not correlate the
  // even/odd halves of a pair.
  std::vector<double> even(n / 2), odd(n / 2);
  for (std::size_t i = 0; i < n / 2; ++i) {
    even[i] = a[2 * i];
    odd[i] = a[2 * i + 1];
  }
  EXPECT_LT(std::abs(correlation(even, odd)),
            4.0 / std::sqrt(static_cast<double>(n / 2)));
}

TEST(Splitmix, KnownExpansion) {
  std::uint64_t s = 0;
  const auto a = splitmix64(s);
  const auto b = splitmix64(s);
  EXPECT_NE(a, b);
  EXPECT_EQ(s, 2 * 0x9e3779b97f4a7c15ULL);
}

// ---- campaign substream tree (campaign/campaign.hpp) ----------------------

// The campaign layer nests substream_seed three levels deep:
// seed -> cell -> wafer -> die.  A collision anywhere in that tree would
// silently correlate two dies of the sweep, so check the REAL derivation
// (campaign_die_seed delegates to the same helpers run() uses) over a
// campaign-sized grid, then sanity-check the marginal uniformity of the
// derived streams with a chi-squared test.
TEST(CampaignSeeding, SubstreamTreeCollisionFree) {
  constexpr std::uint64_t kSeed = 0xca4fa167'5eed0001ULL;
  constexpr int kCells = 24, kWafers = 4, kDies = 64;
  std::set<std::uint64_t> seen;
  for (int c = 0; c < kCells; ++c) {
    for (int w = 0; w < kWafers; ++w) {
      for (int d = 0; d < kDies; ++d) {
        seen.insert(campaign_die_seed(kSeed, static_cast<std::uint64_t>(c),
                                      static_cast<std::uint64_t>(w),
                                      static_cast<std::uint64_t>(d)));
      }
    }
  }
  EXPECT_EQ(seen.size(),
            static_cast<std::size_t>(kCells) * kWafers * kDies);
}

TEST(CampaignSeeding, DerivedStreamsPassChiSquaredUniformity) {
  // Pool the first draws of many (cell, wafer, die) streams; if the tree
  // mixed poorly (e.g. adjacent wafers landing in related states), the
  // bucket counts would skew far beyond chi-squared noise.
  constexpr int kBins = 16;
  constexpr int kStreams = 2048;
  std::array<int, kBins> count{};
  for (int s = 0; s < kStreams; ++s) {
    Rng rng(campaign_die_seed(0x5eed, static_cast<std::uint64_t>(s % 8),
                              static_cast<std::uint64_t>((s / 8) % 4),
                              static_cast<std::uint64_t>(s / 32)));
    const double u = rng.uniform();
    ++count[std::min(kBins - 1, static_cast<int>(u * kBins))];
  }
  const double expected = static_cast<double>(kStreams) / kBins;
  double stat = 0.0;
  for (const int c : count) {
    const double d = c - expected;
    stat += d * d / expected;
  }
  // p-value must not be vanishingly small (df = 15; 0.001 quantile ~ 37.7).
  EXPECT_GT(chi_squared_sf(stat, kBins - 1), 1e-3) << "chi2 = " << stat;
}

TEST(CampaignSeeding, CrossWaferDieStreamsUncorrelated) {
  // Same die id on two adjacent wafers of the same cell — the most
  // tempting aliasing pair in the tree — must be statistically
  // independent streams.
  constexpr int n = 4096;
  const double bound = 4.0 / std::sqrt(static_cast<double>(n));
  Rng w0(campaign_die_seed(0xab5eed, 3, 0, 17));
  Rng w1(campaign_die_seed(0xab5eed, 3, 1, 17));
  auto a = draw(w0, n);
  auto b = draw(w1, n);
  EXPECT_LT(std::abs(correlation(a, b)), bound);

  // And the same (wafer, die) across two cells.
  Rng c0(campaign_die_seed(0xab5eed, 0, 2, 5));
  Rng c1(campaign_die_seed(0xab5eed, 1, 2, 5));
  auto c = draw(c0, n);
  auto d = draw(c1, n);
  EXPECT_LT(std::abs(correlation(c, d)), bound);
}

}  // namespace
}  // namespace vipvt
