// Unit tests for the statistics toolkit: running moments, histogramming,
// normal CDF/quantile, chi-squared machinery and the normality test that
// backs the paper's Fig. 3 fits.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numbers>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/rng.hpp"
#include "util/stats.hpp"

namespace vipvt {
namespace {

TEST(RunningStats, BasicMoments) {
  RunningStats rs;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) rs.add(x);
  EXPECT_EQ(rs.count(), 8u);
  EXPECT_DOUBLE_EQ(rs.mean(), 5.0);
  EXPECT_NEAR(rs.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(rs.min(), 2.0);
  EXPECT_DOUBLE_EQ(rs.max(), 9.0);
}

TEST(RunningStats, EmptyIsZero) {
  RunningStats rs;
  EXPECT_EQ(rs.count(), 0u);
  EXPECT_EQ(rs.mean(), 0.0);
  EXPECT_EQ(rs.variance(), 0.0);
}

TEST(RunningStats, MergeMatchesSequential) {
  Rng rng(7);
  RunningStats all, a, b;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.normal(3.0, 2.0);
    all.add(x);
    (i % 2 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-10);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-8);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a, b;
  a.add(1.0);
  a.add(3.0);
  a.merge(b);  // no-op
  EXPECT_EQ(a.count(), 2u);
  b.merge(a);  // copies
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), 2.0);
}

TEST(Histogram, BinsAndClamping) {
  Histogram h(0.0, 10.0, 10);
  h.add(0.5);    // bin 0
  h.add(9.99);   // bin 9
  h.add(-5.0);   // clamps to bin 0
  h.add(42.0);   // clamps to bin 9
  EXPECT_EQ(h.bin_count(0), 2u);
  EXPECT_EQ(h.bin_count(9), 2u);
  EXPECT_EQ(h.total(), 4u);
  EXPECT_DOUBLE_EQ(h.bin_lo(3), 3.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(3), 4.0);
  EXPECT_DOUBLE_EQ(h.bin_center(3), 3.5);
}

TEST(Histogram, DensityIntegratesToOne) {
  Histogram h(-4.0, 4.0, 32);
  Rng rng(11);
  for (int i = 0; i < 20000; ++i) h.add(rng.normal());
  double integral = 0.0;
  for (std::size_t b = 0; b < h.bins(); ++b) {
    integral += h.density(b) * (h.bin_hi(b) - h.bin_lo(b));
  }
  EXPECT_NEAR(integral, 1.0, 1e-12);
}

TEST(Histogram, RejectsDegenerate) {
  EXPECT_THROW(Histogram(1.0, 1.0, 4), std::invalid_argument);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), std::invalid_argument);
}

TEST(NormalCdf, KnownValues) {
  EXPECT_NEAR(normal_cdf(0.0), 0.5, 1e-12);
  EXPECT_NEAR(normal_cdf(1.959963985), 0.975, 1e-6);
  EXPECT_NEAR(normal_cdf(-3.0), 0.00134989803163, 1e-9);
  EXPECT_NEAR(normal_cdf(5.0, 3.0, 2.0), normal_cdf(1.0), 1e-12);
}

TEST(NormalQuantile, InvertsCdf) {
  for (double p : {0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999}) {
    EXPECT_NEAR(normal_cdf(normal_quantile(p)), p, 1e-9) << "p=" << p;
  }
  EXPECT_THROW(normal_quantile(0.0), std::domain_error);
  EXPECT_THROW(normal_quantile(1.0), std::domain_error);
}

TEST(ChiSquared, SurvivalFunction) {
  // chi^2 with k dof has mean k; SF at 0 is 1.
  EXPECT_NEAR(chi_squared_sf(0.0, 5.0), 1.0, 1e-12);
  // Known value: P(X >= 3.841) ~ 0.05 for 1 dof.
  EXPECT_NEAR(chi_squared_sf(3.841458821, 1.0), 0.05, 1e-6);
  // P(X >= 18.307) ~ 0.05 for 10 dof.
  EXPECT_NEAR(chi_squared_sf(18.30703805, 10.0), 0.05, 1e-6);
  EXPECT_THROW(gamma_q(-1.0, 1.0), std::domain_error);
}

TEST(FitNormal, AcceptsGaussianData) {
  Rng rng(99);
  std::vector<double> xs;
  xs.reserve(4000);
  for (int i = 0; i < 4000; ++i) xs.push_back(rng.normal(-0.2, 0.05));
  const NormalFit fit = fit_normal(xs, 0.95);
  EXPECT_NEAR(fit.mean, -0.2, 0.005);
  EXPECT_NEAR(fit.stddev, 0.05, 0.005);
  EXPECT_TRUE(fit.accepted) << "p=" << fit.p_value;
}

TEST(FitNormal, RejectsStronglyBimodalData) {
  Rng rng(123);
  std::vector<double> xs;
  for (int i = 0; i < 4000; ++i) {
    xs.push_back(rng.chance(0.5) ? rng.normal(-1.0, 0.1) : rng.normal(1.0, 0.1));
  }
  const NormalFit fit = fit_normal(xs, 0.95);
  EXPECT_FALSE(fit.accepted);
}

TEST(FitNormal, TinySamplesAreInconclusive) {
  std::vector<double> xs = {1.0, 2.0, 3.0};
  const NormalFit fit = fit_normal(xs);
  EXPECT_FALSE(fit.accepted);
  EXPECT_NEAR(fit.mean, 2.0, 1e-12);
}

// Edge cases hit by near-empty wafer yield bins: constant data, fewer
// samples than test bins, and NaN contamination must all return a fit
// (never throw) with sane acceptance semantics.

TEST(FitNormal, ConstantSamplesAreDegenerateNormal) {
  const std::vector<double> xs(20, 3.25);
  const NormalFit fit = fit_normal(xs);
  EXPECT_DOUBLE_EQ(fit.mean, 3.25);
  EXPECT_DOUBLE_EQ(fit.stddev, 0.0);
  EXPECT_TRUE(fit.accepted);  // zero-variance data is trivially normal
}

TEST(FitNormal, ConstantSamplesLargeN) {
  // Large n would normally enter the chi-squared path; zero variance
  // must still short-circuit to the degenerate acceptance.
  const std::vector<double> xs(5000, -1.5);
  const NormalFit fit = fit_normal(xs);
  EXPECT_DOUBLE_EQ(fit.stddev, 0.0);
  EXPECT_TRUE(fit.accepted);
  EXPECT_EQ(fit.bins_used, 0u);
}

TEST(FitNormal, FewerSamplesThanBinCount) {
  // n = 9 enters the histogram path with sqrt(n)=3 < the 6-bin floor;
  // pooling must keep the test well-formed (no throw, dof >= 1).
  std::vector<double> xs;
  Rng rng(7);
  for (int i = 0; i < 9; ++i) xs.push_back(rng.normal(0.0, 1.0));
  const NormalFit fit = fit_normal(xs);
  EXPECT_GE(fit.dof, 1.0);
  EXPECT_GE(fit.p_value, 0.0);
  EXPECT_LE(fit.p_value, 1.0);
}

TEST(FitNormal, EmptySamplesDoNotThrow) {
  const NormalFit fit = fit_normal({});
  EXPECT_DOUBLE_EQ(fit.mean, 0.0);
  EXPECT_DOUBLE_EQ(fit.stddev, 0.0);
}

TEST(FitNormal, NanPropagatesWithoutThrowing) {
  std::vector<double> xs;
  Rng rng(11);
  for (int i = 0; i < 100; ++i) xs.push_back(rng.normal(1.0, 0.3));
  xs[50] = std::numeric_limits<double>::quiet_NaN();
  const NormalFit fit = fit_normal(xs);
  EXPECT_TRUE(std::isnan(fit.mean));
  EXPECT_TRUE(std::isnan(fit.stddev));
  EXPECT_FALSE(fit.accepted);
  EXPECT_DOUBLE_EQ(fit.p_value, 0.0);
}

TEST(FitNormal, InfinityPropagatesWithoutThrowing) {
  std::vector<double> xs(32, 0.5);
  xs[3] = std::numeric_limits<double>::infinity();
  const NormalFit fit = fit_normal(xs);
  EXPECT_FALSE(fit.accepted);
  EXPECT_FALSE(std::isfinite(fit.mean));
}

// ---- Welford accumulator vs batch computation (adaptive CI checks) --------
//
// The adaptive stopping rule extends RunningStats incrementally each
// round instead of re-fitting over all accumulated samples; that is only
// sound if the single-pass moments match a two-pass batch computation to
// ulp-scale accuracy, including across span-adds and merges.

TEST(RunningStats, IncrementalMatchesTwoPassBatchToUlps) {
  Rng rng(0x5eed);
  std::vector<double> xs;
  xs.reserve(10000);
  for (int i = 0; i < 10000; ++i) xs.push_back(rng.normal(5.0, 0.01));

  // Two-pass batch reference: exact mean, then centered sum of squares.
  double sum = 0.0;
  for (double x : xs) sum += x;
  const double mean = sum / static_cast<double>(xs.size());
  double m2 = 0.0;
  for (double x : xs) m2 += (x - mean) * (x - mean);
  const double variance = m2 / static_cast<double>(xs.size() - 1);

  // Incremental, fed in three uneven rounds via the span overload — the
  // exact shape of the adaptive per-round update.
  RunningStats rs;
  std::span<const double> all(xs);
  rs.add(all.subspan(0, 17));
  rs.add(all.subspan(17, 4000));
  rs.add(all.subspan(4017));
  EXPECT_EQ(rs.count(), xs.size());
  EXPECT_NEAR(rs.mean(), mean, std::abs(mean) * 1e-14);
  EXPECT_NEAR(rs.variance(), variance, variance * 1e-12);

  // Split/merge (the cross-worker shape) lands on the same moments.
  RunningStats a, b;
  a.add(all.subspan(0, 5000));
  b.add(all.subspan(5000));
  a.merge(b);
  EXPECT_NEAR(a.mean(), mean, std::abs(mean) * 1e-14);
  EXPECT_NEAR(a.variance(), variance, variance * 1e-12);
}

// ---- Student-t / chi-squared quantiles ------------------------------------

TEST(StudentT, CdfKnownValues) {
  EXPECT_NEAR(student_t_cdf(0.0, 7.0), 0.5, 1e-12);
  // t = 2.228 is the 97.5 % point at 10 dof.
  EXPECT_NEAR(student_t_cdf(2.2281388520, 10.0), 0.975, 1e-9);
  EXPECT_NEAR(student_t_cdf(-2.2281388520, 10.0), 0.025, 1e-9);
  // Heavy 1-dof (Cauchy) tail: CDF(1) = 0.75.
  EXPECT_NEAR(student_t_cdf(1.0, 1.0), 0.75, 1e-9);
  EXPECT_THROW(student_t_cdf(1.0, 0.0), std::domain_error);
}

TEST(StudentT, QuantileKnownValues) {
  EXPECT_NEAR(student_t_quantile(0.975, 1.0), 12.7062047362, 1e-6);
  EXPECT_NEAR(student_t_quantile(0.975, 10.0), 2.2281388520, 1e-9);
  EXPECT_NEAR(student_t_quantile(0.995, 5.0), 4.0321429836, 1e-8);
  EXPECT_DOUBLE_EQ(student_t_quantile(0.5, 3.0), 0.0);
  // Converges to the normal quantile as dof grows.
  EXPECT_NEAR(student_t_quantile(0.975, 1e6), normal_quantile(0.975), 1e-5);
  EXPECT_THROW(student_t_quantile(0.0, 5.0), std::domain_error);
  EXPECT_THROW(student_t_quantile(1.0, 5.0), std::domain_error);
}

TEST(StudentT, QuantileInvertsCdf) {
  for (double dof : {1.0, 2.0, 4.5, 12.0, 60.0}) {
    for (double p : {0.01, 0.1, 0.4, 0.6, 0.9, 0.975, 0.999}) {
      EXPECT_NEAR(student_t_cdf(student_t_quantile(p, dof), dof), p, 1e-9)
          << "p=" << p << " dof=" << dof;
    }
  }
}

TEST(ChiSquaredQuantile, KnownValuesAndRoundTrip) {
  EXPECT_NEAR(chi_squared_quantile(0.95, 10.0), 18.3070380533, 1e-7);
  EXPECT_NEAR(chi_squared_quantile(0.025, 10.0), 3.2469727802, 1e-8);
  EXPECT_NEAR(chi_squared_quantile(0.975, 10.0), 20.4831774486, 1e-7);
  EXPECT_NEAR(chi_squared_quantile(0.05, 1.0), 0.0039321400, 1e-10);
  for (double k : {1.0, 3.0, 9.0, 47.0}) {
    for (double p : {0.025, 0.2, 0.5, 0.8, 0.975}) {
      const double x = chi_squared_quantile(p, k);
      EXPECT_NEAR(1.0 - chi_squared_sf(x, k), p, 1e-10)
          << "p=" << p << " k=" << k;
    }
  }
  EXPECT_THROW(chi_squared_quantile(0.0, 5.0), std::domain_error);
  EXPECT_THROW(chi_squared_quantile(0.5, -1.0), std::domain_error);
}

// ---- confidence-interval helpers ------------------------------------------

TEST(ConfidenceIntervals, MatchHandComputedForms) {
  // n = 16 samples with s = 2, mean = 10 at 95 %:
  //   mean hw = t_{0.975,15} * 2 / 4, sigma interval from chi2_{15}.
  const Interval m = mean_confidence_interval(16, 10.0, 2.0, 0.95);
  const double t = student_t_quantile(0.975, 15.0);
  EXPECT_NEAR(m.half_width(), t * 2.0 / 4.0, 1e-12);
  EXPECT_NEAR(0.5 * (m.lo + m.hi), 10.0, 1e-12);

  const Interval s = stddev_confidence_interval(16, 2.0, 0.95);
  const double chi_hi = chi_squared_quantile(0.975, 15.0);
  const double chi_lo = chi_squared_quantile(0.025, 15.0);
  EXPECT_NEAR(s.lo, 2.0 * std::sqrt(15.0 / chi_hi), 1e-12);
  EXPECT_NEAR(s.hi, 2.0 * std::sqrt(15.0 / chi_lo), 1e-12);
  EXPECT_LT(s.lo, 2.0);
  EXPECT_GT(s.hi, 2.0);
}

// Empirical coverage: resample a known normal 2000 times and count how
// often the 95 % intervals cover the true parameters.  Nominal coverage
// is exact for normal data, so the observed rate must sit inside a
// generous tolerance band around 0.95 (binomial se ~ 0.005 at 2000
// resamples; the band is +/- 4 sigma with margin, and the fixed seed
// makes the test deterministic anyway).
TEST(ConfidenceIntervals, EmpiricalCoverageNearNominal) {
  constexpr double kTrueMean = -0.25;
  constexpr double kTrueSigma = 0.04;
  constexpr int kResamples = 2000;
  constexpr int kN = 25;
  Rng rng(0xc0ffee);
  int mean_covered = 0, sigma_covered = 0;
  for (int r = 0; r < kResamples; ++r) {
    RunningStats rs;
    for (int i = 0; i < kN; ++i) rs.add(rng.normal(kTrueMean, kTrueSigma));
    const Interval m =
        mean_confidence_interval(rs.count(), rs.mean(), rs.stddev(), 0.95);
    const Interval s = stddev_confidence_interval(rs.count(), rs.stddev(), 0.95);
    if (m.lo <= kTrueMean && kTrueMean <= m.hi) ++mean_covered;
    if (s.lo <= kTrueSigma && kTrueSigma <= s.hi) ++sigma_covered;
  }
  const double mean_cov = static_cast<double>(mean_covered) / kResamples;
  const double sigma_cov = static_cast<double>(sigma_covered) / kResamples;
  EXPECT_GT(mean_cov, 0.925);
  EXPECT_LT(mean_cov, 0.975);
  EXPECT_GT(sigma_cov, 0.925);
  EXPECT_LT(sigma_cov, 0.975);
}

// Degenerate inputs mirror the fit_normal hardening: report, never throw.
TEST(ConfidenceIntervals, DegenerateInputs) {
  constexpr double inf = std::numeric_limits<double>::infinity();
  // n < 2: nothing is known — infinite intervals, infinite half-width.
  EXPECT_EQ(mean_confidence_interval(0, 0.0, 0.0).half_width(), inf);
  EXPECT_EQ(mean_confidence_interval(1, 3.0, 0.0).half_width(), inf);
  EXPECT_EQ(stddev_confidence_interval(1, 0.0).hi, inf);
  EXPECT_EQ(stddev_confidence_interval(1, 0.0).lo, 0.0);
  // Zero variance: the degenerate-normal point interval.
  const Interval m0 = mean_confidence_interval(50, 1.5, 0.0);
  EXPECT_DOUBLE_EQ(m0.lo, 1.5);
  EXPECT_DOUBLE_EQ(m0.hi, 1.5);
  EXPECT_DOUBLE_EQ(m0.half_width(), 0.0);
  EXPECT_DOUBLE_EQ(stddev_confidence_interval(50, 0.0).half_width(), 0.0);
  // NaN moments: NaN intervals whose half-width never satisfies a
  // target comparison (the conservative direction for a stopping rule).
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(std::isnan(mean_confidence_interval(50, nan, 1.0).half_width()));
  EXPECT_TRUE(std::isnan(mean_confidence_interval(50, 0.0, nan).half_width()));
  EXPECT_TRUE(std::isnan(stddev_confidence_interval(50, nan).half_width()));
  EXPECT_FALSE(mean_confidence_interval(50, nan, 1.0).half_width() <= 1e9);
  // Bad confidence throws (a config error, not a data condition).
  EXPECT_THROW(mean_confidence_interval(50, 0.0, 1.0, 1.0), std::domain_error);
  EXPECT_THROW(stddev_confidence_interval(50, 1.0, 0.0), std::domain_error);
}

// Interval half-widths shrink as n grows: the property the sequential
// stopping rule relies on to terminate.
TEST(ConfidenceIntervals, HalfWidthShrinksWithN) {
  double prev_m = std::numeric_limits<double>::infinity();
  double prev_s = std::numeric_limits<double>::infinity();
  for (std::size_t n : {4u, 16u, 64u, 256u, 1024u}) {
    const double m = mean_confidence_interval(n, 0.0, 1.0).half_width();
    const double s = stddev_confidence_interval(n, 1.0).half_width();
    EXPECT_LT(m, prev_m) << n;
    EXPECT_LT(s, prev_s) << n;
    prev_m = m;
    prev_s = s;
  }
}

// The slot screen's band (DESIGN.md §16) reads its CI quantiles from a
// MomentIntervals solved once per (MC budget, confidence).  Every band
// must equal the free-function expression it replaced bit for bit —
// degenerate n and sigma included — and a bad confidence must still
// throw.
TEST(ConfidenceIntervals, HoistedBandMatchesFreeFunctionsBitForBit) {
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double confidence : {0.95, 0.5}) {
    for (const std::size_t n : {1u, 2u, 48u, 500u}) {
      const MomentIntervals ci(n, confidence);
      for (const double sigma : {0.0, nan, 1e-3, 0.05}) {
        SCOPED_TRACE("confidence " + std::to_string(confidence) + " n " +
                     std::to_string(n) + " sigma " + std::to_string(sigma));
        const Interval m = mean_confidence_interval(n, 0.0, sigma, confidence);
        const Interval s = stddev_confidence_interval(n, sigma, confidence);
        const Interval hm = ci.mean(0.0, sigma);
        const Interval hs = ci.stddev(sigma);
        EXPECT_EQ(bits(hm.lo), bits(m.lo));
        EXPECT_EQ(bits(hm.hi), bits(m.hi));
        EXPECT_EQ(bits(hs.lo), bits(s.lo));
        EXPECT_EQ(bits(hs.hi), bits(s.hi));
        // The band expression itself (band_scale 1.3, model error 2 ps).
        const double want =
            1.3 * (m.half_width() + 3.0 * s.half_width()) + 0.002;
        const double got =
            1.3 * (hm.half_width() + 3.0 * hs.half_width()) + 0.002;
        EXPECT_EQ(bits(got), bits(want));
      }
    }
  }
  for (const double bad : {0.0, 1.0, -0.5, 1.5, nan}) {
    EXPECT_THROW(MomentIntervals(48, bad), std::domain_error);
    EXPECT_THROW(MomentIntervals(1, bad), std::domain_error);
  }
}

TEST(Percentile, InterpolatesSorted) {
  std::vector<double> xs = {4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 0.5), 2.5);
  EXPECT_THROW(percentile({}, 0.5), std::invalid_argument);
  // A finite p outside [0, 1] clamps to the extremes; a NaN p has no
  // position in the data and throws instead of reaching the index cast.
  EXPECT_DOUBLE_EQ(percentile(xs, -0.5), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 1.5), 4.0);
  EXPECT_DOUBLE_EQ(percentile(xs, std::numeric_limits<double>::infinity()),
                   4.0);
  EXPECT_THROW(percentile(xs, std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
}

// Property: chi-squared SF is monotonically decreasing in x.
class ChiSqMonotone : public ::testing::TestWithParam<double> {};

TEST_P(ChiSqMonotone, DecreasingInX) {
  const double dof = GetParam();
  double prev = 1.0;
  for (double x = 0.0; x < 40.0; x += 0.7) {
    const double sf = chi_squared_sf(x, dof);
    EXPECT_LE(sf, prev + 1e-12);
    prev = sf;
  }
}

INSTANTIATE_TEST_SUITE_P(Dofs, ChiSqMonotone,
                         ::testing::Values(1.0, 2.0, 3.0, 5.0, 10.0, 25.0));

// ---- Welford merge vs single pass, cross-validated over many splits -------

TEST(RunningStats, MergeAgreesWithSinglePassForArbitrarySplits) {
  // The campaign layer leans on merge() being a faithful reduction; this
  // cross-validates Chan's pairwise update against the single-pass
  // accumulator over many random split points, with an ulp-scale
  // relative bound (merge is accurate, just not bit-invariant — that is
  // ExactMoments' job below).
  Rng rng(0x517a75);
  std::vector<double> xs(4096);
  for (double& x : xs) x = rng.normal(0.8, 2.5);

  RunningStats whole;
  for (const double x : xs) whole.add(x);

  Rng splits(99);
  for (int trial = 0; trial < 32; ++trial) {
    // 1..4 random cut points -> 2..5 segments merged left to right.
    std::vector<std::size_t> cuts = {0, xs.size()};
    const int k = 1 + static_cast<int>(splits.below(4));
    for (int c = 0; c < k; ++c) cuts.push_back(splits.below(xs.size()));
    std::sort(cuts.begin(), cuts.end());

    RunningStats merged;
    for (std::size_t s = 0; s + 1 < cuts.size(); ++s) {
      RunningStats seg;
      for (std::size_t i = cuts[s]; i < cuts[s + 1]; ++i) seg.add(xs[i]);
      merged.merge(seg);
    }
    EXPECT_EQ(merged.count(), whole.count());
    EXPECT_NEAR(merged.mean(), whole.mean(), 1e-12 * std::abs(whole.mean()));
    EXPECT_NEAR(merged.variance(), whole.variance(),
                1e-11 * whole.variance());
    EXPECT_DOUBLE_EQ(merged.min(), whole.min());
    EXPECT_DOUBLE_EQ(merged.max(), whole.max());
  }
}

// ---- ExactMoments: the partition-invariant campaign reducer ---------------

TEST(ExactMoments, MatchesRunningStatsWithinQuantizerResolution) {
  Rng rng(0xe8ac7);
  ExactMoments em;
  RunningStats rs;
  for (int i = 0; i < 2000; ++i) {
    const double x = rng.normal(5.0, 1.7);
    em.add(x);
    rs.add(x);
  }
  const double q = std::ldexp(1.0, -ExactMoments::kFracBits);
  EXPECT_EQ(em.count(), rs.count());
  EXPECT_NEAR(em.mean(), rs.mean(), q);
  EXPECT_NEAR(em.stddev(), rs.stddev(), 4.0 * q);
  EXPECT_DOUBLE_EQ(em.min(), rs.min());  // min/max are exact doubles
  EXPECT_DOUBLE_EQ(em.max(), rs.max());
}

TEST(ExactMoments, PartitionInvariantBitForBit) {
  // THE property the campaign determinism gate stands on: any partition
  // of the sample stream, merged in any order, reproduces the
  // single-pass accumulator state exactly — not approximately.
  Rng rng(0xbeef);
  std::vector<double> xs(3000);
  for (double& x : xs) x = rng.normal(-2.0, 40.0);

  ExactMoments whole;
  for (const double x : xs) whole.add(x);

  Rng splits(3);
  for (int trial = 0; trial < 24; ++trial) {
    std::vector<std::size_t> cuts = {0, xs.size()};
    for (int c = 0; c < 5; ++c) cuts.push_back(splits.below(xs.size()));
    std::sort(cuts.begin(), cuts.end());

    std::vector<ExactMoments> segs;
    for (std::size_t s = 0; s + 1 < cuts.size(); ++s) {
      ExactMoments seg;
      for (std::size_t i = cuts[s]; i < cuts[s + 1]; ++i) seg.add(xs[i]);
      segs.push_back(seg);
    }
    // Merge right-to-left — the adversarial order for a tree-shaped
    // floating-point reduction; exact integers don't care.
    ExactMoments merged;
    for (auto it = segs.rbegin(); it != segs.rend(); ++it) merged.merge(*it);
    EXPECT_TRUE(merged == whole) << "trial " << trial;
    EXPECT_TRUE(merged.state() == whole.state());
  }
}

TEST(ExactMoments, StateRoundTripsBitForBit) {
  ExactMoments em;
  for (const double x : {-1e5, 0.015625, 3.141592653589793, 7.5e-7}) em.add(x);
  const ExactMoments back = ExactMoments::from_state(em.state());
  EXPECT_TRUE(back == em);
  EXPECT_EQ(back.count(), em.count());
  EXPECT_DOUBLE_EQ(back.mean(), em.mean());
  EXPECT_DOUBLE_EQ(back.variance(), em.variance());
  EXPECT_DOUBLE_EQ(back.min(), em.min());
  EXPECT_DOUBLE_EQ(back.max(), em.max());
}

TEST(ExactMoments, SaturatesAndSanitizesOutOfDomainInputs) {
  // Quantization saturates at |x| = 2^(40-kFracBits); far-out samples
  // clamp instead of overflowing, and NaN deterministically counts as 0.
  const double cap = std::ldexp(1.0, 40 - ExactMoments::kFracBits);
  ExactMoments em;
  em.add(1e300);
  em.add(-1e300);
  EXPECT_EQ(em.count(), 2u);
  EXPECT_DOUBLE_EQ(em.mean(), 0.0);  // +cap and -cap cancel exactly
  EXPECT_NEAR(em.stddev(), cap * std::numbers::sqrt2, 1e-6 * cap);

  ExactMoments nan_case;
  nan_case.add(std::numeric_limits<double>::quiet_NaN());
  nan_case.add(2.0);
  EXPECT_EQ(nan_case.count(), 2u);
  EXPECT_DOUBLE_EQ(nan_case.mean(), 1.0);
  EXPECT_DOUBLE_EQ(nan_case.min(), 0.0);
  EXPECT_DOUBLE_EQ(nan_case.max(), 2.0);
}

TEST(ExactMoments, EmptyAndSingletonEdges) {
  ExactMoments em;
  EXPECT_EQ(em.count(), 0u);
  EXPECT_EQ(em.mean(), 0.0);
  EXPECT_EQ(em.variance(), 0.0);
  em.add(4.25);
  EXPECT_DOUBLE_EQ(em.mean(), 4.25);
  EXPECT_EQ(em.variance(), 0.0);  // n-1 denominator: undefined -> 0
  ExactMoments other;
  other.merge(em);  // merge into empty copies
  EXPECT_TRUE(other == em);
  em.merge(ExactMoments{});  // merge with empty is a no-op
  EXPECT_DOUBLE_EQ(em.mean(), 4.25);
}

}  // namespace
}  // namespace vipvt
