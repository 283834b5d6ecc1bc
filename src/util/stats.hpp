#pragma once
// Statistics toolkit for Monte-Carlo SSTA post-processing: running moments,
// histogramming, normal-distribution fitting and the chi-squared
// goodness-of-fit test the paper uses to validate normality of per-stage
// critical-path distributions (95 % confidence).

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace vipvt {

/// Welford-style single-pass accumulator for mean / variance / extrema.
/// This is the incremental backbone of the adaptive sequential-sampling
/// stopping rule (DESIGN.md §14): per-round confidence-interval checks
/// extend one accumulator per pipeline stage with ONLY the new round's
/// samples instead of re-fitting from scratch over everything drawn so
/// far (tests/test_util_stats.cpp proves the incremental moments match a
/// two-pass batch computation to ulp-scale tolerance).
class RunningStats {
 public:
  void add(double x);
  /// Extend with a whole span (per-round convenience; equivalent to
  /// add() per element, in order).
  void add(std::span<const double> xs);
  void merge(const RunningStats& other);

  std::size_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  /// Unbiased sample variance (n-1 denominator); 0 for fewer than 2 samples.
  double variance() const;
  double stddev() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Order- AND partition-invariant mergeable moment accumulator: the
/// campaign layer's cross-shard streaming reducer (DESIGN.md §15).
/// RunningStats::merge is ulp-accurate but NOT invariant to how a sample
/// set is split — the shape of the merge tree steers the floating-point
/// rounding — which would break the campaign contract that the final
/// report is byte-identical for any shard size.  ExactMoments instead
/// quantizes each sample to a 2^-20 fixed-point grid and accumulates
/// exact 128-bit integer sums of q and q², plus exact min/max, so add()
/// and merge() are fully commutative and associative: ANY partition of a
/// sample set, merged in any order or tree shape, reproduces the
/// single-pass accumulator bit-for-bit (tests/test_util_stats.cpp).
///
/// The price is the quantization: mean/variance are those of the
/// quantized samples (|mean error| <= 2^-21 absolute — fine for the
/// mW / GHz / ns-scale metrics it aggregates; not a general-purpose
/// statistic).  Exactness domain: |x| <= 2^20 (~1.05e6); larger finite
/// magnitudes saturate the per-sample quantizer deterministically (the
/// invariance properties survive, the moments are then clamped), and NaN
/// samples deterministically count as 0.0.  Sums stay exact past 2^40
/// samples at the saturation bound.
class ExactMoments {
 public:
  void add(double x);
  void merge(const ExactMoments& other);

  std::size_t count() const { return static_cast<std::size_t>(n_); }
  double mean() const;
  /// Unbiased sample variance of the quantized samples (n-1 denominator);
  /// 0 for fewer than 2 samples.
  double variance() const;
  double stddev() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }

  /// Exact serializable state: from_state(state()) reproduces the
  /// accumulator bit-for-bit (the campaign checkpoint records round-trip
  /// through this).  min/max travel as IEEE-754 bit patterns.
  struct State {
    std::uint64_t n = 0;
    std::int64_t sum_hi = 0;
    std::uint64_t sum_lo = 0;
    std::int64_t sumsq_hi = 0;
    std::uint64_t sumsq_lo = 0;
    std::uint64_t min_bits = 0;
    std::uint64_t max_bits = 0;
    bool operator==(const State&) const = default;
  };
  State state() const;
  static ExactMoments from_state(const State& s);

  bool operator==(const ExactMoments& other) const {
    return state() == other.state();
  }

  /// Fixed-point resolution of the quantizer (2^-20 ~ 1e-6).
  static constexpr int kFracBits = 20;

 private:
  __int128 sum_ = 0;    ///< Σ quantize(x)
  __int128 sumsq_ = 0;  ///< Σ quantize(x)²
  std::uint64_t n_ = 0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Fixed-width histogram over [lo, hi); out-of-range samples clamp to the
/// edge bins so mass is never lost (matters for chi-squared bin counts).
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x);
  std::size_t bin_count(std::size_t i) const { return counts_.at(i); }
  std::size_t bins() const { return counts_.size(); }
  std::size_t total() const { return total_; }
  double bin_lo(std::size_t i) const;
  double bin_hi(std::size_t i) const;
  double bin_center(std::size_t i) const;

  /// Normalised density of bin i (integrates to ~1 over the range).
  double density(std::size_t i) const;

  /// Render a horizontal ASCII bar chart (for bench/figure output).
  std::string ascii(std::size_t max_width = 60) const;

 private:
  double lo_, hi_, width_;
  std::vector<std::size_t> counts_;
  std::size_t total_ = 0;
};

/// Standard normal CDF.
double normal_cdf(double z);
/// CDF of N(mean, stddev^2) at x.
double normal_cdf(double x, double mean, double stddev);
/// Standard normal PDF.
double normal_pdf(double z);
/// Inverse standard normal CDF (Acklam's rational approximation,
/// refined with one Halley step; |error| < 1e-12 over (0,1)).
double normal_quantile(double p);

/// Regularised upper incomplete gamma Q(a, x) — used for the chi-squared
/// survival function.
double gamma_q(double a, double x);
/// Chi-squared survival function P(X >= x) with k degrees of freedom.
double chi_squared_sf(double x, double k);
/// Chi-squared quantile: the x with CDF(x; k) == p, p in (0,1), k > 0.
/// (Monotone bracketed bisection on 1 - chi_squared_sf; throws
/// std::domain_error outside the domain.)
double chi_squared_quantile(double p, double k);

/// Student-t CDF with `dof` degrees of freedom (via the regularised
/// incomplete beta function; any real dof > 0).
double student_t_cdf(double t, double dof);
/// Student-t quantile: the t with CDF(t; dof) == p, p in (0,1).
double student_t_quantile(double p, double dof);

// ---- confidence intervals for normal-sample moments -----------------------
//
// The adaptive sequential-sampling stopping rule (DESIGN.md §14) watches
// these two intervals per pipeline stage and stops the Monte-Carlo run
// when both half-widths meet their targets.  Degenerate inputs follow
// the fit_normal hardening conventions: they report rather than throw.

/// A two-sided interval.  half_width() is the stopping-rule metric.
struct Interval {
  double lo = 0.0;
  double hi = 0.0;
  double half_width() const { return 0.5 * (hi - lo); }
};

/// Two-sided CI on the mean of a normal sample at `confidence`
/// (Student-t):  mean ± t_{(1+c)/2, n-1} · s/√n.
///   n < 2            → infinite interval (nothing is known yet);
///   stddev == 0      → zero-width interval at the point estimate;
///   NaN mean/stddev  → NaN interval (never satisfies a target).
/// Throws std::domain_error for confidence outside (0,1).
Interval mean_confidence_interval(std::size_t n, double mean, double stddev,
                                  double confidence = 0.95);

/// Two-sided CI on the standard deviation at `confidence` (the χ²
/// interval):  [ s·√((n−1)/χ²_{(1+c)/2}), s·√((n−1)/χ²_{(1−c)/2}) ].
/// Degenerate handling mirrors mean_confidence_interval (n < 2 → [0, ∞)).
Interval stddev_confidence_interval(std::size_t n, double stddev,
                                    double confidence = 0.95);

/// mean_confidence_interval and stddev_confidence_interval for many
/// estimates from samples of one size n at one confidence: the Student-t
/// and χ² quantiles — three bisections — are computed once, here, and
/// every interval after that is bit-identical to the free function's for
/// the same arguments.  For callers that evaluate many stddevs at one
/// (n, confidence), like the slot screen's bands (DESIGN.md §16).
class MomentIntervals {
 public:
  /// Throws std::domain_error for confidence outside (0,1).
  MomentIntervals(std::size_t n, double confidence);
  /// == mean_confidence_interval(n, mean, stddev, confidence).
  Interval mean(double mean, double stddev) const;
  /// == stddev_confidence_interval(n, stddev, confidence).
  Interval stddev(double stddev) const;

 private:
  std::size_t n_;
  double t_ = 0.0;       ///< t_{(1+c)/2, n-1}
  double sqrt_n_ = 0.0;  ///< √n
  double lo_ = 0.0;      ///< √((n−1)/χ²_{(1+c)/2})
  double hi_ = 0.0;      ///< √((n−1)/χ²_{(1−c)/2})
};

/// Result of fitting samples to a normal distribution and testing the fit.
struct NormalFit {
  double mean = 0.0;
  double stddev = 0.0;
  double chi2 = 0.0;        ///< chi-squared statistic over the test bins
  double dof = 0.0;         ///< degrees of freedom (bins - 1 - 2 params)
  double p_value = 1.0;     ///< survival probability of the statistic
  bool accepted = false;    ///< true if fit not rejected at `confidence`
  std::size_t bins_used = 0;
};

/// Fit samples to a normal and run a chi-squared goodness-of-fit test at
/// the given confidence level (paper: 0.95).  Bins with small expected
/// counts are pooled into their neighbours, the standard practice for the
/// test's validity.
NormalFit fit_normal(std::span<const double> samples, double confidence = 0.95);

/// p-th percentile (p in [0,1]) by linear interpolation of the sorted data.
/// A p outside [0, 1] clamps; empty data or a NaN p throws
/// std::invalid_argument.
double percentile(std::vector<double> samples, double p);

}  // namespace vipvt
