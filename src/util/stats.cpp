#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numbers>
#include <sstream>
#include <stdexcept>

namespace vipvt {

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void RunningStats::add(std::span<const double> xs) {
  for (double x : xs) add(x);
}

void RunningStats::merge(const RunningStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const auto na = static_cast<double>(n_);
  const auto nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  n_ += other.n_;
}

double RunningStats::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

namespace {

// Deterministic fixed-point quantizer of ExactMoments: round-half-away
// from zero at 2^-kFracBits resolution, saturating at |q| = 2^40 (so q²
// <= 2^80 and the 128-bit sums stay exact past 2^40 samples).  NaN maps
// to 0 so a poisoned metric cannot make the reduction order-sensitive.
constexpr std::int64_t kQuantMax = std::int64_t{1} << 40;

std::int64_t quantize(double x) {
  if (std::isnan(x)) return 0;
  const double scaled = x * static_cast<double>(std::int64_t{1}
                                               << ExactMoments::kFracBits);
  if (scaled >= static_cast<double>(kQuantMax)) return kQuantMax;
  if (scaled <= -static_cast<double>(kQuantMax)) return -kQuantMax;
  return std::llround(scaled);
}

double int128_to_double(__int128 v) { return static_cast<double>(v); }

}  // namespace

void ExactMoments::add(double x) {
  const double v = std::isnan(x) ? 0.0 : x;
  if (n_ == 0) {
    min_ = max_ = v;
  } else {
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }
  ++n_;
  const __int128 q = quantize(x);
  sum_ += q;
  sumsq_ += q * q;
}

void ExactMoments::merge(const ExactMoments& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  n_ += other.n_;
  sum_ += other.sum_;
  sumsq_ += other.sumsq_;
}

double ExactMoments::mean() const {
  if (n_ == 0) return 0.0;
  return int128_to_double(sum_) / static_cast<double>(n_) /
         static_cast<double>(std::int64_t{1} << kFracBits);
}

double ExactMoments::variance() const {
  if (n_ < 2) return 0.0;
  // Computed in doubles FROM the exact integer state, so it is a pure
  // function of the (partition-invariant) sums — deterministic even
  // though the arithmetic here rounds.
  const auto n = static_cast<double>(n_);
  const double s1 = int128_to_double(sum_);
  const double s2 = int128_to_double(sumsq_);
  const double scale = static_cast<double>(std::int64_t{1} << kFracBits);
  const double var = (s2 - s1 * (s1 / n)) / (n - 1.0) / (scale * scale);
  return std::max(var, 0.0);
}

double ExactMoments::stddev() const { return std::sqrt(variance()); }

ExactMoments::State ExactMoments::state() const {
  State s;
  s.n = n_;
  s.sum_hi = static_cast<std::int64_t>(sum_ >> 64);
  s.sum_lo = static_cast<std::uint64_t>(sum_);
  s.sumsq_hi = static_cast<std::int64_t>(sumsq_ >> 64);
  s.sumsq_lo = static_cast<std::uint64_t>(sumsq_);
  std::uint64_t bits;
  static_assert(sizeof bits == sizeof min_);
  std::memcpy(&bits, &min_, sizeof bits);
  s.min_bits = bits;
  std::memcpy(&bits, &max_, sizeof bits);
  s.max_bits = bits;
  return s;
}

ExactMoments ExactMoments::from_state(const State& s) {
  ExactMoments m;
  m.n_ = s.n;
  m.sum_ = (static_cast<__int128>(s.sum_hi) << 64) |
           static_cast<unsigned __int128>(s.sum_lo);
  m.sumsq_ = (static_cast<__int128>(s.sumsq_hi) << 64) |
             static_cast<unsigned __int128>(s.sumsq_lo);
  std::memcpy(&m.min_, &s.min_bits, sizeof m.min_);
  std::memcpy(&m.max_, &s.max_bits, sizeof m.max_);
  return m;
}

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), width_((hi - lo) / static_cast<double>(bins)),
      counts_(bins, 0) {
  if (!(hi > lo) || bins == 0) {
    throw std::invalid_argument("Histogram: need hi > lo and bins > 0");
  }
}

void Histogram::add(double x) {
  auto idx = static_cast<std::ptrdiff_t>((x - lo_) / width_);
  idx = std::clamp<std::ptrdiff_t>(idx, 0,
                                   static_cast<std::ptrdiff_t>(counts_.size()) - 1);
  ++counts_[static_cast<std::size_t>(idx)];
  ++total_;
}

double Histogram::bin_lo(std::size_t i) const {
  return lo_ + width_ * static_cast<double>(i);
}
double Histogram::bin_hi(std::size_t i) const { return bin_lo(i) + width_; }
double Histogram::bin_center(std::size_t i) const {
  return bin_lo(i) + width_ * 0.5;
}

double Histogram::density(std::size_t i) const {
  if (total_ == 0) return 0.0;
  return static_cast<double>(counts_.at(i)) /
         (static_cast<double>(total_) * width_);
}

std::string Histogram::ascii(std::size_t max_width) const {
  std::size_t peak = 1;
  for (auto c : counts_) peak = std::max(peak, c);
  std::ostringstream out;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const auto bar = counts_[i] * max_width / peak;
    out.setf(std::ios::fixed);
    out.precision(4);
    out << bin_center(i) << " |" << std::string(bar, '#') << " "
        << counts_[i] << "\n";
  }
  return out.str();
}

double normal_cdf(double z) { return 0.5 * std::erfc(-z / std::numbers::sqrt2); }

double normal_cdf(double x, double mean, double stddev) {
  return normal_cdf((x - mean) / stddev);
}

double normal_pdf(double z) {
  return std::exp(-0.5 * z * z) / std::sqrt(2.0 * std::numbers::pi);
}

double normal_quantile(double p) {
  if (!(p > 0.0 && p < 1.0)) {
    throw std::domain_error("normal_quantile: p must be in (0,1)");
  }
  // Acklam's rational approximation.
  static constexpr double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                                 -2.759285104469687e+02, 1.383577518672690e+02,
                                 -3.066479806614716e+01, 2.506628277459239e+00};
  static constexpr double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                                 -1.556989798598866e+02, 6.680131188771972e+01,
                                 -1.328068155288572e+01};
  static constexpr double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                                 -2.400758277161838e+00, -2.549732539343734e+00,
                                 4.374664141464968e+00,  2.938163982698783e+00};
  static constexpr double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                                 2.445134137142996e+00, 3.754408661907416e+00};
  constexpr double p_low = 0.02425;
  double x;
  if (p < p_low) {
    const double q = std::sqrt(-2.0 * std::log(p));
    x = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
        ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  } else if (p <= 1.0 - p_low) {
    const double q = p - 0.5;
    const double r = q * q;
    x = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) *
        q /
        (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
  } else {
    const double q = std::sqrt(-2.0 * std::log(1.0 - p));
    x = -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
        ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  // One Halley refinement step using the exact CDF.
  const double e = normal_cdf(x) - p;
  const double u = e * std::sqrt(2.0 * std::numbers::pi) * std::exp(0.5 * x * x);
  x -= u / (1.0 + 0.5 * x * u);
  return x;
}

namespace {

// Lanczos log-gamma (g = 7, n = 9), accurate to ~1e-13 for a > 0.
double log_gamma(double a) {
  static constexpr double coeff[] = {
      0.99999999999980993,  676.5203681218851,   -1259.1392167224028,
      771.32342877765313,   -176.61502916214059, 12.507343278686905,
      -0.13857109526572012, 9.9843695780195716e-6, 1.5056327351493116e-7};
  const double x = a - 1.0;
  double sum = coeff[0];
  for (int i = 1; i < 9; ++i) sum += coeff[i] / (x + static_cast<double>(i));
  const double t = x + 7.5;
  return 0.5 * std::log(2.0 * std::numbers::pi) + (x + 0.5) * std::log(t) - t +
         std::log(sum);
}

// Regularised lower incomplete gamma via series (x < a+1).
double gamma_p_series(double a, double x) {
  double sum = 1.0 / a;
  double term = sum;
  for (int n = 1; n < 500; ++n) {
    term *= x / (a + static_cast<double>(n));
    sum += term;
    if (std::abs(term) < std::abs(sum) * 1e-15) break;
  }
  return sum * std::exp(-x + a * std::log(x) - log_gamma(a));
}

// Regularised upper incomplete gamma via continued fraction (x >= a+1).
double gamma_q_cf(double a, double x) {
  constexpr double tiny = 1e-300;
  double b = x + 1.0 - a;
  double c = 1.0 / tiny;
  double d = 1.0 / b;
  double h = d;
  for (int i = 1; i < 500; ++i) {
    const double an = -static_cast<double>(i) * (static_cast<double>(i) - a);
    b += 2.0;
    d = an * d + b;
    if (std::abs(d) < tiny) d = tiny;
    c = b + an / c;
    if (std::abs(c) < tiny) c = tiny;
    d = 1.0 / d;
    const double delta = d * c;
    h *= delta;
    if (std::abs(delta - 1.0) < 1e-15) break;
  }
  return h * std::exp(-x + a * std::log(x) - log_gamma(a));
}

}  // namespace

double gamma_q(double a, double x) {
  if (x < 0.0 || a <= 0.0) {
    throw std::domain_error("gamma_q: require x >= 0 and a > 0");
  }
  if (x == 0.0) return 1.0;
  if (x < a + 1.0) return 1.0 - gamma_p_series(a, x);
  return gamma_q_cf(a, x);
}

double chi_squared_sf(double x, double k) { return gamma_q(k / 2.0, x / 2.0); }

namespace {

// Regularised incomplete beta I_x(a, b) via the Lentz continued fraction;
// the symmetry transform keeps the fraction in its fast-converging half.
double beta_inc(double a, double b, double x) {
  if (x <= 0.0) return 0.0;
  if (x >= 1.0) return 1.0;
  if (x > (a + 1.0) / (a + b + 2.0)) return 1.0 - beta_inc(b, a, 1.0 - x);
  const double ln_front = a * std::log(x) + b * std::log1p(-x) -
                          (log_gamma(a) + log_gamma(b) - log_gamma(a + b));
  constexpr double tiny = 1e-300;
  double c = 1.0;
  double d = 1.0 - (a + b) * x / (a + 1.0);
  if (std::abs(d) < tiny) d = tiny;
  d = 1.0 / d;
  double h = d;
  for (int m = 1; m < 500; ++m) {
    const auto dm = static_cast<double>(m);
    // Even step.
    double num = dm * (b - dm) * x / ((a + 2.0 * dm - 1.0) * (a + 2.0 * dm));
    d = 1.0 + num * d;
    if (std::abs(d) < tiny) d = tiny;
    c = 1.0 + num / c;
    if (std::abs(c) < tiny) c = tiny;
    d = 1.0 / d;
    h *= d * c;
    // Odd step.
    num = -(a + dm) * (a + b + dm) * x /
          ((a + 2.0 * dm) * (a + 2.0 * dm + 1.0));
    d = 1.0 + num * d;
    if (std::abs(d) < tiny) d = tiny;
    c = 1.0 + num / c;
    if (std::abs(c) < tiny) c = tiny;
    d = 1.0 / d;
    const double delta = d * c;
    h *= delta;
    if (std::abs(delta - 1.0) < 1e-15) break;
  }
  return std::exp(ln_front) * h / a;
}

// Bracketed bisection for a monotonically increasing cdf; the intervals
// these feed are stopping-rule thresholds, so plain robust bisection
// (~1 ulp of interval width after 200 halvings) beats a Newton iteration
// that could escape the bracket near the tails.
template <typename Cdf>
double invert_cdf(const Cdf& cdf, double p, double lo, double hi) {
  for (int i = 0; i < 200 && lo < hi; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (mid <= lo || mid >= hi) break;  // interval collapsed to 1 ulp
    (cdf(mid) < p ? lo : hi) = mid;
  }
  return 0.5 * (lo + hi);
}

}  // namespace

double chi_squared_quantile(double p, double k) {
  if (!(p > 0.0 && p < 1.0) || !(k > 0.0)) {
    throw std::domain_error("chi_squared_quantile: need p in (0,1), k > 0");
  }
  // Bracket above the mean + tail; expand until the CDF straddles p.
  double hi = k + 10.0 * std::sqrt(2.0 * k) + 10.0;
  while (1.0 - chi_squared_sf(hi, k) < p) hi *= 2.0;
  return invert_cdf([k](double x) { return 1.0 - chi_squared_sf(x, k); }, p,
                    0.0, hi);
}

double student_t_cdf(double t, double dof) {
  if (!(dof > 0.0)) throw std::domain_error("student_t_cdf: need dof > 0");
  if (std::isnan(t)) return std::numeric_limits<double>::quiet_NaN();
  const double x = dof / (dof + t * t);
  const double tail = 0.5 * beta_inc(0.5 * dof, 0.5, x);
  return t >= 0.0 ? 1.0 - tail : tail;
}

double student_t_quantile(double p, double dof) {
  if (!(p > 0.0 && p < 1.0) || !(dof > 0.0)) {
    throw std::domain_error("student_t_quantile: need p in (0,1), dof > 0");
  }
  if (p == 0.5) return 0.0;
  // Symmetry: solve in the upper half and mirror.
  if (p < 0.5) return -student_t_quantile(1.0 - p, dof);
  // Heavy tails at low dof: expand the bracket multiplicatively.
  double hi = 2.0 + std::abs(normal_quantile(p)) * 4.0;
  while (student_t_cdf(hi, dof) < p && hi < 1e300) hi *= 4.0;
  return invert_cdf([dof](double t) { return student_t_cdf(t, dof); }, p, 0.0,
                    hi);
}

Interval mean_confidence_interval(std::size_t n, double mean, double stddev,
                                  double confidence) {
  if (!(confidence > 0.0 && confidence < 1.0)) {
    throw std::domain_error("mean_confidence_interval: confidence in (0,1)");
  }
  constexpr double inf = std::numeric_limits<double>::infinity();
  if (std::isnan(mean) || std::isnan(stddev)) {
    const double nan = std::numeric_limits<double>::quiet_NaN();
    return {nan, nan};
  }
  if (n < 2) return {-inf, inf};
  if (stddev == 0.0) return {mean, mean};
  const double t =
      student_t_quantile(0.5 * (1.0 + confidence), static_cast<double>(n - 1));
  const double hw = t * stddev / std::sqrt(static_cast<double>(n));
  return {mean - hw, mean + hw};
}

Interval stddev_confidence_interval(std::size_t n, double stddev,
                                    double confidence) {
  if (!(confidence > 0.0 && confidence < 1.0)) {
    throw std::domain_error("stddev_confidence_interval: confidence in (0,1)");
  }
  if (std::isnan(stddev)) {
    const double nan = std::numeric_limits<double>::quiet_NaN();
    return {nan, nan};
  }
  if (n < 2) return {0.0, std::numeric_limits<double>::infinity()};
  if (stddev == 0.0) return {0.0, 0.0};
  const double df = static_cast<double>(n - 1);
  const double chi_hi = chi_squared_quantile(0.5 * (1.0 + confidence), df);
  const double chi_lo = chi_squared_quantile(0.5 * (1.0 - confidence), df);
  return {stddev * std::sqrt(df / chi_hi), stddev * std::sqrt(df / chi_lo)};
}

MomentIntervals::MomentIntervals(std::size_t n, double confidence) : n_(n) {
  if (!(confidence > 0.0 && confidence < 1.0)) {
    throw std::domain_error("MomentIntervals: confidence in (0,1)");
  }
  if (n < 2) return;  // the intervals are degenerate; no quantile needed
  const double df = static_cast<double>(n - 1);
  t_ = student_t_quantile(0.5 * (1.0 + confidence), df);
  sqrt_n_ = std::sqrt(static_cast<double>(n));
  lo_ = std::sqrt(df / chi_squared_quantile(0.5 * (1.0 + confidence), df));
  hi_ = std::sqrt(df / chi_squared_quantile(0.5 * (1.0 - confidence), df));
}

// The two methods repeat the free functions' branches and arithmetic
// operation for operation, with the quantiles read instead of solved.
Interval MomentIntervals::mean(double mean, double stddev) const {
  constexpr double inf = std::numeric_limits<double>::infinity();
  if (std::isnan(mean) || std::isnan(stddev)) {
    const double nan = std::numeric_limits<double>::quiet_NaN();
    return {nan, nan};
  }
  if (n_ < 2) return {-inf, inf};
  if (stddev == 0.0) return {mean, mean};
  const double hw = t_ * stddev / sqrt_n_;
  return {mean - hw, mean + hw};
}

Interval MomentIntervals::stddev(double stddev) const {
  if (std::isnan(stddev)) {
    const double nan = std::numeric_limits<double>::quiet_NaN();
    return {nan, nan};
  }
  if (n_ < 2) return {0.0, std::numeric_limits<double>::infinity()};
  if (stddev == 0.0) return {0.0, 0.0};
  return {stddev * lo_, stddev * hi_};
}

NormalFit fit_normal(std::span<const double> samples, double confidence) {
  NormalFit fit;
  RunningStats rs;
  bool finite = true;
  for (double s : samples) {
    finite = finite && std::isfinite(s);
    rs.add(s);
  }
  if (!finite) {
    // Propagate rather than throw: near-empty or corrupted bins (e.g. a
    // wafer speed bin whose dies all failed analysis) report NaN moments
    // and an unaccepted fit instead of aborting the batch.
    fit.mean = std::numeric_limits<double>::quiet_NaN();
    fit.stddev = std::numeric_limits<double>::quiet_NaN();
    fit.p_value = 0.0;
    fit.accepted = false;
    return fit;
  }
  fit.mean = rs.mean();
  fit.stddev = rs.stddev();
  if (samples.size() < 8 || fit.stddev <= 0.0) {
    // Too few samples (or degenerate data) to test; report the moments and
    // leave the test conservatively unaccepted unless data is degenerate-
    // normal (all equal), which we treat as trivially accepted.
    fit.accepted = fit.stddev == 0.0;
    return fit;
  }

  // Bin over mean +/- 4 sigma using ~sqrt(n) bins, the usual rule of thumb.
  const auto raw_bins =
      std::max<std::size_t>(6, static_cast<std::size_t>(
                                   std::sqrt(static_cast<double>(samples.size()))));
  Histogram h(fit.mean - 4.0 * fit.stddev, fit.mean + 4.0 * fit.stddev,
              raw_bins);
  for (double s : samples) h.add(s);

  // Pool adjacent bins until each pooled bin has expected count >= 5.
  const auto n = static_cast<double>(samples.size());
  double chi2 = 0.0;
  std::size_t pooled_bins = 0;
  double obs_acc = 0.0;
  double exp_acc = 0.0;
  double lower_cdf = 0.0;  // CDF below the histogram range folds into bin 0
  for (std::size_t i = 0; i < h.bins(); ++i) {
    const double cdf_hi = (i + 1 == h.bins())
                              ? 1.0  // top bin absorbs the upper tail
                              : normal_cdf(h.bin_hi(i), fit.mean, fit.stddev);
    const double expected = n * (cdf_hi - lower_cdf);
    lower_cdf = cdf_hi;
    obs_acc += static_cast<double>(h.bin_count(i));
    exp_acc += expected;
    const bool last = (i + 1 == h.bins());
    if (exp_acc >= 5.0 || last) {
      if (exp_acc > 0.0) {
        const double diff = obs_acc - exp_acc;
        chi2 += diff * diff / exp_acc;
        ++pooled_bins;
      }
      obs_acc = 0.0;
      exp_acc = 0.0;
    }
  }

  fit.chi2 = chi2;
  fit.bins_used = pooled_bins;
  // dof = bins - 1 - (two estimated parameters).
  fit.dof = std::max(1.0, static_cast<double>(pooled_bins) - 3.0);
  fit.p_value = chi_squared_sf(chi2, fit.dof);
  fit.accepted = fit.p_value > (1.0 - confidence);
  return fit;
}

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) throw std::invalid_argument("percentile: empty data");
  // std::clamp passes NaN through, and NaN reaches the index cast below.
  if (std::isnan(p)) throw std::invalid_argument("percentile: p is NaN");
  p = std::clamp(p, 0.0, 1.0);
  std::sort(samples.begin(), samples.end());
  const double pos = p * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const auto hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] * (1.0 - frac) + samples[hi] * frac;
}

}  // namespace vipvt
