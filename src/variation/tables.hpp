#pragma once
// Piecewise-linear delay_factor(Lgate) tables per (supply corner, Vth
// class) for the batched draw profile.  The exact factor is a quotient of
// two alpha-power evaluations (pow + exp per call); over the clamped
// +/- clamp_sigma Lgate range it is smooth and nearly linear, so a few
// hundred knots reproduce it to ~1e-7 relative — far below the 6.5 %
// process sigma being modeled.  The builder measures the actual max
// relative error against the exact quotient on a refinement grid and
// stores it; tests assert the bound, callers can surface it.
//
// The table row for (corner, class) is laid out as interleaved
// (value, slope) pairs so the hot loop touches one contiguous row.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "liberty/cell.hpp"
#include "liberty/physics.hpp"
#include "util/simd/kernels.hpp"

namespace vipvt {

class DelayFactorTables {
 public:
  DelayFactorTables() = default;  ///< unbuilt; eval() is invalid

  /// Build over [lo_nm, hi_nm] with `intervals` linear segments per row.
  /// Knot values use CharParams::raw_delay_fast (the Lgate*sqrt(Lgate)
  /// form); the error measurement compares against the exact pow-based
  /// delay_factor quotient.
  DelayFactorTables(const CharParams& cp, double lo_nm, double hi_nm,
                    int intervals = 512);

  bool built() const { return !coef_.empty(); }
  double lo_nm() const { return lo_; }
  double hi_nm() const { return lo_ + step_ * intervals_; }
  int intervals() const { return intervals_; }

  /// Measured max |table - exact| / exact over all rows, on a grid 4x
  /// finer than the knots (plus the knots themselves).
  double max_rel_error() const { return max_rel_error_; }

  static constexpr int kRows = 2 * kNumVthClasses;
  static int row(int corner, VthClass vth) {
    return (corner == kVddHigh ? 1 : 0) * kNumVthClasses +
           static_cast<int>(vth);
  }
  /// The supply corner and Vth class of row r: row()'s inverse.
  static int row_corner(int r) {
    return r >= kNumVthClasses ? kVddHigh : kVddLow;
  }
  static VthClass row_vth(int r) {
    return static_cast<VthClass>(r % kNumVthClasses);
  }

  const double* row_data(int r) const {
    return &coef_[static_cast<std::size_t>(r) * 2 *
                  static_cast<std::size_t>(intervals_)];
  }

  /// Evaluate one row at `lgate_nm`, clamping to the table range: past
  /// either end (±inf included) the edge segment extrapolates, and NaN
  /// stays NaN.  The row pointer form lets the per-instance batch loop
  /// hoist the row lookup out of its lane loop.
  double eval_row(const double* row_coef, double lgate_nm) const {
    const int j = segment(lgate_nm);
    const double t = lgate_nm - (lo_ + static_cast<double>(j) * step_);
    return row_coef[2 * j] + row_coef[2 * j + 1] * t;
  }

  double eval(double lgate_nm, int corner, VthClass vth) const {
    return eval_row(row_data(row(corner, vth)), lgate_nm);
  }

  /// The rows as the fused BatchedSimd draw kernel reads them
  /// (util/simd/kernels.hpp): its table step is eval_row, bit-for-bit.
  simd::FactorTable kernel_table() const {
    return {coef_.data(), 2 * intervals_, intervals_, lo_, step_, inv_step_};
  }

  /// Evaluate one row at `lgate_nm` and also report the segment slope
  /// d(factor)/d(Lgate) [1/nm] — the exact derivative of the
  /// piecewise-linear surrogate on the clamped segment, which is what
  /// the canonical SSTA linearization (DESIGN.md §16) uses as the
  /// per-gate delay sensitivity around the systematic operating point.
  /// The value is bitwise identical to eval_row() on the same inputs.
  double eval_row_slope(const double* row_coef, double lgate_nm,
                        double* slope_per_nm) const {
    const int j = segment(lgate_nm);
    const double t = lgate_nm - (lo_ + static_cast<double>(j) * step_);
    *slope_per_nm = row_coef[2 * j + 1];
    return row_coef[2 * j] + row_coef[2 * j + 1] * t;
  }

  /// Factor brackets of the lazily exact compensation (DESIGN.md §21).
  /// The exact delay_factor is strictly increasing in Lgate (Lgate^1.5
  /// rises, the DIBL overdrive falls), so the stored knot values around
  /// an Lgate bound its exact factor.  bracket_knot() is the knot index j
  /// of the segment holding `lgate_nm` when knots j-1 and j+2 are both
  /// stored (1 <= j <= intervals - 3), else -1: Lgates outside those
  /// knots, ±inf and NaN take the exact path.  The neighbours one knot
  /// out absorb a segment index that rounding moved across a knot.
  int bracket_knot(double lgate_nm) const {
    const double x = (lgate_nm - lo_) * inv_step_;
    if (!(x >= 1.0 && x < static_cast<double>(intervals_ - 2))) return -1;
    return static_cast<int>(x);
  }

  /// Relative widening of every bracket: the knot values and the exact
  /// quotient each sit within ~10 ulp of the real function under any
  /// libm whose exp and pow are accurate to 1 ulp; 1e-12 is ~4500 ulp.
  static constexpr double kBracketMargin = 1e-12;

  struct Bracket {
    double lo = 0.0;
    double hi = 0.0;
  };
  /// [v(L_{j-1}) (1 - margin), v(L_{j+2}) (1 + margin)] on row r, for a
  /// knot j = bracket_knot(lgate) >= 0: contains the exact factor of
  /// that row at that Lgate.
  Bracket bracket(int r, int j) const {
    const double* rc = row_data(r);
    return {rc[2 * (j - 1)] * (1.0 - kBracketMargin),
            rc[2 * (j + 2)] * (1.0 + kBracketMargin)};
  }

 private:
  /// Segment index of `lgate_nm`, in [0, intervals - 1].  x is bounded
  /// BEFORE the int conversion (NaN maps to segment 0), so an input far
  /// outside the table, infinite or NaN never converts an out-of-range
  /// double; inside the range the segment is trunc(x), as the SIMD draw
  /// kernel computes it.
  int segment(double lgate_nm) const {
    double x = (lgate_nm - lo_) * inv_step_;
    if (!(x >= 0.0)) x = 0.0;
    const double last = static_cast<double>(intervals_ - 1);
    if (x > last) x = last;
    return static_cast<int>(x);
  }

  double lo_ = 0.0;
  double step_ = 0.0;
  double inv_step_ = 0.0;
  int intervals_ = 0;
  double max_rel_error_ = 0.0;
  std::vector<double> coef_;  // kRows x intervals x (value, slope)
};

}  // namespace vipvt
