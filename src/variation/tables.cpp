#include "variation/tables.hpp"

#include <cmath>
#include <stdexcept>

namespace vipvt {

DelayFactorTables::DelayFactorTables(const CharParams& cp, double lo_nm,
                                     double hi_nm, int intervals) {
  if (!(hi_nm > lo_nm) || intervals < 2) {
    throw std::invalid_argument("DelayFactorTables: degenerate range");
  }
  lo_ = lo_nm;
  intervals_ = intervals;
  step_ = (hi_nm - lo_nm) / intervals;
  inv_step_ = 1.0 / step_;
  coef_.resize(static_cast<std::size_t>(kRows) * 2 *
               static_cast<std::size_t>(intervals_));

  for (int corner : {kVddLow, kVddHigh}) {
    const double vdd = corner == kVddHigh ? cp.vdd_high : cp.vdd_low;
    for (int v = 0; v < kNumVthClasses; ++v) {
      const double vth0c = cp.vth0_of(static_cast<VthClass>(v));
      // Same exact denominator as the scalar path's cached one, so both
      // profiles target the identical normalization.
      const double denom = cp.raw_delay(cp.lgate_nom, vdd, vth0c);
      const int r = row(corner, static_cast<VthClass>(v));
      double* rc = &coef_[static_cast<std::size_t>(r) * 2 *
                          static_cast<std::size_t>(intervals_)];
      double v0 = cp.raw_delay_fast(lo_, vdd, vth0c) / denom;
      for (int j = 0; j < intervals_; ++j) {
        const double x1 = lo_ + static_cast<double>(j + 1) * step_;
        const double v1 = cp.raw_delay_fast(x1, vdd, vth0c) / denom;
        rc[2 * j] = v0;
        rc[2 * j + 1] = (v1 - v0) * inv_step_;
        v0 = v1;
      }
    }
  }

  // Measure the real worst case against the exact quotient: 4 probes per
  // interval plus the endpoints.  Knots themselves are off the exact
  // curve by the raw_delay_fast-vs-pow ulp, so they are probed too.
  const int probes = 4 * intervals_;
  for (int corner : {kVddLow, kVddHigh}) {
    const double vdd = corner == kVddHigh ? cp.vdd_high : cp.vdd_low;
    for (int v = 0; v < kNumVthClasses; ++v) {
      const double vth0c = cp.vth0_of(static_cast<VthClass>(v));
      const double denom = cp.raw_delay(cp.lgate_nom, vdd, vth0c);
      const double* rc = row_data(row(corner, static_cast<VthClass>(v)));
      for (int g = 0; g <= probes; ++g) {
        const double l =
            lo_ + (hi_nm - lo_nm) * static_cast<double>(g) / probes;
        const double exact = cp.raw_delay(l, vdd, vth0c) / denom;
        const double err = std::abs(eval_row(rc, l) - exact) / exact;
        if (err > max_rel_error_) max_rel_error_ = err;
      }
    }
  }
}

}  // namespace vipvt
