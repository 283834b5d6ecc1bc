#pragma once
// Device-physics models shared by library characterization, the variation
// engine and the power engine.  These are exactly the models the paper
// builds on:
//
//   Delay (Orshansky et al., paper Eq. 3):
//       D ~ Lgate^1.5 * Vdd / (Vdd - Vth)^alpha            alpha = 1.3
//
//   DIBL threshold shift (Cao & Clark, paper Eq. 4):
//       Vth_eff = Vth0 - Vdd * exp(-alpha_DIBL * Leff)     Vth0 = 0.22 V
//
// The paper quotes alpha_DIBL = 0.15 with Leff in unspecified normalized
// units; we express Leff in nanometres and rescale the coefficient to
// 0.045 /nm so that the DIBL term at the 65 nm nominal length contributes
// a realistic ~54 mV at 1.0 V (exp(-0.045*65) = 0.054).  The functional
// form — longer gate => higher Vth => slower and less leaky — is preserved,
// which is what the methodology depends on.

#include <cmath>
#include <stdexcept>

namespace vipvt {

/// Threshold-voltage flavour of a cell.  Performance-optimized flows mix
/// flavours: timing-critical logic stays SVT; power recovery swaps slack-
/// rich logic to HVT/UHVT (slower, far less leaky) — which is also what
/// piles every pipeline stage up against the clock (the "slack wall" the
/// paper's Fig. 3 presumes).
enum class VthClass : int { Svt = 0, Hvt = 1, Uhvt = 2 };
inline constexpr int kNumVthClasses = 3;

inline const char* vth_class_suffix(VthClass v) {
  switch (v) {
    case VthClass::Svt: return "";
    case VthClass::Hvt: return "H";
    case VthClass::Uhvt: return "U";
  }
  return "";
}

/// Characterization constants for the synthetic 65 nm low-power library.
struct CharParams {
  double vdd_low = 1.0;             ///< nominal supply [V]
  double vdd_high = 1.2;            ///< boosted supply [V]
  double vth0 = 0.22;               ///< SVT long-channel threshold [V]
  double vth0_hvt = 0.40;           ///< HVT long-channel threshold [V]
  double vth0_uhvt = 0.52;          ///< UHVT long-channel threshold [V]
  double alpha = 1.3;               ///< velocity-saturation exponent
  double alpha_dibl = 0.045;        ///< DIBL coefficient [1/nm]
  double lgate_nom = 65.0;          ///< nominal effective gate length [nm]
  double subthreshold_nvt = 0.0375; ///< n*kT/q for leakage slope [V]

  double vth0_of(VthClass c) const {
    switch (c) {
      case VthClass::Svt: return vth0;
      case VthClass::Hvt: return vth0_hvt;
      case VthClass::Uhvt: return vth0_uhvt;
    }
    return vth0;
  }

  /// Effective threshold voltage after DIBL (Eq. 4).
  double vth_eff(double lgate_nm, double vdd, double vth0_class) const {
    return vth0_class - vdd * std::exp(-alpha_dibl * lgate_nm);
  }
  double vth_eff(double lgate_nm, double vdd) const {
    return vth_eff(lgate_nm, vdd, vth0);
  }

  /// The Vdd-independent half of raw_delay: pow(Lgate, 1.5) and the DIBL
  /// exponential exp(-alpha_DIBL * Lgate).  A gate's Lgate is fixed once
  /// fabricated, so a caller evaluating it at several supplies computes
  /// these once and pays one pow() per supply (DESIGN.md §20).
  struct LgateTerms {
    double dibl = 0.0;  ///< exp(-alpha_dibl * Lgate)
    double l15 = 0.0;   ///< pow(Lgate, 1.5)
  };
  LgateTerms lgate_terms(double lgate_nm) const {
    // exp first: it feeds the overdrive pow(), the longer chain.
    return {std::exp(-alpha_dibl * lgate_nm), std::pow(lgate_nm, 1.5)};
  }

  /// raw_delay from precomputed Lgate terms: vth_eff's and raw_delay's
  /// exact operations, in their order, so raw_delay below is this.
  double raw_delay(const LgateTerms& t, double vdd, double vth0_class) const {
    const double vth = vth0_class - vdd * t.dibl;
    const double overdrive = vdd - vth;
    if (overdrive <= 0.0) {
      throw std::domain_error("raw_delay: Vdd below effective threshold");
    }
    return t.l15 * vdd / std::pow(overdrive, alpha);
  }

  /// Un-normalized alpha-power delay (Eq. 3).  Only ratios of this value
  /// are meaningful; characterization anchors the absolute scale.
  double raw_delay(double lgate_nm, double vdd, double vth0_class) const {
    return raw_delay(lgate_terms(lgate_nm), vdd, vth0_class);
  }
  double raw_delay(double lgate_nm, double vdd) const {
    return raw_delay(lgate_nm, vdd, vth0);
  }

  /// raw_delay with pow(Lgate, 1.5) strength-reduced to Lgate*sqrt(Lgate)
  /// (~3x cheaper, equal to within ~1 ulp but NOT bit-identical — pow
  /// rounds once, the product twice).  Kept separate so the scalar draw
  /// path stays bit-identical to seed; the batched draw profile's
  /// delay-factor tables are built from this form.
  double raw_delay_fast(double lgate_nm, double vdd,
                        double vth0_class) const {
    const double vth = vth_eff(lgate_nm, vdd, vth0_class);
    const double overdrive = vdd - vth;
    if (overdrive <= 0.0) {
      throw std::domain_error("raw_delay_fast: Vdd below effective threshold");
    }
    return lgate_nm * std::sqrt(lgate_nm) * vdd / std::pow(overdrive, alpha);
  }

  /// Delay multiplier of a gate with the given Lgate at the given Vdd,
  /// relative to a nominal-Lgate gate of the same Vth class at the same
  /// Vdd.  This is the factor the SSTA loop applies to annotated
  /// (SDF-like) delays: base delays already carry corner and Vth class,
  /// the variation model only scales them.
  double delay_factor(double lgate_nm, double vdd, double vth0_class) const {
    return raw_delay(lgate_nm, vdd, vth0_class) /
           raw_delay(lgate_nom, vdd, vth0_class);
  }
  double delay_factor(double lgate_nm, double vdd) const {
    return delay_factor(lgate_nm, vdd, vth0);
  }

  /// High-Vdd speedup at nominal Lgate: D(vdd_high)/D(vdd_low) < 1.
  /// Higher-Vth flavours benefit more from the boost (lower overdrive).
  double high_vdd_speed_ratio(VthClass c = VthClass::Svt) const {
    return raw_delay(lgate_nom, vdd_high, vth0_of(c)) /
           raw_delay(lgate_nom, vdd_low, vth0_of(c));
  }

  /// Delay ratio of a Vth class vs SVT at the given supply (>= 1).
  double vth_class_delay_ratio(VthClass c, double vdd) const {
    return raw_delay(lgate_nom, vdd, vth0_of(c)) /
           raw_delay(lgate_nom, vdd, vth0);
  }

  /// Subthreshold-leakage multiplier relative to nominal Lgate at vdd_low.
  /// I_leak ~ Vdd * exp(-Vth_eff / (n*kT/q)); shorter channels leak more
  /// (lower Vth via DIBL), and raising Vdd both lowers Vth and raises the
  /// drain term — the effect Fig. 6 of the paper measures.  The Vth-class
  /// offset cancels in the ratio, so one function serves all flavours.
  double leakage_factor(double lgate_nm, double vdd) const {
    return raw_leakage(lgate_nm, vdd) / raw_leakage(lgate_nom, vdd_low);
  }

  /// Un-normalized subthreshold leakage, Vdd * exp(-Vth_eff / (n*kT/q)):
  /// the numerator and denominator of leakage_factor.
  double raw_leakage(double lgate_nm, double vdd) const {
    return vdd * std::exp(-vth_eff(lgate_nm, vdd) / subthreshold_nvt);
  }

  /// Absolute leakage ratio of a Vth class vs SVT (same geometry & Vdd).
  double leakage_class_ratio(VthClass c) const {
    return std::exp(-(vth0_of(c) - vth0) / subthreshold_nvt);
  }

  /// Dynamic-energy multiplier vs. vdd_low (CV^2 scaling).
  double dynamic_factor(double vdd) const {
    return (vdd * vdd) / (vdd_low * vdd_low);
  }

  // ---- adaptive body bias (ABB) baseline -----------------------------------
  // The paper argues (citing Tschanz et al. and Humenay et al.) that
  // supply adaptation needs a much smaller percentage change than body
  // bias and is far milder on leakage.  These helpers model chip-wide
  // forward body bias as an alternative compensation knob: FBB lowers
  // the effective threshold by `vth_shift` volts.

  /// Delay of a gate under FBB relative to zero bias (same Lgate/Vdd).
  double abb_delay_ratio(double vth_shift,
                         VthClass c = VthClass::Svt) const {
    return raw_delay(lgate_nom, vdd_low, vth0_of(c) - vth_shift) /
           raw_delay(lgate_nom, vdd_low, vth0_of(c));
  }

  /// Leakage multiplier of FBB vs zero bias: exponential in the shift.
  double abb_leakage_ratio(double vth_shift) const {
    return std::exp(vth_shift / subthreshold_nvt);
  }

  /// FBB shift needed to match the high-Vdd speedup (bisection).
  double abb_shift_matching_avs(VthClass c = VthClass::Svt) const {
    const double target = high_vdd_speed_ratio(c);
    double lo = 0.0, hi = vth0_of(c) * 0.9;
    for (int iter = 0; iter < 60; ++iter) {
      const double mid = 0.5 * (lo + hi);
      (abb_delay_ratio(mid, c) > target ? lo : hi) = mid;
    }
    return 0.5 * (lo + hi);
  }
};

}  // namespace vipvt
