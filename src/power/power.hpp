#pragma once
// Activity-based power engine: the PrimePower stand-in.
//
//   switching  = 1/2 * C_net * Vdd_driver^2 * toggle_rate * f   (net charging)
//   internal   = E_int(corner) * toggle_rate(out) * f           (cell internal)
//   leakage    = leak(corner) * leakage_factor(Lgate, Vdd)      (subthreshold)
//
// Units: pF * V^2 * GHz = mW;  pJ * GHz = mW.
//
// The engine rolls results up per functional unit (Table 1), per pipeline
// stage, per voltage domain, and separates the level-shifter contribution
// (Table 2 / Fig. 5 / Fig. 6).

#include <array>
#include <span>
#include <string>
#include <vector>

#include "netlist/design.hpp"
#include "variation/model.hpp"

namespace vipvt {

/// Per-net switching activity (from the logic simulator or synthetic).
struct ActivityDb {
  std::vector<double> toggle_rate;  ///< transitions per cycle, per net

  static ActivityDb uniform(const Design& design, double rate);
};

struct PowerBreakdown {
  double switching_mw = 0.0;
  double internal_mw = 0.0;
  double leakage_mw = 0.0;
  double total_mw() const { return switching_mw + internal_mw + leakage_mw; }

  double dynamic_mw() const { return switching_mw + internal_mw; }

  /// Contribution of level-shifter cells (included in the totals above).
  double level_shifter_mw = 0.0;
  double level_shifter_leakage_mw = 0.0;

  std::vector<double> per_unit_mw;    ///< indexed by UnitId
  std::array<double, kNumPipeStages> per_stage_mw{};
  std::vector<double> per_domain_mw;  ///< indexed by DomainId
};

struct PowerConfig {
  double clock_freq_ghz = 0.256;  ///< the paper's 256 MHz fmax
  /// Optional variation context: when set, leakage uses the systematic
  /// Lgate at each cell's location (DIBL-aware), as fabricated silicon
  /// would exhibit.
  const VariationModel* variation = nullptr;
  const DieLocation* location = nullptr;
  /// Precomputed per-instance systematic Lgate [nm]
  /// (VariationModel::systematic_lgates) — when non-empty (and
  /// `variation` is set) leakage reads systematic[i] instead of
  /// re-evaluating the exposure polynomial per instance.  Bit-identical
  /// to the `location` path, since the map holds exactly those
  /// evaluations; the wafer loop shares one map per reticle slot.
  std::span<const double> systematic{};
};

class PowerEngine {
 public:
  /// Construction precomputes the per-net total capacitance (wire HPWL +
  /// sink pins), which depends only on placement — never on corners or
  /// variation — so one engine amortizes it across every compute().  The
  /// voltage-domain count is read here too: build the engine after the
  /// design's domains are assigned.
  PowerEngine(const Design& design, const ActivityDb& activity);

  /// Compute the full breakdown with the given supply corner per domain
  /// (index = DomainId; missing entries default to the low corner).
  /// Pure (no engine state is written): one engine may serve concurrent
  /// callers.
  PowerBreakdown compute(std::span<const int> domain_corner,
                         const PowerConfig& cfg) const;

 private:
  const Design* design_;
  const ActivityDb* activity_;
  std::vector<double> net_cap_;  ///< per-net switching cap [pF]; 0 for clock
  std::size_t num_domains_ = 1;  ///< max instance domain + 1
};

}  // namespace vipvt
