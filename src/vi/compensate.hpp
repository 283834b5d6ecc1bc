#pragma once
// Post-silicon compensation (paper §3/§5): the virtual-silicon test bench.
//
// A VirtualChip is one fabricated die — a concrete per-gate Lgate map
// drawn from the variation model at a die location.  The controller
// reproduces the post-silicon test flow: read the Razor sensors at the
// nominal (all-low) supply, map the flagged stages to a violation
// scenario, raise the pre-planned number of voltage islands, and verify
// the result.  The chip-wide adaptive-supply baseline (raise everything
// to high Vdd) is the comparison point for the power results in Fig. 5.
//
// The controller is the POST-SILICON member of the compensation-policy
// portfolio (DESIGN.md §18): VI escalation works per fabricated die.
// The design-side members — statistical gate upsizing and MC-criticality
// buffer insertion — are compiled upstream into the netlist itself by
// vi/policy (compile_policy_mix); the controller then runs unchanged on
// the transformed design.

#include <array>
#include <memory>
#include <span>
#include <vector>

#include "variation/model.hpp"
#include "vi/islands.hpp"
#include "vi/razor.hpp"

namespace vipvt {

struct VirtualChip {
  DieLocation loc;
  std::vector<double> lgate_nm;  ///< per instance, fabricated gate lengths
};

/// Draw one fabricated die.  Same as the overload below with
/// model.systematic_lgates(design, loc) as the map.
VirtualChip fabricate_chip(const Design& design, const VariationModel& model,
                           const DieLocation& loc, Rng& rng);

/// Draw one fabricated die against a precomputed systematic Lgate map
/// (one entry per instance, VariationModel::systematic_lgates at `loc`;
/// the wafer loop shares one per reticle slot).  Draws exactly what
/// VariationModel::sample_lgate draws per gate — same field draw, same
/// normals, same clamp — so the chip and the RNG state afterwards are
/// bit-identical to sampling at `loc` directly (DESIGN.md §20).
VirtualChip fabricate_chip(const Design& design, const VariationModel& model,
                           const DieLocation& loc,
                           std::span<const double> systematic, Rng& rng);

struct CompensationOutcome {
  std::array<bool, kNumPipeStages> sensor_stage_flags{};
  int detected_severity = 0;   ///< stages flagged among DC/EX/WB
  int islands_raised = 0;      ///< after any escalation
  bool timing_met = false;     ///< all endpoints meet Tclk post-compensation
  bool escalated = false;      ///< needed more islands than detected
  bool missed_violation = false;  ///< a violating endpoint had no sensor
  double wns_before = 0.0;
  double wns_after = 0.0;
};

class CompensationController {
 public:
  /// `sta` must be built over the final netlist (islands assigned, level
  /// shifters inserted, Razor flops applied).
  CompensationController(const Design& design, StaEngine& sta,
                         const VariationModel& model, const IslandPlan& plan,
                         const RazorPlan& sensors);

  /// Runs detection + island raising (+ optional escalation) on one die.
  /// Escalation evaluates every remaining level as one multi-base
  /// analyze_batch_bases() batch (lane = level); the outcome is
  /// bit-identical to the historical one-level-at-a-time walk.  Delay
  /// factors are computed in full once, at level 0; every raised level
  /// re-evaluates only the gates whose corner it flips.
  CompensationOutcome compensate(const VirtualChip& chip,
                                 bool allow_escalation = true);

  /// Per-instance delay factors of a chip under the engine's current
  /// corner assignment (exposed for power/analysis code).
  std::vector<double> chip_factors(const VirtualChip& chip) const;

  /// Restore the engine's base delays for severity level k — bit-
  /// identical to sta.compute_base(plan.corners_for_severity(k)), but
  /// full NLDM delay calculation runs at most ONCE per controller: the
  /// first level requested is computed in full, and every other level's
  /// snapshot is delta-built from the nearest cached neighbour with
  /// StaEngine::recorner_delta (one island flip per step, cost bounded
  /// by the flipped domain's fan-out cone — DESIGN.md §12).  Snapshots
  /// are cached for the controller's lifetime, so a wafer worker reusing
  /// one controller across dies pays each level once, not once per die.
  void set_level(int k);

  /// Same, for the chip-wide all-high fallback assignment (the yield
  /// analyzer's last resort before discarding a die).
  void set_chip_wide();

  const IslandPlan& plan() const { return *plan_; }

 private:
  const StaEngine::BaseSnapshot& level_snapshot(int k);

  /// chip_factors() under level k's corner map, built from the level-0
  /// factors `f0`: delay_factor is a pure function of (Lgate, corner,
  /// Vth), so only instances whose corner differs from level 0 are
  /// re-evaluated (DESIGN.md §20).  Requires the level-0 snapshot.
  std::vector<double> level_factors(const VirtualChip& chip,
                                    const std::vector<double>& f0, int k);

  const Design* design_;
  StaEngine* sta_;
  const VariationModel* model_;
  const IslandPlan* plan_;
  const RazorPlan* sensors_;
  /// Cached per-level base snapshots (index 0..num_islands per severity
  /// level, plus the chip-wide fallback), lazily filled — the first via
  /// compute_base(), the rest delta-built with recorner_delta().
  std::vector<std::unique_ptr<StaEngine::BaseSnapshot>> level_snaps_;
  std::unique_ptr<StaEngine::BaseSnapshot> chip_wide_snap_;
};

}  // namespace vipvt
