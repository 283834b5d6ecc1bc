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
#include <cstdint>
#include <memory>
#include <mutex>
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

/// Per-domain supply corners of supply state `state` of `plan`: islands
/// 1..state raised for 0 <= state <= num_islands (corners_for_severity),
/// every domain at high Vdd for state num_islands + 1 (the chip-wide
/// fallback).
std::vector<int> supply_state_corners(const IslandPlan& plan, int state);

/// The base-delay snapshots of an island plan's supply states — severity
/// levels 0..num_islands, then the chip-wide state num_islands + 1 —
/// each built by ONE compute_base() the first time any holder asks for
/// it, and kept for the object's lifetime.  The nested islands and the
/// chip-wide fallback are fixed at design time, so these bases belong to
/// the netlist, not to a die: a YieldAnalyzer owns one and shares it
/// read-only with every controller its workers and campaign shards
/// build (DESIGN.md §20).  get() is thread-safe; a returned snapshot is
/// never modified or moved again.
class LevelBases {
 public:
  explicit LevelBases(const IslandPlan& plan);

  /// Snapshot of supply state k.  The first request computes it on
  /// `engine` under the lock (compute_base, then snapshot_bases — the
  /// engine's bases are left at state k); later requests return the
  /// stored snapshot without touching `engine`.  Every engine passed in
  /// must be a copy of one StaEngine, so snapshots are interchangeable
  /// (StaEngine::BaseSnapshot).  Throws std::invalid_argument for k
  /// outside [0, num_islands + 1].
  const StaEngine::BaseSnapshot& get(int k, StaEngine& engine);
  /// Snapshot of supply state k if a get() already built it, else
  /// nullptr; never computes.
  const StaEngine::BaseSnapshot* find(int k);

 private:
  const IslandPlan* plan_;
  std::mutex mu_;  ///< guards snaps_
  std::vector<std::unique_ptr<const StaEngine::BaseSnapshot>> snaps_;
};

class CompensationController {
 public:
  /// `sta` must be built over the final netlist (islands assigned, level
  /// shifters inserted, Razor flops applied).  `shared` (optional) is a
  /// LevelBases built over copies of the same engine: the controller then
  /// restores its level bases from those shared snapshots instead of
  /// computing its own; it must outlive the controller.
  CompensationController(const Design& design, StaEngine& sta,
                         const VariationModel& model, const IslandPlan& plan,
                         const RazorPlan& sensors,
                         LevelBases* shared = nullptr);

  /// Runs detection + island raising (+ optional escalation) on one die.
  /// Raises min(detected, num_islands) islands — more gating stages can
  /// flag than the plan has islands — then, if timing still fails, walks
  /// the higher levels in order and stops at the first that closes.
  /// Every analysis is lazily exact (DESIGN.md §21): delay factors are
  /// bracketed from the variation model's table knots, and libm runs only
  /// for the gates the STA refinement needs, each once per (gate, corner)
  /// per die.  The outcome is bit-identical to full chip_factors() fills
  /// and analyze() at every level walked.  Leaves the engine at the
  /// raised level's bases.
  CompensationOutcome compensate(const VirtualChip& chip,
                                 bool allow_escalation = true);

  /// The chip-wide fallback for the die last passed to compensate():
  /// set_chip_wide(), then the analysis of that die with every domain at
  /// high Vdd.  Bit-identical to set_chip_wide() followed by
  /// sta.analyze(chip_factors(chip)); the factors come from the die's
  /// exact-factor cache, computing the ones compensate() did not need.
  /// Throws std::logic_error before the first compensate().
  StaResult analyze_chip_wide();

  /// Per-instance delay factors of a chip under the engine's current
  /// corner assignment (exposed for power/analysis code).
  std::vector<double> chip_factors(const VirtualChip& chip) const;

  /// Restore the engine's base delays for severity level k — bit-
  /// identical to sta.compute_base(plan.corners_for_severity(k)).  The
  /// level's snapshot comes from the controller's LevelBases (its own,
  /// or the shared one it was given), so full NLDM delay calculation
  /// runs once per level for that object's lifetime: a wafer worker
  /// reusing one controller across dies, or many workers sharing one
  /// analyzer's bases, pay each level once, not once per die.
  void set_level(int k);

  /// Same, for the chip-wide all-high fallback assignment (the yield
  /// analyzer's last resort before discarding a die).
  void set_chip_wide();

  const IslandPlan& plan() const { return *plan_; }

  /// Delay factors this controller evaluated exactly (through libm) since
  /// construction.  A cost probe for tests and benches; no report or
  /// stream carries it.
  std::uint64_t exact_factor_evals() const { return exact_evals_; }

 private:
  /// Supply state k's snapshot (0..num_islands levels, num_islands + 1
  /// chip-wide), fetched from bases_ once and then read locally.
  const StaEngine::BaseSnapshot& state_snapshot(int k);

  /// Opens a new die: keeps its Lgates and bracket knots, and forgets
  /// every cached factor.
  void begin_die(const VirtualChip& chip);

  /// Gate i's exact delay factor at `corner` for the current die, cached
  /// per (gate, corner).  Each evaluation is checked against the gate's
  /// table bracket; a miss throws std::logic_error (DESIGN.md §21).
  double exact_factor(InstId i, int corner);

  /// Lazily exact analysis of supply state k for the current die: its
  /// worst slack, with violating_ set per endpoint.
  double analyze_state(int k);

  const Design* design_;
  StaEngine* sta_;
  const VariationModel* model_;
  const IslandPlan* plan_;
  const RazorPlan* sensors_;
  /// Private bases when no shared LevelBases was given.
  std::unique_ptr<LevelBases> own_bases_;
  LevelBases* bases_;
  /// Snapshots already fetched from bases_, by supply state.
  std::vector<const StaEngine::BaseSnapshot*> snaps_;
  /// VthClass per gate, read once at construction.
  std::vector<std::uint8_t> vth_;
  /// The die last passed to compensate(), if any: its Lgates, each
  /// gate's DelayFactorTables::bracket_knot, and the exact factor per
  /// (gate, corner) at index 2 * gate + corner, valid where that bit of
  /// known_ is set.
  std::vector<double> lgate_;
  std::vector<std::int32_t> knot_;
  std::vector<double> exact_;
  std::vector<std::uint64_t> known_;
  bool has_die_ = false;
  std::uint64_t exact_evals_ = 0;
  /// analyze_state scratch: per-gate [lo, hi] factor brackets and the
  /// per-endpoint violation flags.
  std::vector<double> bounds_;
  std::vector<std::uint8_t> violating_;
};

}  // namespace vipvt
