#pragma once
// End-to-end methodology driver (paper Fig. 1):
//
//   performance-optimized placed netlist
//     -> STA (clock at the design's own fmax)
//     -> Monte-Carlo SSTA + scenario characterization
//     -> placement-aware voltage-island generation
//     -> level-shifter insertion + incremental placement + re-timing
//     -> Razor sensor planning
//     -> activity simulation (FIR) + power comparisons
//
// Flow owns every intermediate artifact so benches/examples can run any
// prefix of the pipeline and query reports.  Each step is idempotent-
// guarded: calling a step runs its prerequisites if needed.

#include <memory>
#include <optional>

#include "netlist/vex.hpp"
#include "placement/placer.hpp"
#include "power/power.hpp"
#include "sim/stimulus.hpp"
#include "timing/recovery.hpp"
#include "timing/sta.hpp"
#include "variation/mc_ssta.hpp"
#include "vi/compensate.hpp"
#include "vi/islands.hpp"
#include "vi/razor.hpp"
#include "vi/scenario.hpp"
#include "vi/shifters.hpp"

namespace vipvt {

struct FlowConfig {
  VexConfig vex{};
  /// MSV designs reserve extra whitespace up front: compensating the
  /// worst scenario needs islands over most of the die, and every
  /// low->high crossing net takes a level-shifter site.
  FloorplanConfig floorplan{.target_utilization = 0.50, .aspect_ratio = 1.0};
  PlacerConfig placer{};
  StaOptions sta{};
  /// Clock = nominal min period * (1 + margin): the "performance
  /// optimized" slack-met condition of the paper.
  double clock_margin = 0.04;
  /// Dual-Vth power recovery (creates the per-stage slack wall).
  bool enable_recovery = true;
  RecoveryConfig recovery{};
  ScenarioConfig scenario{};
  IslandConfig islands{};
  RazorConfig razor{};
  int sim_cycles = 400;
  std::uint64_t seed = 0xbee5;
};

class Flow {
 public:
  explicit Flow(const FlowConfig& cfg);
  ~Flow();
  Flow(const Flow&) = delete;
  Flow& operator=(const Flow&) = delete;

  // ---- pipeline steps (each runs its prerequisites) ----------------------
  /// Scenario sweep along the chip diagonal (MC SSTA per point).
  void characterize();
  /// Nested voltage islands for cfg.islands.dir.
  void generate_islands();
  /// Level shifters + incremental placement; re-times and re-clocks the
  /// design to its post-insertion fmax (degradation recorded).
  void insert_shifters();
  /// Razor plan from worst-location MC on the final netlist, applied.
  void plan_sensors();
  /// FIR workload simulation -> per-net activity.
  void simulate_activity();

  // ---- accessors -----------------------------------------------------------
  const FlowConfig& config() const { return cfg_; }
  const Library& lib() const { return *lib_; }
  Design& design() { return *design_; }
  const Design& design() const { return *design_; }
  const Floorplan& floorplan() const { return *fp_; }
  StaEngine& sta() { return *sta_; }
  const StaEngine& sta() const { return *sta_; }
  const ExposureField& field() const { return *field_; }
  const VariationModel& variation() const { return *model_; }

  double nominal_clock_ns() const { return nominal_clock_ns_; }
  double post_shifter_clock_ns() const { return post_shifter_clock_ns_; }
  /// (post - pre) / pre, the paper's "8 % / 15 %" number.
  double shifter_perf_degradation() const;

  // ---- cheap pipeline-state queries ---------------------------------------
  // Each step's accessor throws before the step has run; these let benches
  // and batch drivers branch on pipeline state without the
  // throw-and-catch dance around an unset std::optional.
  bool characterized() const noexcept { return scenarios_.has_value(); }
  bool islands_generated() const noexcept { return island_plan_.has_value(); }
  bool shifters_inserted() const noexcept { return shifter_report_.has_value(); }
  bool sensors_planned() const noexcept { return razor_plan_.has_value(); }
  bool activity_simulated() const noexcept { return activity_.has_value(); }

  const RecoveryReport& recovery_report() const { return recovery_report_; }
  const ScenarioSet& scenarios() const;
  const IslandPlan& island_plan() const;
  const ShifterReport& shifter_report() const;
  const RazorPlan& razor_plan() const;
  const McResult& worst_case_mc() const;
  const ActivityDb& activity() const;

  /// Total power with islands 1..severity raised, fabricated at `loc`.
  PowerBreakdown power_for_severity(int severity, const DieLocation& loc) const;
  /// Chip-wide high-Vdd adaptation baseline at `loc`.
  PowerBreakdown power_chip_wide_high(const DieLocation& loc) const;
  /// All-low reference (no compensation).
  PowerBreakdown power_all_low(const DieLocation& loc) const;

  /// Compensation controller over the final netlist (requires sensors).
  CompensationController make_controller();

 private:
  void rebuild_sta();
  PowerBreakdown power_with_corners(std::span<const int> corners,
                                    const DieLocation& loc) const;

  FlowConfig cfg_;
  std::unique_ptr<Library> lib_;
  std::unique_ptr<Design> design_;
  std::unique_ptr<Floorplan> fp_;
  std::unique_ptr<PlacementDb> db_;
  std::unique_ptr<StaEngine> sta_;
  std::unique_ptr<ExposureField> field_;
  std::unique_ptr<VariationModel> model_;

  double nominal_clock_ns_ = 0.0;
  double post_shifter_clock_ns_ = 0.0;
  RecoveryReport recovery_report_{};

  std::optional<ScenarioSet> scenarios_;
  std::optional<IslandPlan> island_plan_;
  std::optional<ShifterReport> shifter_report_;
  std::optional<RazorPlan> razor_plan_;
  std::optional<McResult> worst_case_mc_;
  std::optional<ActivityDb> activity_;
};

}  // namespace vipvt
