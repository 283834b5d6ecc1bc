#pragma once
// Logic-aware voltage-island generation — the exploration the paper
// leaves as future work ("placement-aware cell grouping driven by the
// knowledge of logic structure distribution across the floorplan",
// §4.5/§6).  Instead of geometric slices, islands are grown from the
// *criticality* of the logic itself: for each violation scenario, the
// cells with the least slack under that scenario's systematic corner are
// switched to high Vdd first, with a binary search on the slack
// threshold until the scenario's Monte-Carlo check passes.  Every check
// at one location reads the same draws, from one DrawTable.
//
// This produces much smaller islands (only the critical cones are
// boosted) at the cost of fragmentation: island cells are scattered, so
// far more nets cross domains and the level-shifter bill explodes —
// exactly the trade the paper's slice-based style is designed to avoid.
// The ablation bench quantifies both sides.

#include "vi/islands.hpp"

namespace vipvt {

struct LogicIslandConfig {
  int mc_samples = 100;
  std::uint64_t seed = 0x10fca1;
  double slack_margin_fraction = 0.008;
  int bisect_iters = 10;
  double confidence = 0.95;
};

class LogicIslandGenerator {
 public:
  LogicIslandGenerator(Design& design, StaEngine& sta,
                       const VariationModel& model,
                       const LogicIslandConfig& cfg = {});

  /// Same contract as IslandGenerator::generate: one nested island per
  /// severity location; Instance::domain carries the assignment on
  /// return.  The returned plan's `cuts` hold the chosen slack
  /// thresholds [ns] instead of geometric coordinates.  One draw table
  /// is alive at a time, for the island being grown.
  IslandPlan generate(const std::vector<DieLocation>& severity_locations);

 private:
  bool trial_passes(const DrawTable& table);

  Design* design_;
  StaEngine* sta_;
  const VariationModel* model_;
  LogicIslandConfig cfg_;
};

}  // namespace vipvt
