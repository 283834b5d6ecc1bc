#pragma once
// Traced replicas of the library's wafer and campaign drivers, built from
// public calls only, so every layer is timed from outside.
//
// replicate_wafer follows YieldAnalyzer::analyze() and analyze_die_with()
// step by step (slot maps, tier screen, per-die MC or screen verdict,
// fabrication, compensation, chip-wide fallback, power, reduce) and must
// reproduce their DieOutcome bits.  replicate_campaign follows
// CampaignRunner's planner (policy compile, model copies, analyzers, slot
// maps, characterization, screens) and then replays every cell's wafers
// through replicate_wafer.  The benchmark checks both against untraced
// runs of the library (trace.replica_match), so a signature or behaviour
// change in any of these calls needs this file updated first.

#include <cstdint>
#include <vector>

#include "campaign/campaign.hpp"
#include "power/power.hpp"
#include "trace.hpp"
#include "vi/compensate.hpp"
#include "yield/wafer.hpp"
#include "yield/yield.hpp"

namespace vipvt::e2e {

/// Everything a YieldAnalyzer was constructed from.
struct FabView {
  const Design* design = nullptr;
  const StaEngine* sta = nullptr;
  const VariationModel* model = nullptr;
  const IslandPlan* plan = nullptr;
  const RazorPlan* sensors = nullptr;
  const ActivityDb* activity = nullptr;
  double clock_freq_ghz = 0.0;
};

struct ReplicaWafer {
  std::vector<DieOutcome> dies;  ///< die-id order, like YieldReport::dies
  YieldAggregate agg;            ///< the dies folded by YieldAggregate::add
};

/// Serial traced run of every die of `wafer` under `cfg` (cfg.seed is the
/// wafer seed).  `an` must be the analyzer built over `fab`; `power` a
/// PowerEngine over fab.design / fab.activity.  Spans go to `tr`, nested
/// under one "unit" span whose request id is `unit`.  When `maps` and
/// `screen` are given (the campaign planner's shared ones), the wafer
/// uses them instead of computing its own, as a campaign shard does.
ReplicaWafer replicate_wafer(
    const YieldAnalyzer& an, const FabView& fab, const PowerEngine& power,
    const WaferModel& wafer, const YieldConfig& cfg, Tracer& tr,
    std::int64_t unit,
    const std::vector<std::vector<double>>* maps = nullptr,
    const std::vector<SlotTriage>* screen = nullptr);

struct ReplicaCampaign {
  std::vector<YieldAggregate> cells;  ///< cell-index order
  std::size_t slots = 0;              ///< reticle slots screened
  std::size_t decided_slots = 0;      ///< of which the screen decided
};

/// Serial traced replay of runner.run(spec) for a runner holding the one
/// variant `base`.  The whole replay sits under one "campaign" span.
ReplicaCampaign replicate_campaign(const CampaignRunner& runner,
                                   const FabView& base,
                                   const CampaignSpec& spec, Tracer& tr);

}  // namespace vipvt::e2e
