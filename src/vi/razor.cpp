#include "vi/razor.hpp"

#include <stdexcept>

namespace vipvt {

RazorPlan plan_razor_sensors(const StaEngine& sta, const McResult& worst_case,
                             const RazorConfig& cfg) {
  const auto& endpoints = sta.endpoints();
  if (worst_case.endpoint_crit_prob.size() != endpoints.size()) {
    throw std::invalid_argument("plan_razor_sensors: stale MC result");
  }
  RazorPlan plan;
  for (std::size_t k = 0; k < endpoints.size(); ++k) {
    if (endpoints[k].flop == kInvalidInst) continue;  // ports: no flop to arm
    const double p = worst_case.endpoint_crit_prob[k];
    const bool ever = p > cfg.crit_prob_threshold ||
                      (cfg.crit_prob_threshold <= 0.0 && p > 0.0);
    if (!ever) continue;
    plan.endpoint_indices.push_back(k);
    ++plan.per_stage[static_cast<std::size_t>(endpoints[k].stage)];
  }
  return plan;
}

double apply_razor_plan(Design& design, const StaEngine& sta,
                        const RazorPlan& plan) {
  const Library& lib = design.lib();
  const CellId razor = lib.cell_for(CellFunc::RazorDff);
  double added = 0.0;
  for (std::size_t k : plan.endpoint_indices) {
    const InstId flop = sta.endpoints().at(k).flop;
    Instance& inst = design.instance(flop);
    const Cell& old_cell = lib.cell(inst.cell);
    if (!old_cell.is_sequential()) {
      throw std::logic_error("apply_razor_plan: endpoint is not a flop");
    }
    if (old_cell.is_razor()) continue;
    added += lib.cell(razor).area_um2 - old_cell.area_um2;
    inst.cell = razor;
  }
  return added;
}

std::array<bool, kNumPipeStages> sensor_flags(const StaEngine& sta,
                                              const RazorPlan& plan,
                                              const StaResult& truth) {
  std::vector<std::uint8_t> violating(truth.endpoint_slack.size());
  for (std::size_t k = 0; k < violating.size(); ++k) {
    violating[k] = truth.endpoint_slack[k] < 0.0 ? 1 : 0;
  }
  return sensor_flags(sta, plan, violating);
}

std::array<bool, kNumPipeStages> sensor_flags(
    const StaEngine& sta, const RazorPlan& plan,
    std::span<const std::uint8_t> violating) {
  std::array<bool, kNumPipeStages> flags{};
  for (std::size_t k : plan.endpoint_indices) {
    if (k >= violating.size()) {
      throw std::out_of_range("sensor_flags: sensor endpoint out of range");
    }
    if (violating[k] != 0) {
      flags[static_cast<std::size_t>(sta.endpoints()[k].stage)] = true;
    }
  }
  return flags;
}

}  // namespace vipvt
