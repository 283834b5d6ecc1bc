#include "vi/compensate.hpp"

#include <cmath>
#include <stdexcept>

namespace vipvt {

VirtualChip fabricate_chip(const Design& design, const VariationModel& model,
                           const DieLocation& loc, Rng& rng) {
  return fabricate_chip(design, model, loc,
                        model.systematic_lgates(design, loc), rng);
}

VirtualChip fabricate_chip(const Design& design, const VariationModel& model,
                           const DieLocation& loc,
                           std::span<const double> systematic, Rng& rng) {
  if (systematic.size() < design.num_instances()) {
    throw std::invalid_argument("fabricate_chip: short systematic map");
  }
  VirtualChip chip;
  chip.loc = loc;
  chip.lgate_nm.resize(design.num_instances());
  const CorrelatedField field = model.draw_field(rng);
  const CorrelatedField* fp = field.active() ? &field : nullptr;
  for (InstId i = 0; i < design.num_instances(); ++i) {
    const Instance& inst = design.instance(i);
    if (!inst.placed) {
      throw std::logic_error("fabricate_chip: unplaced instance");
    }
    // sample_lgate() is exactly systematic_lgate + random_lgate_dev, and
    // the map holds those systematic_lgate evaluations.
    chip.lgate_nm[i] =
        systematic[i] + model.random_lgate_dev(inst.pos, rng, fp);
  }
  return chip;
}

std::vector<int> supply_state_corners(const IslandPlan& plan, int state) {
  if (state <= plan.num_islands()) return plan.corners_for_severity(state);
  return std::vector<int>(static_cast<std::size_t>(plan.num_islands()) + 1,
                          kVddHigh);
}

LevelBases::LevelBases(const IslandPlan& plan)
    : plan_(&plan),
      snaps_(static_cast<std::size_t>(plan.num_islands()) + 2) {}

const StaEngine::BaseSnapshot& LevelBases::get(int k, StaEngine& engine) {
  if (k < 0 || k > plan_->num_islands() + 1) {
    throw std::invalid_argument("LevelBases: supply state out of range");
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = snaps_[static_cast<std::size_t>(k)];
  if (slot == nullptr) {
    engine.compute_base(supply_state_corners(*plan_, k));
    slot = std::make_unique<const StaEngine::BaseSnapshot>(
        engine.snapshot_bases());
  }
  return *slot;
}

CompensationController::CompensationController(const Design& design,
                                               StaEngine& sta,
                                               const VariationModel& model,
                                               const IslandPlan& plan,
                                               const RazorPlan& sensors,
                                               LevelBases* shared)
    : design_(&design), sta_(&sta), model_(&model), plan_(&plan),
      sensors_(&sensors),
      own_bases_(shared == nullptr ? std::make_unique<LevelBases>(plan)
                                   : nullptr),
      bases_(shared == nullptr ? own_bases_.get() : shared),
      snaps_(static_cast<std::size_t>(plan.num_islands()) + 2, nullptr) {}

std::vector<double> CompensationController::chip_factors(
    const VirtualChip& chip) const {
  std::vector<double> factors(chip.lgate_nm.size());
  for (InstId i = 0; i < factors.size(); ++i) {
    factors[i] = model_->delay_factor(chip.lgate_nm[i], sta_->inst_corner(i),
                                      design_->cell_of(i).vth);
  }
  return factors;
}

std::vector<double> CompensationController::level_factors(
    const VirtualChip& chip, const std::vector<double>& f0, int k) {
  const std::vector<int>& corner0 = state_snapshot(0).inst_corner;
  const std::vector<int>& corner = state_snapshot(k).inst_corner;
  std::vector<double> factors = f0;
  for (InstId i = 0; i < factors.size(); ++i) {
    if (corner[i] != corner0[i]) {
      factors[i] = model_->delay_factor(chip.lgate_nm[i], corner[i],
                                        design_->cell_of(i).vth);
    }
  }
  return factors;
}

const StaEngine::BaseSnapshot& CompensationController::state_snapshot(int k) {
  if (k < 0 || k > plan_->num_islands() + 1) {
    throw std::invalid_argument("CompensationController: level out of range");
  }
  const StaEngine::BaseSnapshot*& snap = snaps_[static_cast<std::size_t>(k)];
  if (snap == nullptr) snap = &bases_->get(k, *sta_);
  return *snap;
}

void CompensationController::set_level(int k) {
  if (k > plan_->num_islands()) {
    throw std::invalid_argument("set_level: level out of range");
  }
  sta_->restore_bases(state_snapshot(k));
}

void CompensationController::set_chip_wide() {
  sta_->restore_bases(state_snapshot(plan_->num_islands() + 1));
}

CompensationOutcome CompensationController::compensate(const VirtualChip& chip,
                                                       bool allow_escalation) {
  if (chip.lgate_nm.size() != design_->num_instances()) {
    throw std::invalid_argument("compensate: chip/design size mismatch");
  }
  CompensationOutcome out;

  // --- post-silicon test at the nominal supply ----------------------------
  set_level(0);
  const std::vector<double> f0 = chip_factors(chip);
  const StaResult truth0 = sta_->analyze(f0);
  out.wns_before = truth0.wns;
  out.sensor_stage_flags = sensor_flags(*sta_, *sensors_, truth0);
  for (PipeStage s :
       {PipeStage::Decode, PipeStage::Execute, PipeStage::WriteBack}) {
    if (out.sensor_stage_flags[static_cast<std::size_t>(s)]) {
      ++out.detected_severity;
    }
  }
  // Coverage check: did any endpoint violate in a stage no sensor flagged?
  for (std::size_t k = 0; k < sta_->endpoints().size(); ++k) {
    const double slack = truth0.endpoint_slack[k];
    if (std::isfinite(slack) && slack < 0.0 &&
        !out.sensor_stage_flags[static_cast<std::size_t>(
            sta_->endpoints()[k].stage)]) {
      out.missed_violation = true;
      break;
    }
  }

  // --- raise islands per the detected scenario ------------------------------
  // Common case first, scalar: the detected level usually closes timing.
  const int detected = out.detected_severity;
  const int max_k = plan_->num_islands();
  if (detected == 0) {
    // The engine already sits at level 0 and truth0 IS that level's
    // analysis: chip_factors/analyze are pure functions of (bases,
    // corners, chip), so re-running them here would reproduce f0/truth0
    // bitwise.  Clean dies — the bulk of a healthy wafer — skip a second
    // exact-factor fill and full propagation this way.
    out.wns_after = truth0.wns;
    out.islands_raised = 0;
    out.timing_met = truth0.wns >= 0.0;
  } else {
    set_level(detected);
    const StaResult truth = sta_->analyze(level_factors(chip, f0, detected));
    out.wns_after = truth.wns;
    out.islands_raised = detected;
    out.timing_met = truth.wns >= 0.0;
  }
  if (out.timing_met || !allow_escalation || detected >= max_k) return out;

  // Escalation: evaluate ALL remaining levels as one multi-base batch —
  // lane j carries level detected+1+j's own base-delay snapshot — and
  // pick the lowest level that closes timing, exactly the level the
  // historical one-at-a-time walk would stop at.  Per-lane results are
  // bit-identical to restore_bases + analyze, so every reported number
  // matches the sequential loop bit-for-bit.
  out.escalated = true;
  const int first_level = detected + 1;
  const auto lanes = static_cast<std::size_t>(max_k - detected);
  std::vector<const StaEngine::BaseSnapshot*> bases(lanes);
  std::vector<std::vector<double>> factors(lanes);
  for (std::size_t j = 0; j < lanes; ++j) {
    const int level = first_level + static_cast<int>(j);
    factors[j] = level_factors(chip, f0, level);
    bases[j] = &state_snapshot(level);
  }
  std::vector<StaResult> results(lanes);
  sta_->analyze_batch_bases(bases, factors, results);
  std::size_t chosen = lanes - 1;  // none passing => stop at max_k
  for (std::size_t j = 0; j < lanes; ++j) {
    if (results[j].wns >= 0.0) {
      chosen = j;
      break;
    }
  }
  out.islands_raised = first_level + static_cast<int>(chosen);
  out.wns_after = results[chosen].wns;
  out.timing_met = results[chosen].wns >= 0.0;
  // Sequential postcondition: the engine holds the final level's bases.
  set_level(out.islands_raised);
  return out;
}

}  // namespace vipvt
