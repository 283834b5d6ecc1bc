#include "vi/compensate.hpp"

#include <algorithm>
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
  for (InstId i = 0; i < design.num_instances(); ++i) {
    if (!design.instance(i).placed) {
      throw std::logic_error("fabricate_chip: unplaced instance");
    }
  }
  VirtualChip chip;
  chip.loc = loc;
  chip.lgate_nm.resize(design.num_instances());
  // sample_lgate() is exactly systematic_lgate + random_lgate_dev, and
  // the map holds those systematic_lgate evaluations.
  const CorrelatedField field = model.draw_field(rng);
  if (!field.active()) {
    // All gates' deviations in one bulk polar fill: the same normals and
    // the same RNG state as the per-gate loop (DESIGN.md §20).
    model.random_lgate_devs(rng, chip.lgate_nm);
    for (InstId i = 0; i < design.num_instances(); ++i) {
      chip.lgate_nm[i] = systematic[i] + chip.lgate_nm[i];
    }
    return chip;
  }
  for (InstId i = 0; i < design.num_instances(); ++i) {
    chip.lgate_nm[i] = systematic[i] + model.random_lgate_dev(
                                           design.instance(i).pos, rng, &field);
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
      snaps_(static_cast<std::size_t>(plan.num_islands()) + 2, nullptr),
      flipped_(snaps_.size()),
      flipped_ready_(snaps_.size(), 0) {}

std::vector<double> CompensationController::chip_factors(
    const VirtualChip& chip) const {
  std::vector<double> factors(chip.lgate_nm.size());
  for (InstId i = 0; i < factors.size(); ++i) {
    factors[i] = model_->delay_factor(chip.lgate_nm[i], sta_->inst_corner(i),
                                      design_->cell_of(i).vth);
  }
  return factors;
}

void CompensationController::level0_factors(const VirtualChip& chip) {
  const std::size_t n = chip.lgate_nm.size();
  if (other_die_.size() != n) {
    other_.assign(n, 0.0);
    other_die_.assign(n, 0);
    die_ = 0;
  }
  if (++die_ == 0) {  // stamp wrapped: forget every cached factor
    std::fill(other_die_.begin(), other_die_.end(), 0);
    die_ = 1;
  }
  terms_.resize(n);
  f0_.resize(n);
  const CharParams& cp = model_->char_params();
  const std::vector<int>& corner0 = state_snapshot(0).inst_corner;
  for (InstId i = 0; i < n; ++i) {
    terms_[i] = cp.lgate_terms(chip.lgate_nm[i]);
    f0_[i] = model_->delay_factor(terms_[i], corner0[i],
                                  design_->cell_of(i).vth);
  }
}

const std::vector<InstId>& CompensationController::flipped(int k) {
  const auto s = static_cast<std::size_t>(k);
  if (flipped_ready_[s] == 0) {
    const std::vector<int>& corner0 = state_snapshot(0).inst_corner;
    const std::vector<int>& corner = state_snapshot(k).inst_corner;
    for (InstId i = 0; i < corner.size(); ++i) {
      if (corner[i] != corner0[i]) flipped_[s].push_back(i);
    }
    flipped_ready_[s] = 1;
  }
  return flipped_[s];
}

std::vector<double> CompensationController::state_factors(int k) {
  const std::vector<int>& corner = state_snapshot(k).inst_corner;
  std::vector<double> factors = f0_;
  for (const InstId i : flipped(k)) {
    if (other_die_[i] != die_) {
      other_[i] =
          model_->delay_factor(terms_[i], corner[i], design_->cell_of(i).vth);
      other_die_[i] = die_;
    }
    factors[i] = other_[i];
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

StaResult CompensationController::analyze_chip_wide() {
  if (die_ == 0) {
    throw std::logic_error("analyze_chip_wide: no die compensated yet");
  }
  set_chip_wide();
  return sta_->analyze(state_factors(plan_->num_islands() + 1));
}

CompensationOutcome CompensationController::compensate(const VirtualChip& chip,
                                                       bool allow_escalation) {
  if (chip.lgate_nm.size() != design_->num_instances()) {
    throw std::invalid_argument("compensate: chip/design size mismatch");
  }
  CompensationOutcome out;

  // --- post-silicon test at the nominal supply ----------------------------
  set_level(0);
  level0_factors(chip);
  const StaResult truth0 = sta_->analyze(f0_);
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
    const StaResult truth = sta_->analyze(state_factors(detected));
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
    factors[j] = state_factors(level);
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
