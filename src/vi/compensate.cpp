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

CompensationController::CompensationController(const Design& design,
                                               StaEngine& sta,
                                               const VariationModel& model,
                                               const IslandPlan& plan,
                                               const RazorPlan& sensors)
    : design_(&design), sta_(&sta), model_(&model), plan_(&plan),
      sensors_(&sensors) {}

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
  const std::vector<int>& corner0 = level_snaps_[0]->inst_corner;
  const std::vector<int>& corner = level_snapshot(k).inst_corner;
  std::vector<double> factors = f0;
  for (InstId i = 0; i < factors.size(); ++i) {
    if (corner[i] != corner0[i]) {
      factors[i] = model_->delay_factor(chip.lgate_nm[i], corner[i],
                                        design_->cell_of(i).vth);
    }
  }
  return factors;
}

const StaEngine::BaseSnapshot& CompensationController::level_snapshot(int k) {
  if (k < 0 || k > plan_->num_islands()) {
    throw std::invalid_argument("level_snapshot: level out of range");
  }
  if (level_snaps_.empty()) {
    level_snaps_.resize(static_cast<std::size_t>(plan_->num_islands()) + 1);
  }
  auto& slot = level_snaps_[static_cast<std::size_t>(k)];
  if (slot == nullptr) {
    // Delta-build from the nearest already-cached level: restoring that
    // snapshot and flipping one island per step through recorner_delta()
    // costs O(changed cones) per level instead of a full compute_base(),
    // and lands on bit-identical bases (DESIGN.md §12).  Level k differs
    // from k-1 only in domain k (corners_for_severity raises domains
    // 1..k), so the walk flips domain t to high going up, low going down.
    int nearest = -1;
    for (int j = 0; j < static_cast<int>(level_snaps_.size()); ++j) {
      if (level_snaps_[static_cast<std::size_t>(j)] == nullptr) continue;
      if (nearest < 0 || std::abs(j - k) < std::abs(nearest - k)) nearest = j;
    }
    if (nearest < 0) {
      sta_->compute_base(plan_->corners_for_severity(k));
    } else {
      sta_->restore_bases(*level_snaps_[static_cast<std::size_t>(nearest)]);
      for (int t = nearest + 1; t <= k; ++t) {
        sta_->recorner_delta(static_cast<DomainId>(t), kVddHigh);
      }
      for (int t = nearest; t > k; --t) {
        sta_->recorner_delta(static_cast<DomainId>(t), kVddLow);
      }
    }
    slot = std::make_unique<StaEngine::BaseSnapshot>(sta_->snapshot_bases());
  }
  return *slot;
}

void CompensationController::set_level(int k) {
  sta_->restore_bases(level_snapshot(k));
}

void CompensationController::set_chip_wide() {
  if (chip_wide_snap_ == nullptr) {
    const std::vector<int> corners(
        static_cast<std::size_t>(plan_->num_islands()) + 1, kVddHigh);
    sta_->compute_base(corners);
    chip_wide_snap_ =
        std::make_unique<StaEngine::BaseSnapshot>(sta_->snapshot_bases());
  }
  sta_->restore_bases(*chip_wide_snap_);
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
    bases[j] = &level_snapshot(level);
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
