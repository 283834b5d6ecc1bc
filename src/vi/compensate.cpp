#include "vi/compensate.hpp"

#include <algorithm>
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

const StaEngine::BaseSnapshot* LevelBases::find(int k) {
  if (k < 0 || k > plan_->num_islands() + 1) {
    throw std::invalid_argument("LevelBases: supply state out of range");
  }
  std::lock_guard<std::mutex> lock(mu_);
  return snaps_[static_cast<std::size_t>(k)].get();
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
      vth_(design.num_instances()) {
  for (InstId i = 0; i < vth_.size(); ++i) {
    vth_[i] = static_cast<std::uint8_t>(design.cell_of(i).vth);
  }
}

std::vector<double> CompensationController::chip_factors(
    const VirtualChip& chip) const {
  std::vector<double> factors(chip.lgate_nm.size());
  for (InstId i = 0; i < factors.size(); ++i) {
    factors[i] = model_->delay_factor(chip.lgate_nm[i], sta_->inst_corner(i),
                                      design_->cell_of(i).vth);
  }
  return factors;
}

void CompensationController::begin_die(const VirtualChip& chip) {
  const std::size_t n = chip.lgate_nm.size();
  exact_.resize(2 * n);
  known_.assign((2 * n + 63) / 64, 0);
  lgate_.assign(chip.lgate_nm.begin(), chip.lgate_nm.end());
  has_die_ = true;
  const DelayFactorTables& tables = model_->delay_factor_tables();
  knot_.resize(n);
  for (std::size_t i = 0; i < n; ++i) knot_[i] = tables.bracket_knot(lgate_[i]);
}

double CompensationController::exact_factor(InstId i, int corner) {
  const std::size_t s =
      2 * static_cast<std::size_t>(i) + (corner == kVddHigh ? 1 : 0);
  std::uint64_t& word = known_[s / 64];
  const std::uint64_t bit = std::uint64_t{1} << (s % 64);
  if ((word & bit) == 0) {
    const auto vth = static_cast<VthClass>(vth_[i]);
    const double f = model_->delay_factor(lgate_[i], corner, vth);
    ++exact_evals_;
    // The tripwire: a libm or table change that breaks the containment
    // argument must fail loudly, never move a reported bit.
    if (knot_[i] >= 0) {
      const DelayFactorTables::Bracket b =
          model_->delay_factor_tables().bracket(
              DelayFactorTables::row(corner, vth), knot_[i]);
      if (!(b.lo <= f && f <= b.hi)) {
        throw std::logic_error(
            "CompensationController: exact delay factor outside its "
            "table bracket");
      }
    }
    exact_[s] = f;
    word |= bit;
  }
  return exact_[s];
}

double CompensationController::analyze_state(int k) {
  const StaEngine::BaseSnapshot& snap = state_snapshot(k);
  const std::vector<int>& corner = snap.inst_corner;
  const DelayFactorTables& tables = model_->delay_factor_tables();
  const std::size_t n = lgate_.size();
  bounds_.resize(2 * n);
  for (InstId i = 0; i < n; ++i) {
    const int j = knot_[i];
    if (j >= 0) {
      const DelayFactorTables::Bracket b = tables.bracket(
          DelayFactorTables::row(corner[i], static_cast<VthClass>(vth_[i])),
          j);
      bounds_[2 * i] = b.lo;
      bounds_[2 * i + 1] = b.hi;
    } else {  // off the bracketable knots: exact path
      const double f = exact_factor(i, corner[i]);
      bounds_[2 * i] = f;
      bounds_[2 * i + 1] = f;
    }
  }
  return sta_->analyze_lazy(
      snap, bounds_,
      [this, &corner](InstId i) { return exact_factor(i, corner[i]); },
      violating_);
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
  if (!has_die_) {
    throw std::logic_error("analyze_chip_wide: no die compensated yet");
  }
  set_chip_wide();
  const std::vector<int>& corner =
      state_snapshot(plan_->num_islands() + 1).inst_corner;
  std::vector<double> factors(lgate_.size());
  for (InstId i = 0; i < factors.size(); ++i) {
    factors[i] = exact_factor(i, corner[i]);
  }
  return sta_->analyze(factors);
}

CompensationOutcome CompensationController::compensate(const VirtualChip& chip,
                                                       bool allow_escalation) {
  if (chip.lgate_nm.size() != design_->num_instances()) {
    throw std::invalid_argument("compensate: chip/design size mismatch");
  }
  begin_die(chip);
  CompensationOutcome out;

  // --- post-silicon test at the nominal supply ----------------------------
  out.wns_before = analyze_state(0);
  out.sensor_stage_flags = sensor_flags(*sta_, *sensors_, violating_);
  for (PipeStage s :
       {PipeStage::Decode, PipeStage::Execute, PipeStage::WriteBack}) {
    if (out.sensor_stage_flags[static_cast<std::size_t>(s)]) {
      ++out.detected_severity;
    }
  }
  // Coverage check: did any endpoint violate in a stage no sensor flagged?
  for (std::size_t k = 0; k < sta_->endpoints().size(); ++k) {
    if (violating_[k] != 0 &&
        !out.sensor_stage_flags[static_cast<std::size_t>(
            sta_->endpoints()[k].stage)]) {
      out.missed_violation = true;
      break;
    }
  }

  // --- raise islands per the detected scenario ------------------------------
  // The plan nests one island per severity level, so a die flagging more
  // gating stages than the plan has islands raises them all.
  const int max_k = plan_->num_islands();
  int level = std::min(out.detected_severity, max_k);
  double wns = level == 0 ? out.wns_before : analyze_state(level);
  // Escalation: the lowest higher level that closes timing, else max_k.
  if (wns < 0.0 && allow_escalation && level < max_k) {
    out.escalated = true;
    do {
      wns = analyze_state(++level);
    } while (wns < 0.0 && level < max_k);
  }
  out.islands_raised = level;
  out.wns_after = wns;
  out.timing_met = wns >= 0.0;
  set_level(level);
  return out;
}

}  // namespace vipvt
