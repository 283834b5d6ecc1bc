#include "yield/yield.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>

#include "ssta/canonical.hpp"
#include "vi/flow.hpp"

namespace vipvt {

const char* triage_tier_name(TriageTier t) {
  switch (t) {
    case TriageTier::Off: return "off";
    case TriageTier::Analytical: return "analytical";
    case TriageTier::McFallback: return "mc-fallback";
    case TriageTier::Macro: return "macro";
  }
  return "?";
}

const char* eval_tier_name(EvalTier t) {
  switch (t) {
    case EvalTier::Flat: return "flat";
    case EvalTier::Triage: return "triage";
    case EvalTier::Macro: return "macro";
  }
  return "?";
}

const char* tuning_policy_name(TuningPolicy p) {
  switch (p) {
    case TuningPolicy::AllLow: return "all-low";
    case TuningPolicy::NestedIslands: return "nested-islands";
    case TuningPolicy::ChipWideHigh: return "chip-wide-high";
    case TuningPolicy::Discard: return "discard";
  }
  return "?";
}

char tuning_policy_glyph(TuningPolicy p, int islands_raised) {
  switch (p) {
    case TuningPolicy::AllLow: return '0';
    case TuningPolicy::NestedIslands:
      return islands_raised <= 9 ? static_cast<char>('0' + islands_raised)
                                 : '9';
    case TuningPolicy::ChipWideHigh: return 'H';
    case TuningPolicy::Discard: return 'X';
  }
  return '?';
}

std::string YieldReport::policy_glyphs() const {
  std::string glyphs(dies.size(), '?');
  for (const DieOutcome& d : dies) {
    glyphs[static_cast<std::size_t>(d.die_id)] =
        tuning_policy_glyph(d.policy, d.islands_raised);
  }
  return glyphs;
}

void YieldConfig::validate() const {
  const auto fail = [](const char* what) {
    throw std::invalid_argument(std::string("YieldConfig: ") + what);
  };
  // The screens' normal quantile is undefined at 0 and 1, and a NaN would
  // reach percentile()'s index arithmetic on the flat tier.
  if (!(speed_percentile > 0.0 && speed_percentile < 1.0)) {
    fail("speed_percentile must lie in (0, 1)");
  }
  // A fixed budget below one sample runs no MC: every die would report
  // fmax 0 and the screens would decide nothing.
  if (!mc.adaptive.enabled && mc.samples < 1) {
    fail("mc.samples must be >= 1 for a fixed budget");
  }
  // The screens' CI quantiles need a confidence strictly inside (0, 1).
  if (!(triage.confidence > 0.0 && triage.confidence < 1.0)) {
    fail("triage.confidence must lie in (0, 1)");
  }
  // A negative band would decide slots inside the CI band (voiding the
  // 1 - confidence error rate); a NaN one would silently decide none.
  if (!(triage.band_scale >= 0.0) || !std::isfinite(triage.band_scale)) {
    fail("triage.band_scale must be finite and >= 0");
  }
  if (!(triage.model_error_ns >= 0.0) ||
      !std::isfinite(triage.model_error_ns)) {
    fail("triage.model_error_ns must be finite and >= 0");
  }
}

int per_die_mc_budget(const McConfig& mc) {
  return std::max(mc.adaptive.enabled ? mc.adaptive.max_samples : mc.samples,
                  0);
}

void YieldAggregate::add(const DieOutcome& d, int num_islands,
                         int per_die_budget) {
  if (island_activation.empty()) {
    island_activation.assign(static_cast<std::size_t>(num_islands) + 1, 0);
  }
  ++dies;
  const auto p = static_cast<std::size_t>(d.policy);
  ++policy_count[p];
  power_mw[p].add(d.total_mw);
  leakage_mw[p].add(d.leakage_mw);
  if (d.policy == TuningPolicy::AllLow ||
      d.policy == TuningPolicy::NestedIslands) {
    ++island_activation[static_cast<std::size_t>(
        std::clamp<int>(d.islands_raised, 0, num_islands))];
  }
  if (d.policy != TuningPolicy::Discard && d.fmax_ghz > 0.0) {
    fmax_ghz.add(d.fmax_ghz);
  }
  wns_all_low_ns.add(d.wns_all_low_ns);
  wns_final_ns.add(d.wns_final_ns);
  timing_met += d.timing_met ? 1 : 0;
  escalated += d.escalated ? 1 : 0;
  missed_violation += d.missed_violation ? 1 : 0;
  mc_severity_sum += static_cast<std::uint64_t>(std::max(d.mc_severity, 0));
  mc_samples_drawn += static_cast<std::uint64_t>(std::max(d.mc_samples, 0));
  mc_samples_budget += static_cast<std::uint64_t>(std::max(per_die_budget, 0));
  if (d.mc_stop == McStop::Converged) ++mc_converged_dies;
  if (d.triage_tier == TriageTier::Analytical) ++triage_analytical;
  if (d.triage_tier == TriageTier::McFallback) ++triage_mc_fallback;
  if (d.triage_tier == TriageTier::Macro) ++triage_macro;
}

void YieldAggregate::merge(const YieldAggregate& other) {
  if (other.dies == 0) return;
  if (island_activation.empty()) {
    island_activation.assign(other.island_activation.size(), 0);
  }
  if (island_activation.size() != other.island_activation.size()) {
    throw std::invalid_argument(
        "YieldAggregate::merge: island histogram size mismatch");
  }
  dies += other.dies;
  for (std::size_t p = 0; p < policy_count.size(); ++p) {
    policy_count[p] += other.policy_count[p];
    power_mw[p].merge(other.power_mw[p]);
    leakage_mw[p].merge(other.leakage_mw[p]);
  }
  for (std::size_t k = 0; k < island_activation.size(); ++k) {
    island_activation[k] += other.island_activation[k];
  }
  timing_met += other.timing_met;
  escalated += other.escalated;
  missed_violation += other.missed_violation;
  mc_severity_sum += other.mc_severity_sum;
  mc_samples_drawn += other.mc_samples_drawn;
  mc_samples_budget += other.mc_samples_budget;
  mc_converged_dies += other.mc_converged_dies;
  triage_analytical += other.triage_analytical;
  triage_mc_fallback += other.triage_mc_fallback;
  triage_macro += other.triage_macro;
  fmax_ghz.merge(other.fmax_ghz);
  wns_all_low_ns.merge(other.wns_all_low_ns);
  wns_final_ns.merge(other.wns_final_ns);
}

YieldAnalyzer::YieldAnalyzer(const Design& design, const StaEngine& sta,
                             const VariationModel& model,
                             const IslandPlan& plan, const RazorPlan& sensors,
                             const ActivityDb& activity, double clock_freq_ghz)
    : design_(&design), sta_(&sta), model_(&model), plan_(&plan),
      sensors_(&sensors), activity_(&activity), power_(design, activity),
      clock_freq_ghz_(clock_freq_ghz), level_bases_(plan) {}

YieldAnalyzer YieldAnalyzer::from_flow(const Flow& flow) {
  if (!flow.sensors_planned() || !flow.activity_simulated()) {
    throw std::logic_error(
        "YieldAnalyzer::from_flow: run plan_sensors() and "
        "simulate_activity() first");
  }
  return YieldAnalyzer(flow.design(), flow.sta(), flow.variation(),
                       flow.island_plan(), flow.razor_plan(), flow.activity(),
                       1.0 / flow.post_shifter_clock_ns());
}

CompensationController YieldAnalyzer::controller(StaEngine& engine) const {
  return CompensationController(*design_, engine, *model_, *plan_, *sensors_,
                                &level_bases_);
}

DieOutcome YieldAnalyzer::analyze_die(StaEngine& engine, const WaferDie& die,
                                      const YieldConfig& cfg) const {
  cfg.validate();
  CompensationController ctrl(*design_, engine, *model_, *plan_, *sensors_);
  const std::vector<double> systematic =
      model_->systematic_lgates(*design_, die.location);
  // Single-die screening: build_screen over this die's map alone, as the
  // wafer path screens its reticle slot, so the outcome is bit-identical
  // to the die's wafer-run outcome.
  const std::vector<SlotTriage> screen =
      build_screen(std::span(&systematic, 1), cfg);
  return analyze_die_impl(engine, ctrl, die, cfg, systematic,
                          screen.empty() ? nullptr : &screen[0], false);
}

namespace {

/// The screen band's CI quantiles at one (MC budget, confidence), solved
/// once per process: they are a pure function of the pair, and each
/// solve is three bisections (DESIGN.md §20).
const MomentIntervals& screen_intervals(std::size_t n, double confidence) {
  static std::mutex mu;
  static std::map<std::pair<std::size_t, std::uint64_t>, MomentIntervals>
      memo;  // guarded by mu; nodes never move, so references stay valid
  const std::pair<std::size_t, std::uint64_t> key{
      n, std::bit_cast<std::uint64_t>(confidence)};
  std::lock_guard<std::mutex> lock(mu);
  auto it = memo.find(key);
  if (it == memo.end()) {
    it = memo.emplace(key, MomentIntervals(n, confidence)).first;
  }
  return it->second;
}

}  // namespace

SlotTriage YieldAnalyzer::slot_verdict(const CanonicalResult& r,
                                       const YieldConfig& cfg) const {
  const auto n = static_cast<std::size_t>(per_die_mc_budget(cfg.mc));
  const TriageConfig& tc = cfg.triage;  // validate() checked its domain
  const MomentIntervals& ci = screen_intervals(n, tc.confidence);
  SlotTriage out;
  out.decided = true;
  out.fmax_ghz = r.fmax_ghz(cfg.speed_percentile);
  // Band per gating stage: what an n-sample MC estimate of the 3-sigma
  // slack could plausibly differ from the analytic moments by at the
  // configured confidence (§14 CI half-widths on mean and 3·stddev),
  // scaled, plus the absolute canonical-model-error allowance.  The die
  // is decided only when EVERY present gating stage's |3-sigma slack|
  // clears its band; the binding (smallest-gap) stage's margin and band
  // are what DieOutcome reports.
  double worst_gap = std::numeric_limits<double>::infinity();
  for (PipeStage s :
       {PipeStage::Decode, PipeStage::Execute, PipeStage::WriteBack}) {
    const StageGauss& sg = r.stage(s);
    if (!sg.present) continue;
    const double band =
        tc.band_scale * (ci.mean(0.0, sg.sigma_ns).half_width() +
                         3.0 * ci.stddev(sg.sigma_ns).half_width()) +
        tc.model_error_ns;
    const double margin = std::abs(sg.three_sigma_slack());
    if (sg.violates()) ++out.severity;
    if (!(margin > band)) out.decided = false;
    const double gap = margin - band;
    if (gap < worst_gap) {
      worst_gap = gap;
      out.margin_ns = margin;
      out.band_ns = band;
    }
  }
  return out;
}

std::vector<SlotTriage> YieldAnalyzer::build_screen(
    std::span<const std::vector<double>> maps, const YieldConfig& cfg) const {
  const EvalTier tier = cfg.effective_tier();
  if (tier == EvalTier::Flat) return {};
  // Per slot, the §19 macromodel, or one §16 canonical pass at the
  // level-0 (all-low) corners: the supply state the MC population pass
  // runs at, so the analytic moments answer the same question.
  const StageMacroLibrary* lib = nullptr;
  std::optional<StaEngine> engine;
  std::optional<CanonicalSsta> canon;
  if (tier == EvalTier::Macro) {
    lib = &macro_library(cfg.macro);
  } else {
    engine.emplace(*sta_);
    engine->compute_base_all_low();
    canon.emplace(*design_, *engine, *model_);
  }
  std::vector<SlotTriage> screen(maps.size());
  for (std::size_t s = 0; s < maps.size(); ++s) {
    // Slots with no die on this wafer keep the default (undecided) entry.
    if (maps[s].empty()) continue;
    screen[s] = slot_verdict(
        lib != nullptr ? lib->evaluate(maps[s]) : canon->run(maps[s]), cfg);
  }
  return screen;
}

const StageMacroLibrary& YieldAnalyzer::macro_library(
    const MacroConfig& cfg) const {
  std::lock_guard<std::mutex> lock(macro_mutex_);
  if (macro_lib_ == nullptr || macro_key_.knots != cfg.knots ||
      macro_key_.grad_step != cfg.grad_step) {
    // Characterize at the level-0 (all-low) corner state — the supply
    // state every screen asks about — on a private engine clone.
    StaEngine engine(*sta_);
    engine.compute_base_all_low();
    macro_lib_ =
        std::make_unique<StageMacroLibrary>(*design_, engine, *model_, cfg);
    macro_key_ = cfg;
  }
  return *macro_lib_;
}

std::vector<SlotTriage> YieldAnalyzer::tier_screen(
    const WaferModel& wafer, const YieldConfig& cfg,
    std::span<const std::vector<double>> slot_maps) const {
  cfg.validate();
  SlotMemo& memo = slot_memo(wafer);
  // Values, not addresses: another analyzer over the same netlist
  // (another sigma, or another pure-VI mix) builds equal maps.
  if (!slot_maps.empty() &&
      !std::equal(slot_maps.begin(), slot_maps.end(), memo.maps.begin(),
                  memo.maps.end())) {
    throw std::invalid_argument(
        "tier_screen: slot_maps are not this analyzer's reticle_slot_maps "
        "of the wafer");
  }
  return memo_screen(memo, cfg);
}

YieldAnalyzer::SlotMemo& YieldAnalyzer::slot_memo(
    const WaferModel& wafer) const {
  const WaferConfig& w = wafer.config();
  const std::array<std::uint64_t, 4> key{
      std::bit_cast<std::uint64_t>(w.wafer_diameter_mm),
      std::bit_cast<std::uint64_t>(w.edge_exclusion_mm),
      std::bit_cast<std::uint64_t>(w.field_mm),
      std::bit_cast<std::uint64_t>(w.die_mm)};
  std::lock_guard<std::mutex> lock(memo_mutex_);
  std::unique_ptr<SlotMemo>& memo = memo_[key];
  if (memo == nullptr) {
    memo = std::make_unique<SlotMemo>();
    memo->maps = compute_slot_maps(wafer);
  }
  return *memo;
}

const std::vector<SlotTriage>& YieldAnalyzer::memo_screen(
    SlotMemo& memo, const YieldConfig& cfg) const {
  // Every cfg field slot_verdict and the two screens read, then the
  // clock the screen's analytic slack is measured against.
  const ScreenKey key{
      static_cast<std::uint64_t>(cfg.effective_tier()),
      std::bit_cast<std::uint64_t>(cfg.triage.confidence),
      std::bit_cast<std::uint64_t>(cfg.triage.band_scale),
      std::bit_cast<std::uint64_t>(cfg.triage.model_error_ns),
      static_cast<std::uint64_t>(cfg.macro.knots),
      std::bit_cast<std::uint64_t>(cfg.macro.grad_step),
      static_cast<std::uint64_t>(per_die_mc_budget(cfg.mc)),
      std::bit_cast<std::uint64_t>(cfg.speed_percentile),
      std::bit_cast<std::uint64_t>(sta_->options().clock_period_ns)};
  std::lock_guard<std::mutex> lock(memo_mutex_);
  const auto it = memo.screens.find(key);
  if (it != memo.screens.end()) return it->second;
  return memo.screens.emplace(key, build_screen(memo.maps, cfg))
      .first->second;
}

std::vector<const TimingCone*> YieldAnalyzer::memo_cones(
    SlotMemo& memo, std::span<const SlotTriage> screen) const {
  std::vector<const TimingCone*> cones(memo.maps.size(), nullptr);
  const auto runs_mc = [&](std::size_t s) {
    return !memo.maps[s].empty() && (screen.empty() || !screen[s].decided);
  };
  bool any = false;
  for (std::size_t s = 0; s < cones.size(); ++s) any = any || runs_mc(s);
  if (!any) return cones;
  // A cone is proven for the level-0 bases, the setups and the clock; only
  // the clock can change (a retimed referenced engine), so cones are
  // memoized by its bits and a new clock never meets a stale cone.
  std::optional<StaEngine> engine;  // level 0, made on the first miss
  const StaEngine::BaseSnapshot* level0 = level_bases_.find(0);
  if (level0 == nullptr) {
    engine.emplace(*sta_);
    level0 = &level_bases_.get(0, *engine);
  }
  std::lock_guard<std::mutex> lock(memo_mutex_);
  auto& slot_cones = memo.cones[std::bit_cast<std::uint64_t>(
      sta_->options().clock_period_ns)];
  slot_cones.resize(memo.maps.size());
  for (std::size_t s = 0; s < cones.size(); ++s) {
    if (!runs_mc(s)) continue;
    if (slot_cones[s] == nullptr) {
      if (!engine) engine.emplace(*sta_);
      engine->restore_bases(*level0);
      slot_cones[s] = std::make_unique<const TimingCone>(
          MonteCarloSsta(*design_, *engine, *model_).cone(memo.maps[s]));
    }
    cones[s] = slot_cones[s].get();
  }
  return cones;
}

DieOutcome YieldAnalyzer::analyze_die_with(
    StaEngine& engine, CompensationController& ctrl, const WaferDie& die,
    const YieldConfig& cfg, std::span<const double> systematic,
    const SlotTriage* triage) const {
  cfg.validate();
  return analyze_die_impl(engine, ctrl, die, cfg, systematic, triage, true);
}

YieldAnalyzer::DiePower YieldAnalyzer::die_power(
    const DieLocation& loc, std::span<const double> systematic,
    int state) const {
  // Discard (state n + 2) keeps the empty corner vector, i.e. all-low
  // power; it is its own state, never assumed equal to level 0.
  std::vector<int> corners;
  if (state <= plan_->num_islands() + 1) {
    corners = supply_state_corners(*plan_, state);
  }
  PowerConfig pc;
  pc.clock_freq_ghz = clock_freq_ghz_;
  pc.variation = model_;
  pc.location = &loc;
  pc.systematic = systematic;
  const PowerBreakdown p = power_.compute(corners, pc);
  return {p.total_mw(), p.leakage_mw};
}

YieldAnalyzer::DiePower YieldAnalyzer::cached_die_power(
    const DieLocation& loc, std::span<const double> systematic,
    int state) const {
  const PowerKey key{std::bit_cast<std::uint64_t>(loc.chip_origin_mm.x),
                     std::bit_cast<std::uint64_t>(loc.chip_origin_mm.y),
                     std::bit_cast<std::uint64_t>(loc.core_origin_mm.x),
                     std::bit_cast<std::uint64_t>(loc.core_origin_mm.y),
                     static_cast<std::uint64_t>(state)};
  {
    std::lock_guard<std::mutex> lock(power_mutex_);
    const auto it = power_cache_.find(key);
    if (it != power_cache_.end()) return it->second;
  }
  // Computed outside the lock: two workers missing the same key compute
  // the same bits, and emplace keeps whichever lands first.
  const DiePower power = die_power(loc, systematic, state);
  std::lock_guard<std::mutex> lock(power_mutex_);
  power_cache_.emplace(key, power);
  return power;
}

DieOutcome YieldAnalyzer::analyze_die_impl(
    StaEngine& engine, CompensationController& ctrl, const WaferDie& die,
    const YieldConfig& cfg, std::span<const double> systematic,
    const SlotTriage* triage, bool cached_power, const TimingCone* cone,
    McWorkspace* ws) const {
  DieOutcome out;
  out.die_id = die.id;

  // Every random decision of this die derives from its id, never from
  // the worker or schedule: the determinism-under-parallelism contract.
  Rng die_rng(substream_seed(cfg.seed, static_cast<std::uint64_t>(die.id)));

  // 1. Population statistics: MC SSTA at the all-low supply.  The level-0
  // base restore and the systematic map are both cached — across dies
  // (controller snapshots) and across the reticle slot (shared map).
  // With triage enabled (DESIGN.md §16), a die whose slot screen cleared
  // the confidence band takes the analytic verdict instead and skips MC
  // — but still consumes the would-be MC seed so every downstream draw
  // (fabrication) stays bit-identical to the MC path.
  const EvalTier tier = cfg.effective_tier();
  if (tier != EvalTier::Flat && triage != nullptr && triage->decided) {
    (void)die_rng.next();  // the MC seed the skipped run would have taken
    out.triage_tier = tier == EvalTier::Macro ? TriageTier::Macro
                                              : TriageTier::Analytical;
    out.triage_margin_ns = triage->margin_ns;
    out.triage_band_ns = triage->band_ns;
    out.mc_severity = triage->severity;
    out.mc_samples = 0;
    out.mc_stop = McStop::FixedBudget;
    out.fmax_ghz = triage->fmax_ghz;
  } else {
    // MC runs at level 0; compensate() restores level 0 itself, so a
    // screen-decided die skips this restore (restore_bases is idempotent).
    ctrl.set_level(0);
    McConfig mcc = cfg.mc;
    mcc.seed = die_rng.next();
    // A worker samples on its own engine through its own lane buffers,
    // over the slot's memoized level-0 cone (DESIGN.md §22).
    const McResult mc = MonteCarloSsta(*design_, engine, *model_)
                            .run_with_systematic(systematic, mcc, cone, ws);
    out.mc_severity = mc.num_violating_stages();
    out.mc_samples = mc.samples;
    out.mc_stop = mc.stopping_reason;
    if (!mc.min_period_samples.empty()) {
      const double period_ns =
          percentile(mc.min_period_samples, cfg.speed_percentile);
      if (period_ns > 0.0) out.fmax_ghz = 1.0 / period_ns;
    }
    if (tier != EvalTier::Flat) {
      out.triage_tier = TriageTier::McFallback;
      if (triage != nullptr) {
        out.triage_margin_ns = triage->margin_ns;
        out.triage_band_ns = triage->band_ns;
      }
    }
  }

  // 2-3. This wafer's silicon (drawn against the slot's map, the same
  // bits as drawing at the die's location) + post-silicon policy
  // selection.
  Rng fab_rng = die_rng.fork();
  const VirtualChip chip =
      fabricate_chip(*design_, *model_, die.location, systematic, fab_rng);
  const CompensationOutcome comp = ctrl.compensate(chip, cfg.allow_escalation);
  out.detected_severity = comp.detected_severity;
  out.islands_raised = comp.islands_raised;
  out.escalated = comp.escalated;
  out.missed_violation = comp.missed_violation;
  out.wns_all_low_ns = comp.wns_before;
  out.wns_final_ns = comp.wns_after;
  out.timing_met = comp.timing_met;

  if (comp.timing_met) {
    out.policy = comp.islands_raised == 0 ? TuningPolicy::AllLow
                                          : TuningPolicy::NestedIslands;
  } else if (cfg.allow_chip_wide_fallback) {
    // Even all islands failed: the paper's chip-wide adaptive baseline,
    // reusing the high-corner factors compensate() already evaluated.
    const StaResult truth = ctrl.analyze_chip_wide();
    out.wns_final_ns = truth.wns;
    if (truth.wns >= 0.0) {
      out.policy = TuningPolicy::ChipWideHigh;
      out.timing_met = true;
    } else {
      out.policy = TuningPolicy::Discard;
    }
  } else {
    out.policy = TuningPolicy::Discard;
  }

  // 4. Power under the selected supply assignment.  The shared engine
  // carries the per-net caps; the slot's systematic map stands in for
  // per-instance exposure-polynomial evaluation (same bits, see
  // PowerConfig::systematic).  A die's power depends only on its
  // location and supply state, so the cache computes each pair once per
  // analyzer (DESIGN.md §20).
  const int n = plan_->num_islands();
  int state = out.islands_raised;
  if (out.policy == TuningPolicy::ChipWideHigh) state = n + 1;
  if (out.policy == TuningPolicy::Discard) state = n + 2;
  const DiePower power = cached_power
                            ? cached_die_power(die.location, systematic, state)
                            : die_power(die.location, systematic, state);
  out.total_mw = power.total_mw;
  out.leakage_mw = power.leakage_mw;
  return out;
}

std::size_t YieldAnalyzer::reticle_slot(const WaferModel& wafer,
                                        const WaferDie& die) {
  const auto side = static_cast<std::size_t>(wafer.dies_per_field_side());
  return static_cast<std::size_t>(die.die_iy) * side +
         static_cast<std::size_t>(die.die_ix);
}

std::vector<std::vector<double>> YieldAnalyzer::reticle_slot_maps(
    const WaferModel& wafer) const {
  return slot_memo(wafer).maps;
}

std::vector<std::vector<double>> YieldAnalyzer::compute_slot_maps(
    const WaferModel& wafer) const {
  // A die's location depends only on its (die_ix, die_iy) slot in the
  // reticle, so every die of a slot shares the systematic map — side²
  // polynomial evaluations over the netlist instead of one per die.
  const auto side = static_cast<std::size_t>(wafer.dies_per_field_side());
  std::vector<std::vector<double>> maps(side * side);
  for (const WaferDie& d : wafer.dies()) {
    auto& map = maps[reticle_slot(wafer, d)];
    if (map.empty()) map = model_->systematic_lgates(*design_, d.location);
  }
  return maps;
}

YieldAnalyzer::MemoView YieldAnalyzer::memo_view(const WaferModel& wafer,
                                                 const YieldConfig& cfg) const {
  // The slot maps, the screen (empty on the flat tier) and the level-0
  // cone of every slot that runs MC come from the analyzer's memo: built
  // once per (geometry, clock, screen config), shared read-only by every
  // worker, shard and later wafer (DESIGN.md §22).
  SlotMemo& memo = slot_memo(wafer);
  const std::vector<SlotTriage>& screen = memo_screen(memo, cfg);
  return {wafer, cfg, memo, screen, memo_cones(memo, screen)};
}

DieOutcome YieldAnalyzer::memo_die(const MemoView& view, std::size_t i,
                                   StaEngine& engine,
                                   CompensationController& ctrl,
                                   McWorkspace& ws) const {
  const WaferDie& die = view.wafer.dies()[i];
  const std::size_t slot = reticle_slot(view.wafer, die);
  return analyze_die_impl(
      engine, ctrl, die, view.cfg, view.memo.maps[slot],
      view.screen.empty() ? nullptr : &view.screen[slot], true,
      view.cones[slot], &ws);
}

YieldAggregate YieldAnalyzer::analyze_shard(
    StaEngine& engine, CompensationController& ctrl, const WaferModel& wafer,
    const YieldConfig& cfg, std::size_t die_begin, std::size_t die_end) const {
  cfg.validate();
  if (die_begin > die_end || die_end > wafer.num_dies()) {
    throw std::invalid_argument("analyze_shard: die range out of bounds");
  }
  const MemoView view = memo_view(wafer, cfg);
  McWorkspace ws;
  YieldAggregate agg;
  agg.island_activation.assign(
      static_cast<std::size_t>(plan_->num_islands()) + 1, 0);
  const int budget = per_die_mc_budget(cfg.mc);
  for (std::size_t i = die_begin; i < die_end; ++i) {
    agg.add(memo_die(view, i, engine, ctrl, ws), plan_->num_islands(),
            budget);
  }
  return agg;
}

void YieldAnalyzer::aggregate(YieldReport& report) const {
  report.island_activation.assign(
      static_cast<std::size_t>(plan_->num_islands()) + 1, 0);
  // Adaptive-sampling accounting: the budget is what a fixed-budget run
  // would have drawn per die (max_samples when adaptive, mc.samples
  // otherwise); what each die actually drew is in DieOutcome::mc_samples.
  const int per_die_budget = per_die_mc_budget(report.config.mc);
  report.mc_samples_budget =
      report.dies.size() * static_cast<std::size_t>(per_die_budget);
  report.mc_samples_drawn = 0;
  report.mc_converged_dies = 0;
  report.triage_analytical = 0;
  report.triage_mc_fallback = 0;
  report.triage_macro = 0;
  for (const DieOutcome& d : report.dies) {
    report.mc_samples_drawn += static_cast<std::size_t>(std::max(d.mc_samples, 0));
    if (d.mc_stop == McStop::Converged) ++report.mc_converged_dies;
    if (d.triage_tier == TriageTier::Analytical) ++report.triage_analytical;
    if (d.triage_tier == TriageTier::McFallback) ++report.triage_mc_fallback;
    if (d.triage_tier == TriageTier::Macro) ++report.triage_macro;
  }
  for (const DieOutcome& d : report.dies) {
    const auto p = static_cast<std::size_t>(d.policy);
    ++report.policy_count[p];
    report.power_mw[p].add(d.total_mw);
    report.leakage_mw[p].add(d.leakage_mw);
    if (d.policy == TuningPolicy::AllLow ||
        d.policy == TuningPolicy::NestedIslands) {
      ++report.island_activation[static_cast<std::size_t>(
          std::clamp<int>(d.islands_raised, 0, plan_->num_islands()))];
    }
    if (d.policy != TuningPolicy::Discard && d.fmax_ghz > 0.0) {
      report.fmax_ghz.add(d.fmax_ghz);
    }
  }

  // Speed bins over the shipped-die fmax range.
  if (report.fmax_ghz.count() == 0 || report.config.speed_bins == 0) return;
  const double lo = report.fmax_ghz.min();
  const double hi = report.fmax_ghz.max();
  report.speed_bin_lo_ghz = lo;
  report.speed_bin_count.assign(report.config.speed_bins, 0);
  if (!(hi > lo)) {
    // All shipped dies bin identically (tiny wafers / zero variance).
    report.speed_bin_step_ghz = 0.0;
    report.speed_bin_count[0] = report.fmax_ghz.count();
    return;
  }
  report.speed_bin_step_ghz =
      (hi - lo) / static_cast<double>(report.config.speed_bins);
  for (const DieOutcome& d : report.dies) {
    if (d.policy == TuningPolicy::Discard || !(d.fmax_ghz > 0.0)) continue;
    const auto bin = std::min<std::size_t>(
        report.config.speed_bins - 1,
        static_cast<std::size_t>((d.fmax_ghz - lo) / report.speed_bin_step_ghz));
    ++report.speed_bin_count[bin];
  }
}

YieldReport YieldAnalyzer::analyze(const WaferModel& wafer,
                                   const YieldConfig& cfg,
                                   ThreadPool* pool) const {
  cfg.validate();
  YieldReport report;
  report.wafer = wafer.config();
  report.config = cfg;
  report.portfolio = portfolio_;
  const std::vector<WaferDie>& dies = wafer.dies();
  report.dies.resize(dies.size());

  const MemoView view = memo_view(wafer, cfg);

  // Worker state: an engine clone, a controller over the analyzer's
  // shared level bases, so no worker recomputes a level another worker,
  // or an earlier analyze() call, already built (DESIGN.md §20), and the
  // MC lane buffers every die of the worker samples through.
  struct Worker {
    explicit Worker(const YieldAnalyzer& a)
        : engine(*a.sta_), ctrl(a.controller(engine)) {}
    StaEngine engine;
    CompensationController ctrl;
    McWorkspace mc;
  };
  const auto make_worker = [this] { return std::make_shared<Worker>(*this); };
  const auto body = [&](std::shared_ptr<Worker>& w, std::size_t i) {
    report.dies[i] = memo_die(view, i, w->engine, w->ctrl, w->mc);
  };
  if (pool != nullptr) {
    parallel_for(*pool, dies.size(), make_worker, body);
  } else {
    auto w = make_worker();
    for (std::size_t i = 0; i < dies.size(); ++i) body(w, i);
  }

  aggregate(report);
  return report;
}

}  // namespace vipvt
