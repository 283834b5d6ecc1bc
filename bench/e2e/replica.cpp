#include "replica.hpp"

#include <optional>
#include <stdexcept>

#include "util/rng.hpp"
#include "util/stats.hpp"
#include "variation/mc_ssta.hpp"

namespace vipvt::e2e {

ReplicaWafer replicate_wafer(const YieldAnalyzer& an, const FabView& fab,
                             const PowerEngine& power, const WaferModel& wafer,
                             const YieldConfig& cfg, Tracer& tr,
                             std::int64_t unit,
                             const std::vector<std::vector<double>>* maps,
                             const std::vector<SlotTriage>* screen_in) {
  ReplicaWafer out;
  const auto unit_span = tr.scope("unit", unit);
  const std::vector<WaferDie>& dies = wafer.dies();
  out.dies.resize(dies.size());

  std::vector<std::vector<double>> own_maps;
  std::vector<SlotTriage> own_screen;
  if (maps == nullptr || screen_in == nullptr) {
    {
      const auto s = tr.scope("yield.slot_maps", unit);
      own_maps = an.reticle_slot_maps(wafer);
    }
    {
      const auto s = tr.scope("ssta.screen", unit);
      own_screen = an.tier_screen(wafer, cfg, own_maps);
    }
    maps = &own_maps;
    screen_in = &own_screen;
  }
  const std::vector<std::vector<double>>& slot_maps = *maps;
  const std::vector<SlotTriage>& screen = *screen_in;
  // analyze()'s serial worker: one engine clone and one persistent
  // controller; the first set_level(0) pays the level-0 base delays.
  std::optional<StaEngine> engine_slot;
  std::optional<CompensationController> ctrl_slot;
  {
    const auto s = tr.scope("yield.worker_setup", unit);
    engine_slot.emplace(*fab.sta);
    ctrl_slot.emplace(*fab.design, *engine_slot, *fab.model, *fab.plan,
                      *fab.sensors);
    ctrl_slot->set_level(0);
  }
  StaEngine& engine = *engine_slot;
  CompensationController& ctrl = *ctrl_slot;
  const EvalTier tier = cfg.effective_tier();

  for (std::size_t i = 0; i < dies.size(); ++i) {
    const WaferDie& die = dies[i];
    const auto die_span = tr.scope("die", die.id);
    const std::size_t slot = YieldAnalyzer::reticle_slot(wafer, die);
    const std::vector<double>& systematic = slot_maps[slot];
    const SlotTriage* triage = screen.empty() ? nullptr : &screen[slot];
    DieOutcome& d = out.dies[i];
    d.die_id = die.id;
    Rng die_rng(substream_seed(cfg.seed, static_cast<std::uint64_t>(die.id)));

    {
      const auto s = tr.scope("vi.set_level", die.id);
      ctrl.set_level(0);
    }
    if (tier != EvalTier::Flat && triage != nullptr && triage->decided) {
      (void)die_rng.next();  // the MC seed the skipped run would take
      d.triage_tier = tier == EvalTier::Macro ? TriageTier::Macro
                                              : TriageTier::Analytical;
      d.triage_margin_ns = triage->margin_ns;
      d.triage_band_ns = triage->band_ns;
      d.mc_severity = triage->severity;
      d.mc_samples = 0;
      d.mc_stop = McStop::FixedBudget;
      d.fmax_ghz = triage->fmax_ghz;
    } else {
      const auto s = tr.scope("variation.mc", die.id);
      McConfig mcc = cfg.mc;
      mcc.seed = die_rng.next();
      const McResult mc = MonteCarloSsta(*fab.design, engine, *fab.model)
                              .run_with_systematic(systematic, mcc);
      d.mc_severity = mc.num_violating_stages();
      d.mc_samples = mc.samples;
      d.mc_stop = mc.stopping_reason;
      if (!mc.min_period_samples.empty()) {
        const double period_ns =
            percentile(mc.min_period_samples, cfg.speed_percentile);
        if (period_ns > 0.0) d.fmax_ghz = 1.0 / period_ns;
      }
      if (tier != EvalTier::Flat) {
        d.triage_tier = TriageTier::McFallback;
        if (triage != nullptr) {
          d.triage_margin_ns = triage->margin_ns;
          d.triage_band_ns = triage->band_ns;
        }
      }
    }

    VirtualChip chip;
    {
      const auto s = tr.scope("vi.fabricate", die.id);
      Rng fab_rng = die_rng.fork();
      chip = fabricate_chip(*fab.design, *fab.model, die.location, fab_rng);
    }
    CompensationOutcome comp;
    {
      const auto s = tr.scope("vi.compensate", die.id);
      comp = ctrl.compensate(chip, cfg.allow_escalation);
    }
    d.detected_severity = comp.detected_severity;
    d.islands_raised = comp.islands_raised;
    d.escalated = comp.escalated;
    d.missed_violation = comp.missed_violation;
    d.wns_all_low_ns = comp.wns_before;
    d.wns_final_ns = comp.wns_after;
    d.timing_met = comp.timing_met;

    std::vector<int> corners;
    if (comp.timing_met) {
      d.policy = comp.islands_raised == 0 ? TuningPolicy::AllLow
                                          : TuningPolicy::NestedIslands;
      corners = fab.plan->corners_for_severity(comp.islands_raised);
    } else if (cfg.allow_chip_wide_fallback) {
      const auto s = tr.scope("vi.chip_wide", die.id);
      corners.assign(static_cast<std::size_t>(fab.plan->num_islands()) + 1,
                     kVddHigh);
      ctrl.set_chip_wide();
      const StaResult truth = engine.analyze(ctrl.chip_factors(chip));
      d.wns_final_ns = truth.wns;
      if (truth.wns >= 0.0) {
        d.policy = TuningPolicy::ChipWideHigh;
        d.timing_met = true;
      } else {
        d.policy = TuningPolicy::Discard;
      }
    } else {
      d.policy = TuningPolicy::Discard;
    }
    if (d.policy == TuningPolicy::Discard) corners.clear();

    {
      const auto s = tr.scope("power.compute", die.id);
      PowerConfig pc;
      pc.clock_freq_ghz = fab.clock_freq_ghz;
      pc.variation = fab.model;
      pc.location = &die.location;
      pc.systematic = systematic;
      const PowerBreakdown p = power.compute(corners, pc);
      d.total_mw = p.total_mw();
      d.leakage_mw = p.leakage_mw;
    }
  }

  {
    const auto s = tr.scope("yield.reduce", unit);
    const int budget = per_die_mc_budget(cfg.mc);
    for (const DieOutcome& d : out.dies) {
      out.agg.add(d, fab.plan->num_islands(), budget);
    }
  }
  return out;
}

ReplicaCampaign replicate_campaign(const CampaignRunner& runner,
                                   const FabView& base,
                                   const CampaignSpec& spec, Tracer& tr) {
  if (runner.num_variants() != 1) {
    throw std::invalid_argument("replicate_campaign: expects one variant");
  }
  ReplicaCampaign out;
  const std::size_t npol = spec.policies.size();
  const std::size_t nsig = spec.sigma_scales.size();
  std::vector<CompiledPolicy> compiled(npol);
  std::vector<std::unique_ptr<VariationModel>> models(nsig);
  std::vector<std::unique_ptr<YieldAnalyzer>> analyzers(npol * nsig);
  // Slot maps per (netlist, wafer grid): pure-VI mixes share the
  // baseline's set, as the planner does (map_of[p] = the set policy p
  // reads).
  std::vector<std::vector<std::vector<std::vector<double>>>> map_sets(npol);
  std::vector<std::size_t> map_of(npol, 0);
  // The replica's stand-in for each analyzer's private PowerEngine.
  std::vector<std::unique_ptr<PowerEngine>> power(npol);

  const auto campaign_span = tr.scope("campaign", 0);
  std::vector<CampaignCell> cells;
  std::vector<WaferModel> wafers;
  {
    const auto s = tr.scope("campaign.expand", 0);
    cells = runner.expand(spec);
    for (const WaferConfig& wc : spec.wafer_grids) wafers.emplace_back(wc);
  }
  for (std::size_t p = 0; p < npol; ++p) {
    const auto s = tr.scope("vi.policy_compile", static_cast<long>(p));
    compiled[p] = compile_policy_mix(spec.policies[p], *base.design, *base.sta,
                                     *base.model, *base.activity);
  }
  for (std::size_t s = 0; s < nsig; ++s) {
    const auto sp = tr.scope("variation.model_copy", static_cast<long>(s));
    VariationConfig vc = base.model->config();
    vc.three_sigma_random_frac *= spec.sigma_scales[s];
    models[s] = std::make_unique<VariationModel>(base.model->char_params(),
                                                 base.model->field(), vc);
  }
  const auto view = [&](std::size_t p, std::size_t s) {
    FabView v = base;
    v.design = &compiled[p].design_or(*base.design);
    v.sta = &compiled[p].sta_or(*base.sta);
    v.activity = &compiled[p].activity_or(*base.activity);
    v.model = models[s].get();
    return v;
  };
  for (std::size_t p = 0; p < npol; ++p) {
    for (std::size_t s = 0; s < nsig; ++s) {
      const auto sp =
          tr.scope("yield.analyzer", static_cast<long>(p * nsig + s));
      const FabView v = view(p, s);
      auto an = std::make_unique<YieldAnalyzer>(
          *v.design, *v.sta, *v.model, *v.plan, *v.sensors, *v.activity,
          v.clock_freq_ghz);
      an->set_portfolio(compiled[p].stats);
      analyzers[p * nsig + s] = std::move(an);
    }
  }
  std::size_t baseline_maps = npol;  // the first pure-VI policy's maps
  for (std::size_t p = 0; p < npol; ++p) {
    const bool pure_vi = !compiled[p].transformed();
    if (pure_vi && baseline_maps < npol) {
      map_of[p] = baseline_maps;
      continue;
    }
    const auto sp = tr.scope("yield.slot_maps", static_cast<long>(p));
    for (const WaferModel& w : wafers) {
      map_sets[p].push_back(analyzers[p * nsig]->reticle_slot_maps(w));
    }
    map_of[p] = p;
    if (pure_vi) baseline_maps = p;
  }
  const auto maps = [&](std::size_t p, std::size_t g)
      -> const std::vector<std::vector<double>>& {
    return map_sets[map_of[p]][g];
  };
  if (spec.base.effective_tier() == EvalTier::Macro) {
    for (std::size_t a = 0; a < analyzers.size(); ++a) {
      const auto sp = tr.scope("ssta.characterize", static_cast<long>(a));
      (void)analyzers[a]->macro_library(spec.base.macro);
    }
  }
  std::vector<std::vector<SlotTriage>> screens(cells.size());
  if (spec.base.effective_tier() != EvalTier::Flat) {
    for (const CampaignCell& c : cells) {
      const auto sp = tr.scope("ssta.screen", c.index);
      screens[c.index] = analyzers[c.policy * nsig + c.sigma]->tier_screen(
          wafers[c.wafer_grid], c.config, maps(c.policy, c.wafer_grid));
      out.slots += screens[c.index].size();
      for (const SlotTriage& st : screens[c.index]) {
        out.decided_slots += st.decided ? 1 : 0;
      }
    }
  }

  out.cells.resize(cells.size());
  for (const CampaignCell& c : cells) {
    const FabView v = view(c.policy, c.sigma);
    if (!power[c.policy]) {
      const auto sp = tr.scope("power.engine", c.policy);
      power[c.policy] = std::make_unique<PowerEngine>(*v.design, *v.activity);
    }
    for (int w = 0; w < spec.wafers_per_cell; ++w) {
      YieldConfig cfg = c.config;
      cfg.seed = campaign_wafer_seed(spec.seed, c.index,
                                     static_cast<std::uint64_t>(w));
      const ReplicaWafer rw = replicate_wafer(
          *analyzers[c.policy * nsig + c.sigma], v, *power[c.policy],
          wafers[c.wafer_grid], cfg, tr, c.index,
          &maps(c.policy, c.wafer_grid), &screens[c.index]);
      out.cells[c.index].merge(rw.agg);
    }
  }
  return out;
}

}  // namespace vipvt::e2e
