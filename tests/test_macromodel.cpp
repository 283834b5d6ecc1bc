// Stage-macromodel (hierarchical STA, DESIGN.md §19) tests: the
// macromodel-vs-flat equivalence fuzz (stage moments within the §14 CI
// band across sigma scales x escalation ladder x reticle slots, yield
// verdict agreement across seeds), characterization determinism,
// cache-key correctness across policy-transformed netlists, and
// thread-count byte identity of macro-tier reports.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>
#include <vector>

#include "io/yield_writers.hpp"
#include "ssta/canonical.hpp"
#include "ssta/macromodel.hpp"
#include "util/stats.hpp"
#include "vi/flow.hpp"
#include "vi/policy.hpp"
#include "yield/wafer.hpp"
#include "yield/yield.hpp"

namespace vipvt {
namespace {

FlowConfig tiny_flow_config() {
  FlowConfig cfg;
  cfg.vex = VexConfig::tiny();
  cfg.floorplan.target_utilization = 0.55;
  cfg.scenario.sweep_points = 6;
  cfg.scenario.mc.samples = 100;
  cfg.islands.mc_samples = 80;
  cfg.sim_cycles = 150;
  return cfg;
}

WaferConfig test_wafer_config() {
  WaferConfig wc;
  wc.wafer_diameter_mm = 200.0;
  return wc;
}

YieldConfig macro_off_config() {
  YieldConfig yc;
  yc.mc.samples = 12;
  yc.seed = 0xd1e5;
  return yc;
}

YieldConfig macro_on_config() {
  YieldConfig yc = macro_off_config();
  yc.tier = EvalTier::Macro;
  return yc;
}

/// Everything a die reports EXCEPT the MC-population fields a screen
/// replaces: these must be bitwise equal macro-tier on or off.
std::string non_mc_fingerprint(const YieldReport& r) {
  std::ostringstream os;
  for (const DieOutcome& d : r.dies) {
    os << d.die_id << ' ' << d.detected_severity << ' ' << d.islands_raised
       << ' ' << static_cast<int>(d.policy) << ' ' << d.timing_met << ' '
       << d.escalated << ' ' << d.missed_violation << ' '
       << std::hexfloat << d.wns_all_low_ns << ' ' << d.wns_final_ns << ' '
       << d.total_mw << ' ' << d.leakage_mw << std::defaultfloat << '\n';
  }
  return os.str();
}

class MacroFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    flow_ = new Flow(tiny_flow_config());
    flow_->simulate_activity();
  }
  static void TearDownTestSuite() {
    delete flow_;
    flow_ = nullptr;
  }
  static Flow* flow_;
};

Flow* MacroFixture::flow_ = nullptr;

// ---- characterization determinism ------------------------------------------

TEST_F(MacroFixture, CharacterizationIsBitDeterministic) {
  StaEngine engine(flow_->sta());
  engine.compute_base_all_low();
  const StageMacroLibrary a(flow_->design(), engine, flow_->variation());
  const StageMacroLibrary b(flow_->design(), engine, flow_->variation());
  EXPECT_FALSE(a.fingerprint().empty());
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
}

TEST_F(MacroFixture, EvaluateRejectsShortSystematicMap) {
  StaEngine engine(flow_->sta());
  engine.compute_base_all_low();
  const StageMacroLibrary lib(flow_->design(), engine, flow_->variation());
  const std::vector<double> short_map(flow_->design().num_instances() - 1,
                                      45.0);
  EXPECT_THROW((void)lib.evaluate(short_map), std::invalid_argument);
}

TEST_F(MacroFixture, RejectsDegenerateConfigs) {
  StaEngine engine(flow_->sta());
  engine.compute_base_all_low();
  MacroConfig one;
  one.knots = 1;
  EXPECT_THROW(
      StageMacroLibrary(flow_->design(), engine, flow_->variation(), one),
      std::invalid_argument);
  for (const double step : {0.0, std::numeric_limits<double>::infinity()}) {
    MacroConfig bad_step;
    bad_step.grad_step = step;
    EXPECT_THROW(StageMacroLibrary(flow_->design(), engine, flow_->variation(),
                                   bad_step),
                 std::invalid_argument)
        << "grad_step " << step;
  }
}

// ---- equivalence fuzz vs the flat canonical path ---------------------------

// The §14 CI band the triage/macro verdict uses (DESIGN.md §16): what an
// n-sample MC estimate could plausibly disagree with analytic moments
// by, plus the model-error allowance.  The macromodel must agree with
// the FLAT canonical pass much tighter than either agrees with MC, so
// the band is a conservative equivalence bound.
double ci_band(std::size_t n, double sigma_ns, const TriageConfig& tc) {
  return tc.band_scale *
             (mean_confidence_interval(n, 0.0, sigma_ns, tc.confidence)
                  .half_width() +
              3.0 * stddev_confidence_interval(n, sigma_ns, tc.confidence)
                        .half_width()) +
         tc.model_error_ns;
}

TEST_F(MacroFixture, StageMomentsTrackFlatCanonicalAcrossSigmaAndLadder) {
  const Design& design = flow_->design();
  const VariationModel& base_model = flow_->variation();
  const IslandPlan& plan = flow_->island_plan();
  const TriageConfig tc{};  // default band knobs
  const std::size_t n = 48;

  for (const double sigma_scale : {0.75, 1.0, 1.25}) {
    VariationConfig vc = base_model.config();
    vc.three_sigma_random_frac *= sigma_scale;
    const VariationModel model(base_model.char_params(), base_model.field(),
                               vc);
    for (int level = 0; level <= plan.num_islands(); ++level) {
      StaEngine engine(flow_->sta());
      engine.compute_base(plan.corners_for_severity(level));
      const CanonicalSsta canon(design, engine, model);
      const StageMacroLibrary lib(design, engine, model);
      for (const char loc : {'A', 'B', 'C', 'D'}) {
        const std::vector<double> map =
            model.systematic_lgates(design, DieLocation::point(loc));
        const CanonicalResult flat = canon.run(map);
        const CanonicalResult macro = lib.evaluate(map);
        for (int s = 0; s < kNumPipeStages; ++s) {
          const StageGauss& f = flat.stages[static_cast<std::size_t>(s)];
          const StageGauss& m = macro.stages[static_cast<std::size_t>(s)];
          ASSERT_EQ(f.present, m.present)
              << "sigma " << sigma_scale << " level " << level << " loc "
              << loc << " stage " << s;
          if (!f.present) continue;
          const double band = ci_band(n, f.sigma_ns, tc);
          EXPECT_NEAR(m.mean_slack_ns, f.mean_slack_ns, band)
              << "sigma " << sigma_scale << " level " << level << " loc "
              << loc << " stage " << s;
          EXPECT_NEAR(3.0 * m.sigma_ns, 3.0 * f.sigma_ns, band)
              << "sigma " << sigma_scale << " level " << level << " loc "
              << loc << " stage " << s;
        }
        const double mp_band = ci_band(n, flat.min_period_sigma_ns, tc);
        EXPECT_NEAR(macro.min_period_mean_ns, flat.min_period_mean_ns, mp_band);
        EXPECT_NEAR(3.0 * macro.min_period_sigma_ns,
                    3.0 * flat.min_period_sigma_ns, mp_band);
      }
    }
  }
}

TEST_F(MacroFixture, WaferVerdictsAgreeWithFlatMcAcrossSeeds) {
  // Yield-verdict agreement fuzz: on macro-decided dies, the macromodel
  // severity may disagree with full MC at most at the band's stated
  // error rate (the same allowance the bench gates, with headroom for
  // discreteness on small wafers).
  const WaferModel wafer(test_wafer_config());
  const YieldAnalyzer analyzer = YieldAnalyzer::from_flow(*flow_);
  for (const std::uint64_t seed : {0xd1e5ull, 0xabc123ull}) {
    YieldConfig off = macro_off_config();
    off.seed = seed;
    YieldConfig on = macro_on_config();
    on.seed = seed;
    const YieldReport flat = analyzer.analyze(wafer, off);
    const YieldReport macro = analyzer.analyze(wafer, on);
    ASSERT_EQ(flat.dies.size(), macro.dies.size());
    std::size_t decided = 0, mismatched = 0;
    for (std::size_t i = 0; i < macro.dies.size(); ++i) {
      if (macro.dies[i].triage_tier != TriageTier::Macro) continue;
      ++decided;
      if (macro.dies[i].mc_severity != flat.dies[i].mc_severity) ++mismatched;
    }
    EXPECT_GT(decided, 0u) << "seed " << seed;
    const double allowed = std::ceil(
        3.0 * (1.0 - on.triage.confidence) * static_cast<double>(decided));
    EXPECT_LE(static_cast<double>(mismatched), allowed) << "seed " << seed;
  }
}

// ---- cache-key correctness across policy-transformed netlists --------------

TEST_F(MacroFixture, PolicyTransformedNetlistGetsItsOwnLibrary) {
  PolicyMix mix;
  mix.name = "sizing";
  mix.sizing.enabled = true;
  mix.sizing.min_crit_prob = 0.02;
  mix.crit_samples = 8;
  const CompiledPolicy cp =
      compile_policy_mix(mix, flow_->design(), flow_->sta(),
                         flow_->variation(), flow_->activity());
  ASSERT_TRUE(cp.transformed());
  ASSERT_GT(cp.stats.gates_upsized, 0u);

  const YieldAnalyzer base = YieldAnalyzer::from_flow(*flow_);
  const YieldAnalyzer compiled(*cp.design, *cp.sta, flow_->variation(),
                               flow_->island_plan(), flow_->razor_plan(),
                               *cp.activity,
                               1.0 / flow_->post_shifter_clock_ns());
  const MacroConfig mc{};
  const StageMacroLibrary& lib_base = base.macro_library(mc);
  const StageMacroLibrary& lib_compiled = compiled.macro_library(mc);
  // Upsizing changed stage timing, so the characterized rows must differ
  // — analyzers never share a library across netlist variants.
  EXPECT_NE(&lib_base, &lib_compiled);
  EXPECT_NE(lib_base.fingerprint(), lib_compiled.fingerprint());
}

TEST_F(MacroFixture, LibraryCacheReusedForSameKeyRebuiltForNewKey) {
  const YieldAnalyzer analyzer = YieldAnalyzer::from_flow(*flow_);
  const MacroConfig a{};
  const StageMacroLibrary& first = analyzer.macro_library(a);
  const std::uint64_t passes_after_first = first.passes();
  // Same key: cached, no new characterization passes.
  const StageMacroLibrary& again = analyzer.macro_library(a);
  EXPECT_EQ(&first, &again);
  EXPECT_EQ(again.passes(), passes_after_first);
  // New key: re-characterized with the new knot count.
  MacroConfig b;
  b.knots = 5;
  const StageMacroLibrary& rebuilt = analyzer.macro_library(b);
  EXPECT_EQ(rebuilt.config().knots, 5);
  // Same-key verdicts are stable across the rebuild boundary: a fresh
  // default-key library reproduces the original fingerprint.
  const StageMacroLibrary& back = analyzer.macro_library(a);
  StaEngine engine(flow_->sta());
  engine.compute_base_all_low();
  const StageMacroLibrary fresh(flow_->design(), engine, flow_->variation(),
                                a);
  EXPECT_EQ(back.fingerprint(), fresh.fingerprint());
}

// ---- macro tier report contracts -------------------------------------------

TEST_F(MacroFixture, MacroDecidedDiesSkipMcAndKeepSiliconBits) {
  const WaferModel wafer(test_wafer_config());
  const YieldAnalyzer analyzer = YieldAnalyzer::from_flow(*flow_);
  const YieldReport off = analyzer.analyze(wafer, macro_off_config());
  YieldConfig on_cfg = macro_on_config();
  on_cfg.triage.band_scale = 0.0;
  on_cfg.triage.model_error_ns = 0.0;
  const YieldReport on = analyzer.analyze(wafer, on_cfg);

  EXPECT_EQ(on.agg.triage_macro + on.agg.triage_mc_fallback, on.dies.size());
  EXPECT_GT(on.agg.triage_macro, 0u);
  EXPECT_EQ(on.agg.triage_analytical, 0u);
  EXPECT_GT(on.agg.triage_fraction(), 0.0);
  for (const DieOutcome& d : on.dies) {
    if (d.triage_tier != TriageTier::Macro) continue;
    EXPECT_EQ(d.mc_samples, 0);
    EXPECT_EQ(d.mc_stop, McStop::FixedBudget);
    EXPECT_GT(d.fmax_ghz, 0.0);
    EXPECT_GT(d.triage_margin_ns, d.triage_band_ns);
  }
  EXPECT_EQ(non_mc_fingerprint(on), non_mc_fingerprint(off));
}

TEST_F(MacroFixture, HugeBandMacroFallsBackToMcWithIdenticalResults) {
  const WaferModel wafer(test_wafer_config());
  const YieldAnalyzer analyzer = YieldAnalyzer::from_flow(*flow_);
  const YieldReport off = analyzer.analyze(wafer, macro_off_config());
  YieldConfig on_cfg = macro_on_config();
  on_cfg.triage.model_error_ns = 1e9;
  const YieldReport on = analyzer.analyze(wafer, on_cfg);

  EXPECT_EQ(on.agg.triage_macro, 0u);
  EXPECT_EQ(on.agg.triage_mc_fallback, on.dies.size());
  ASSERT_EQ(on.dies.size(), off.dies.size());
  for (std::size_t i = 0; i < on.dies.size(); ++i) {
    EXPECT_EQ(on.dies[i].triage_tier, TriageTier::McFallback);
    EXPECT_EQ(on.dies[i].mc_severity, off.dies[i].mc_severity);
    EXPECT_EQ(on.dies[i].mc_samples, off.dies[i].mc_samples);
    EXPECT_DOUBLE_EQ(on.dies[i].fmax_ghz, off.dies[i].fmax_ghz);
  }
  EXPECT_EQ(non_mc_fingerprint(on), non_mc_fingerprint(off));
}

TEST_F(MacroFixture, MacroReportBitIdenticalAcrossThreadCounts) {
  const WaferModel wafer(test_wafer_config());
  const YieldAnalyzer analyzer = YieldAnalyzer::from_flow(*flow_);
  const YieldConfig cfg = macro_on_config();
  const auto serialize = [&](const YieldReport& r) {
    std::ostringstream os;
    write_yield_csv(os, wafer, r);
    write_yield_json(os, r);
    return os.str();
  };
  ThreadPool four(4);
  const std::string serial_txt = serialize(analyzer.analyze(wafer, cfg));
  EXPECT_EQ(serialize(analyzer.analyze(wafer, cfg, &four)), serial_txt);
}

TEST_F(MacroFixture, ShardsWithoutSharedScreenReproduceTheMacroWaferRun) {
  const WaferModel wafer(test_wafer_config());
  const YieldAnalyzer analyzer = YieldAnalyzer::from_flow(*flow_);
  const YieldConfig cfg = macro_on_config();
  const YieldReport full = analyzer.analyze(wafer, cfg);

  StaEngine engine(flow_->sta());
  CompensationController ctrl(flow_->design(), engine, flow_->variation(),
                              flow_->island_plan(), flow_->razor_plan());
  const std::size_t mid = wafer.num_dies() / 2;
  YieldAggregate agg = analyzer.analyze_shard(engine, ctrl, wafer, cfg, 0, mid);
  agg.merge(
      analyzer.analyze_shard(engine, ctrl, wafer, cfg, mid, wafer.num_dies()));

  EXPECT_EQ(agg, full.agg);
}

}  // namespace
}  // namespace vipvt
