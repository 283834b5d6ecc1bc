// Canonical-SSTA tests: Clark's max against closed forms and a 100k-
// sample empirical check, the engine's analytic stage moments against a
// Monte-Carlo reference on the tiny core, and the yield-layer triage
// wiring contracts (DESIGN.md §16) — tier accounting, bit-identical
// non-MC outputs, thread/shard invariance with triage enabled.

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <sstream>
#include <vector>

#include "io/yield_writers.hpp"
#include "ssta/canonical.hpp"
#include "ssta/clark.hpp"
#include "util/rng.hpp"
#include "variation/mc_ssta.hpp"
#include "vi/flow.hpp"
#include "yield/wafer.hpp"
#include "yield/yield.hpp"

namespace vipvt {
namespace {

// ---- Clark's max: closed forms ---------------------------------------------

TEST(ClarkMax, EqualIndependentNormalsMatchClosedForm) {
  // For i.i.d. A, B ~ N(mu, s^2): E[max] = mu + s/sqrt(pi),
  // Var[max] = s^2 (1 - 1/pi).
  const double mu = 2.0, s = 0.5;
  const ClarkMax m = clark_max(mu, s * s, mu, s * s, 0.0);
  EXPECT_NEAR(m.mean, mu + s / std::sqrt(std::numbers::pi), 1e-12);
  EXPECT_NEAR(m.var, s * s * (1.0 - 1.0 / std::numbers::pi), 1e-12);
  EXPECT_NEAR(m.p, 0.5, 1e-12);
}

TEST(ClarkMax, ZeroVarianceReducesToScalarMax) {
  const ClarkMax m = clark_max(1.0, 0.0, 2.0, 0.0, 0.0);
  EXPECT_DOUBLE_EQ(m.mean, 2.0);
  EXPECT_DOUBLE_EQ(m.var, 0.0);
  EXPECT_DOUBLE_EQ(m.p, 0.0);  // b wins
}

TEST(ClarkMax, PerfectCorrelationPicksLargerMeanExactly) {
  // Equal variance, correlation 1 => theta = 0: max(A, A + 1) = A + 1,
  // so the result is exactly the larger-mean operand's distribution.
  const ClarkMax hi_b = clark_max(1.0, 0.04, 2.0, 0.04, 0.04);
  EXPECT_DOUBLE_EQ(hi_b.mean, 2.0);
  EXPECT_DOUBLE_EQ(hi_b.var, 0.04);
  EXPECT_DOUBLE_EQ(hi_b.p, 0.0);
  const ClarkMax hi_a = clark_max(2.0, 0.04, 1.0, 0.04, 0.04);
  EXPECT_DOUBLE_EQ(hi_a.mean, 2.0);
  EXPECT_DOUBLE_EQ(hi_a.var, 0.04);
  EXPECT_DOUBLE_EQ(hi_a.p, 1.0);
}

TEST(ClarkMax, DominantOperandKeepsItsMoments) {
  // B sits 50 sigma above A: max is indistinguishable from B.
  const ClarkMax m = clark_max(0.0, 1.0, 100.0, 4.0, 0.0);
  EXPECT_NEAR(m.mean, 100.0, 1e-9);
  EXPECT_NEAR(m.var, 4.0, 1e-6);
  EXPECT_NEAR(m.p, 0.0, 1e-12);
}

TEST(ClarkMax, MatchesEmpiricalMomentsAt100kSamples) {
  // General correlated case, no closed form: Clark's formulas are EXACT
  // for the first two moments of max(A, B) on jointly normal inputs, so
  // the empirical moments must agree within Monte-Carlo error.
  const double mu_a = 1.0, va = 0.04, mu_b = 1.1, vb = 0.09, cov = 0.02;
  const ClarkMax m = clark_max(mu_a, va, mu_b, vb, cov);

  // Draw (A, B) via Cholesky: A = mu_a + sa z1, B = mu_b + c1 z1 + c2 z2.
  const double sa = std::sqrt(va);
  const double c1 = cov / sa;
  const double c2 = std::sqrt(vb - c1 * c1);
  const int n = 100000;
  Rng rng(0xc1a123);
  double sum = 0.0, sum2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double z1 = rng.normal(), z2 = rng.normal();
    const double a = mu_a + sa * z1;
    const double b = mu_b + c1 * z1 + c2 * z2;
    const double mx = a > b ? a : b;
    sum += mx;
    sum2 += mx * mx;
  }
  const double emp_mean = sum / n;
  const double emp_var = sum2 / n - emp_mean * emp_mean;
  // 5 standard errors: se(mean) ~ sd/sqrt(n), se(var) ~ var sqrt(2/n).
  EXPECT_NEAR(m.mean, emp_mean, 5.0 * std::sqrt(m.var / n));
  EXPECT_NEAR(m.var, emp_var, 5.0 * m.var * std::sqrt(2.0 / n));
}

// ---- engine vs Monte-Carlo on the tiny core --------------------------------

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

class SstaFixture : public ::testing::Test {
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

Flow* SstaFixture::flow_ = nullptr;

TEST_F(SstaFixture, StageMomentsTrackMonteCarloAtAllLow) {
  StaEngine engine(flow_->sta());
  engine.compute_base_all_low();
  const VariationModel& model = flow_->variation();
  const std::vector<double> systematic =
      model.systematic_lgates(flow_->design(), DieLocation::point('A'));

  const CanonicalSsta canon(flow_->design(), engine, model);
  const CanonicalResult ana = canon.run(systematic);

  McConfig mcc;
  mcc.samples = 1024;
  mcc.seed = 0x9e3779b9;
  const McResult mc = MonteCarloSsta(flow_->design(), engine, model)
                          .run_with_systematic(systematic, mcc);

  for (int s = 0; s < kNumPipeStages; ++s) {
    const auto stage = static_cast<PipeStage>(s);
    const StageGauss& g = ana.stage(stage);
    const StageSlackDist& d = mc.stage(stage);
    EXPECT_EQ(g.present, d.present) << "stage " << s;
    if (!d.present) continue;
    // Clark merges with the independent parts of reconverging paths
    // treated as uncorrelated (the documented canonical-form
    // approximation) shave sigma and push the mean pessimistic; the two
    // largely CANCEL in the 3-sigma slack, which is the only number the
    // triage verdict consumes — so that is what gets the tight bound
    // (measured model error ~0.01 ns on this core, plus the MC
    // estimate's own ~0.011 ns standard error at 1024 samples).
    EXPECT_NEAR(g.three_sigma_slack(), d.three_sigma_slack(), 0.03)
        << "stage " << s;
    // The raw moments get directional sanity bounds: mean within a few
    // hundredths pessimistic, sigma inside a broad factor of the MC fit.
    EXPECT_NEAR(g.mean_slack_ns, d.fit.mean, 0.05) << "stage " << s;
    EXPECT_LE(g.mean_slack_ns, d.fit.mean + 0.01) << "stage " << s;
    EXPECT_LE(g.sigma_ns, 1.5 * d.fit.stddev + 1e-3) << "stage " << s;
    EXPECT_GE(g.sigma_ns, 0.25 * d.fit.stddev - 1e-3) << "stage " << s;
  }
  // The analytic min-period moments back the triage fmax: the MC
  // counterpart is the min-period sample distribution.
  RunningStats mp;
  for (double v : mc.min_period_samples) mp.add(v);
  EXPECT_NEAR(ana.min_period_mean_ns, mp.mean(), 0.05);
  EXPECT_LE(mp.mean(), ana.min_period_mean_ns + 0.01);  // analytic pessimistic
  EXPECT_LE(ana.min_period_sigma_ns, 1.5 * mp.stddev() + 1e-3);
  EXPECT_GE(ana.min_period_sigma_ns, 0.25 * mp.stddev() - 1e-3);
}

TEST_F(SstaFixture, RunRejectsShortSystematicMap) {
  StaEngine engine(flow_->sta());
  engine.compute_base_all_low();
  const CanonicalSsta canon(flow_->design(), engine, flow_->variation());
  const std::vector<double> short_map(flow_->design().num_instances() - 1,
                                      45.0);
  EXPECT_THROW((void)canon.run(short_map), std::invalid_argument);
}

// ---- triage wiring (DESIGN.md §16) -----------------------------------------

YieldConfig triage_off_config() {
  YieldConfig yc;
  yc.mc.samples = 12;
  yc.seed = 0xd1e5;
  return yc;
}

/// Everything a die reports EXCEPT the MC-population fields the analytic
/// tier replaces: these must be bitwise equal with triage on or off.
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

TEST_F(SstaFixture, TriageOffReportsOffTierEverywhere) {
  const WaferModel wafer(test_wafer_config());
  const YieldAnalyzer analyzer = YieldAnalyzer::from_flow(*flow_);
  const YieldReport r = analyzer.analyze(wafer, triage_off_config());
  EXPECT_EQ(r.agg.triage_analytical, 0u);
  EXPECT_EQ(r.agg.triage_mc_fallback, 0u);
  EXPECT_DOUBLE_EQ(r.agg.triage_fraction(), 0.0);
  for (const DieOutcome& d : r.dies) {
    EXPECT_EQ(d.triage_tier, TriageTier::Off);
    EXPECT_DOUBLE_EQ(d.triage_margin_ns, 0.0);
    EXPECT_DOUBLE_EQ(d.triage_band_ns, 0.0);
  }
}

TEST_F(SstaFixture, HugeBandFallsBackToMcWithIdenticalResults) {
  // An absurd model-error allowance makes every slot undecided: every
  // die must run the unchanged MC path, so ALL result fields — including
  // the MC-derived ones — match the triage-off run exactly.
  const WaferModel wafer(test_wafer_config());
  const YieldAnalyzer analyzer = YieldAnalyzer::from_flow(*flow_);
  const YieldReport off = analyzer.analyze(wafer, triage_off_config());
  YieldConfig on_cfg = triage_off_config();
  on_cfg.triage.enabled = true;
  on_cfg.triage.model_error_ns = 1e9;
  const YieldReport on = analyzer.analyze(wafer, on_cfg);

  EXPECT_EQ(on.agg.triage_analytical, 0u);
  EXPECT_EQ(on.agg.triage_mc_fallback, on.dies.size());
  ASSERT_EQ(on.dies.size(), off.dies.size());
  for (std::size_t i = 0; i < on.dies.size(); ++i) {
    EXPECT_EQ(on.dies[i].triage_tier, TriageTier::McFallback);
    EXPECT_EQ(on.dies[i].mc_severity, off.dies[i].mc_severity);
    EXPECT_EQ(on.dies[i].mc_samples, off.dies[i].mc_samples);
    EXPECT_DOUBLE_EQ(on.dies[i].fmax_ghz, off.dies[i].fmax_ghz);
    EXPECT_GT(on.dies[i].triage_band_ns, 1e8);  // the band that refused
  }
  EXPECT_EQ(non_mc_fingerprint(on), non_mc_fingerprint(off));
}

TEST_F(SstaFixture, AnalyticalVerdictSkipsMcAndKeepsSiliconBits) {
  // A zero band decides every slot whose margin is strictly positive —
  // in practice all of them: every die takes the analytic verdict, skips
  // MC (mc_samples == 0), and still reports bit-identical fabrication /
  // policy / power because the RNG stream positions are preserved.
  const WaferModel wafer(test_wafer_config());
  const YieldAnalyzer analyzer = YieldAnalyzer::from_flow(*flow_);
  const YieldReport off = analyzer.analyze(wafer, triage_off_config());
  YieldConfig on_cfg = triage_off_config();
  on_cfg.triage.enabled = true;
  on_cfg.triage.band_scale = 0.0;
  on_cfg.triage.model_error_ns = 0.0;
  const YieldReport on = analyzer.analyze(wafer, on_cfg);

  EXPECT_EQ(on.agg.triage_analytical + on.agg.triage_mc_fallback,
            on.dies.size());
  EXPECT_GT(on.agg.triage_analytical, 0u);
  EXPECT_GT(on.agg.triage_fraction(), 0.0);
  for (const DieOutcome& d : on.dies) {
    if (d.triage_tier != TriageTier::Analytical) continue;
    EXPECT_EQ(d.mc_samples, 0);
    EXPECT_EQ(d.mc_stop, McStop::FixedBudget);
    EXPECT_GT(d.fmax_ghz, 0.0);
    EXPECT_GT(d.triage_margin_ns, d.triage_band_ns);
  }
  EXPECT_EQ(non_mc_fingerprint(on), non_mc_fingerprint(off));
}

TEST_F(SstaFixture, TriagedReportBitIdenticalAcrossThreadCounts) {
  const WaferModel wafer(test_wafer_config());
  const YieldAnalyzer analyzer = YieldAnalyzer::from_flow(*flow_);
  YieldConfig cfg = triage_off_config();
  cfg.triage.enabled = true;
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

TEST_F(SstaFixture, ShardsWithoutSharedScreenReproduceTheWaferRun) {
  // A shard given no screen (and no slot maps) must recompute both and
  // land on the same bits as the full analyze() run — the partition-
  // invariance contract the campaign layer leans on.
  const WaferModel wafer(test_wafer_config());
  const YieldAnalyzer analyzer = YieldAnalyzer::from_flow(*flow_);
  YieldConfig cfg = triage_off_config();
  cfg.triage.enabled = true;
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

TEST_F(SstaFixture, SingleDiePathMatchesWaferPath) {
  const WaferModel wafer(test_wafer_config());
  const YieldAnalyzer analyzer = YieldAnalyzer::from_flow(*flow_);
  YieldConfig cfg = triage_off_config();
  cfg.triage.enabled = true;
  const YieldReport full = analyzer.analyze(wafer, cfg);
  StaEngine engine(flow_->sta());
  const DieOutcome solo = analyzer.analyze_die(engine, wafer.dies()[0], cfg);
  EXPECT_EQ(solo.triage_tier, full.dies[0].triage_tier);
  EXPECT_EQ(solo.mc_severity, full.dies[0].mc_severity);
  EXPECT_EQ(solo.mc_samples, full.dies[0].mc_samples);
  EXPECT_DOUBLE_EQ(solo.fmax_ghz, full.dies[0].fmax_ghz);
  EXPECT_DOUBLE_EQ(solo.triage_margin_ns, full.dies[0].triage_margin_ns);
  EXPECT_DOUBLE_EQ(solo.triage_band_ns, full.dies[0].triage_band_ns);
  EXPECT_DOUBLE_EQ(solo.total_mw, full.dies[0].total_mw);
}

}  // namespace
}  // namespace vipvt
