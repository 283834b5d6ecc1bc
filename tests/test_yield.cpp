// Wafer-scale yield subsystem tests: wafer geometry invariants, report
// consistency, and — the load-bearing contract — BIT-IDENTICAL reports
// for serial, 1-thread and N-thread runs over a >= 100-die wafer.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <numbers>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>

#include "campaign/checkpoint.hpp"
#include "io/yield_writers.hpp"
#include "ssta/canonical.hpp"
#include "vi/flow.hpp"
#include "yield/wafer.hpp"
#include "yield/yield.hpp"

namespace vipvt {
namespace {

WaferConfig test_wafer_config() {
  WaferConfig wc;
  wc.wafer_diameter_mm = 200.0;  // 120 dies with the 28 mm / 14 mm geometry
  return wc;
}

YieldConfig test_yield_config() {
  YieldConfig yc;
  yc.mc.samples = 12;  // population stats only need a coarse sketch here
  yc.seed = 0xd1e5;
  return yc;
}

// ---- wafer geometry (no flow needed) --------------------------------------

TEST(WaferModel, StampsAtLeastOneHundredDies) {
  const WaferModel wafer(test_wafer_config());
  EXPECT_GE(wafer.num_dies(), 100u);
  EXPECT_EQ(wafer.dies_per_field_side(), 2);
}

TEST(WaferModel, DieIdsAreDenseRowMajor) {
  const WaferModel wafer(test_wafer_config());
  int prev_row = -1, prev_col = -1;
  for (std::size_t i = 0; i < wafer.num_dies(); ++i) {
    const WaferDie& d = wafer.dies()[i];
    EXPECT_EQ(d.id, static_cast<int>(i));
    const int row = wafer.grid_row(d), col = wafer.grid_col(d);
    EXPECT_TRUE(row > prev_row || (row == prev_row && col > prev_col));
    prev_row = row;
    prev_col = col;
  }
}

TEST(WaferModel, DiesFitInsideUsableRadius) {
  const WaferConfig wc = test_wafer_config();
  const WaferModel wafer(wc);
  const double radius = 0.5 * wc.wafer_diameter_mm - wc.edge_exclusion_mm;
  const double half_diag = wc.die_mm * std::numbers::sqrt2 * 0.5;
  for (const WaferDie& d : wafer.dies()) {
    EXPECT_LE(std::hypot(d.center_mm.x, d.center_mm.y) + half_diag,
              radius + 1e-9);
  }
}

TEST(WaferModel, DieLocationsTileTheExposureField) {
  const WaferConfig wc = test_wafer_config();
  const WaferModel wafer(wc);
  std::set<std::pair<double, double>> field_positions;
  for (const WaferDie& d : wafer.dies()) {
    const Point o = d.location.chip_origin_mm;
    EXPECT_GE(o.x, 0.0);
    EXPECT_GE(o.y, 0.0);
    EXPECT_LE(o.x + wc.die_mm, wc.field_mm + 1e-9);
    EXPECT_LE(o.y + wc.die_mm, wc.field_mm + 1e-9);
    field_positions.insert({o.x, o.y});
  }
  // Every die-grid slot of the reticle occurs somewhere on the wafer.
  EXPECT_EQ(field_positions.size(),
            static_cast<std::size_t>(wafer.dies_per_field_side() *
                                     wafer.dies_per_field_side()));
}

TEST(WaferModel, AsciiMapRendersEveryDie) {
  const WaferModel wafer(test_wafer_config());
  const std::string map = wafer.ascii_map();
  EXPECT_EQ(static_cast<std::size_t>(
                std::count(map.begin(), map.end(), '#')),
            wafer.num_dies());
}

TEST(WaferModel, RejectsDegenerateConfigs) {
  WaferConfig wc;
  wc.die_mm = 0.0;
  EXPECT_THROW(WaferModel{wc}, std::invalid_argument);
  wc = WaferConfig{};
  wc.die_mm = 30.0;  // die larger than the exposure field
  EXPECT_THROW(WaferModel{wc}, std::invalid_argument);
  // Non-finite geometry passes every ordered comparison or overflows the
  // die grid's int arithmetic: each field must be finite.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (double WaferConfig::*field :
       {&WaferConfig::wafer_diameter_mm, &WaferConfig::edge_exclusion_mm,
        &WaferConfig::field_mm, &WaferConfig::die_mm}) {
    for (const double bad : {nan, inf, -inf}) {
      wc = WaferConfig{};
      wc.*field = bad;
      EXPECT_THROW(WaferModel{wc}, std::invalid_argument) << bad;
    }
  }
}

// ---- yield analysis over the tiny-core flow -------------------------------

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

class YieldFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    flow_ = new Flow(tiny_flow_config());
    flow_->simulate_activity();
    wafer_ = new WaferModel(test_wafer_config());
    const YieldAnalyzer analyzer = YieldAnalyzer::from_flow(*flow_);
    ThreadPool pool(4);
    report_ = new YieldReport(
        analyzer.analyze(*wafer_, test_yield_config(), &pool));
  }
  static void TearDownTestSuite() {
    delete report_;
    delete wafer_;
    delete flow_;
    report_ = nullptr;
    wafer_ = nullptr;
    flow_ = nullptr;
  }
  static Flow* flow_;
  static WaferModel* wafer_;
  static YieldReport* report_;
};

Flow* YieldFixture::flow_ = nullptr;
WaferModel* YieldFixture::wafer_ = nullptr;
YieldReport* YieldFixture::report_ = nullptr;

std::string serialize(const WaferModel& wafer, const YieldReport& report) {
  std::ostringstream os;
  write_yield_csv(os, wafer, report);
  write_yield_json(os, report);
  return os.str();
}

TEST_F(YieldFixture, ReportCoversEveryDieConsistently) {
  ASSERT_EQ(report_->dies.size(), wafer_->num_dies());
  std::size_t policy_sum = 0;
  for (const auto c : report_->agg.policy_count) policy_sum += c;
  EXPECT_EQ(policy_sum, report_->total_dies());
  EXPECT_GE(report_->agg.parametric_yield(), 0.0);
  EXPECT_LE(report_->agg.parametric_yield(), 1.0);
  for (std::size_t i = 0; i < report_->dies.size(); ++i) {
    const DieOutcome& d = report_->dies[i];
    EXPECT_EQ(d.die_id, static_cast<int>(i));
    EXPECT_GT(d.total_mw, 0.0);
    EXPECT_GT(d.fmax_ghz, 0.0);
    if (d.policy != TuningPolicy::Discard) {
      EXPECT_TRUE(d.timing_met);
    }
  }
}

TEST_F(YieldFixture, WaferReproducesThePaperGradient) {
  // Dies at the slow field corner (point-A position, field origin) must
  // demand at least as much compensation as dies at the fast corner
  // (point-D position) — the wafer-scale restatement of Fig. 3/4.
  RunningStats slow_islands, fast_islands;
  const double die = report_->wafer.die_mm;
  for (const DieOutcome& d : report_->dies) {
    const WaferDie& g = wafer_->dies()[static_cast<std::size_t>(d.die_id)];
    const int raised = d.policy == TuningPolicy::ChipWideHigh
                           ? flow_->island_plan().num_islands() + 1
                           : d.islands_raised;
    if (g.location.chip_origin_mm.x < die * 0.5 &&
        g.location.chip_origin_mm.y < die * 0.5) {
      slow_islands.add(raised);
    } else if (g.location.chip_origin_mm.x > die * 0.5 &&
               g.location.chip_origin_mm.y > die * 0.5) {
      fast_islands.add(raised);
    }
  }
  ASSERT_GT(slow_islands.count(), 0u);
  ASSERT_GT(fast_islands.count(), 0u);
  EXPECT_GE(slow_islands.mean(), fast_islands.mean());
}

TEST_F(YieldFixture, IslandActivationMatchesPolicyCounts) {
  std::size_t activation_sum = 0;
  for (const auto c : report_->agg.island_activation) activation_sum += c;
  EXPECT_EQ(activation_sum,
            report_->agg.count(TuningPolicy::AllLow) +
                report_->agg.count(TuningPolicy::NestedIslands));
  EXPECT_EQ(report_->agg.island_activation.size(),
            static_cast<std::size_t>(flow_->island_plan().num_islands()) + 1);
}

TEST_F(YieldFixture, SpeedBinsPartitionShippedDies) {
  std::size_t binned = 0;
  for (const auto c : report_->speed_bin_count) binned += c;
  EXPECT_EQ(binned, report_->agg.fmax_ghz.count());
  EXPECT_EQ(report_->agg.fmax_ghz.count(), report_->agg.shipped_dies());
}

TEST_F(YieldFixture, PolicyGlyphsMatchAsciiMap) {
  const std::string glyphs = report_->policy_glyphs();
  ASSERT_EQ(glyphs.size(), wafer_->num_dies());
  const std::string map = wafer_->ascii_map(glyphs);
  for (char g : glyphs) {
    EXPECT_NE(map.find(g), std::string::npos);
  }
}

// The acceptance contract: report is bit-identical for 1-thread and
// N-thread runs (and for the no-pool serial path).  Compared through the
// deterministic writers, so formatting ties the whole chain down.
TEST_F(YieldFixture, ReportBitIdenticalAcrossThreadCounts) {
  const YieldAnalyzer analyzer = YieldAnalyzer::from_flow(*flow_);
  ThreadPool one(1);
  const YieldReport serial =
      analyzer.analyze(*wafer_, test_yield_config(), nullptr);
  const YieldReport one_thread =
      analyzer.analyze(*wafer_, test_yield_config(), &one);
  const std::string parallel_txt = serialize(*wafer_, *report_);  // 4 threads
  EXPECT_EQ(serialize(*wafer_, serial), parallel_txt);
  EXPECT_EQ(serialize(*wafer_, one_thread), parallel_txt);
}

// ---- adaptive per-die sampling (DESIGN.md §14) -----------------------------

/// Fixed-budget runs read as the degenerate adaptive case: every die
/// draws exactly the budget, nothing converges early, savings are zero.
TEST_F(YieldFixture, FixedBudgetAccountingIsDegenerate) {
  const YieldConfig cfg = test_yield_config();
  EXPECT_EQ(report_->agg.mc_samples_budget,
            wafer_->num_dies() * static_cast<std::size_t>(cfg.mc.samples));
  EXPECT_EQ(report_->agg.mc_samples_drawn, report_->agg.mc_samples_budget);
  EXPECT_EQ(report_->agg.mc_converged_dies, 0u);
  EXPECT_DOUBLE_EQ(report_->agg.mc_sample_savings(), 0.0);
  for (const DieOutcome& d : report_->dies) {
    EXPECT_EQ(d.mc_samples, cfg.mc.samples);
    EXPECT_EQ(d.mc_stop, McStop::FixedBudget);
  }
}

/// Adaptive wafer accounting: per-die budgets land inside
/// [min_samples, max_samples], the wafer budget is dies x max_samples,
/// and the savings figure follows from drawn/budget.  The loose-target
/// run converges every die at the first checkpoint; the zero-target run
/// caps every die at max_samples with zero savings.
TEST_F(YieldFixture, AdaptiveAccountingIsConsistent) {
  const YieldAnalyzer analyzer = YieldAnalyzer::from_flow(*flow_);
  YieldConfig yc = test_yield_config();
  yc.mc.adaptive.enabled = true;
  yc.mc.adaptive.min_samples = 8;
  yc.mc.adaptive.max_samples = 48;
  yc.mc.adaptive.check_every_batches = 1;
  yc.mc.adaptive.mean_half_width_ns = 1e9;
  yc.mc.adaptive.sigma_half_width_ns = 1e9;
  const std::size_t dies = wafer_->num_dies();

  const YieldReport loose = analyzer.analyze(*wafer_, yc, nullptr);
  EXPECT_EQ(loose.agg.mc_samples_budget, dies * 48u);
  EXPECT_GE(loose.agg.mc_samples_drawn, dies * 8u);
  EXPECT_LT(loose.agg.mc_samples_drawn, loose.agg.mc_samples_budget);
  EXPECT_EQ(loose.agg.mc_converged_dies, dies);
  EXPECT_GT(loose.agg.mc_sample_savings(), 0.0);
  EXPECT_LT(loose.agg.mc_sample_savings(), 1.0);
  std::size_t drawn = 0;
  for (const DieOutcome& d : loose.dies) {
    EXPECT_GE(d.mc_samples, 8);
    EXPECT_LE(d.mc_samples, 48);
    EXPECT_EQ(d.mc_stop, McStop::Converged);
    drawn += static_cast<std::size_t>(d.mc_samples);
  }
  EXPECT_EQ(drawn, loose.agg.mc_samples_drawn);

  yc.mc.adaptive.mean_half_width_ns = 0.0;
  yc.mc.adaptive.sigma_half_width_ns = 0.0;
  const YieldReport capped = analyzer.analyze(*wafer_, yc, nullptr);
  EXPECT_EQ(capped.agg.mc_samples_drawn, capped.agg.mc_samples_budget);
  EXPECT_EQ(capped.agg.mc_converged_dies, 0u);
  EXPECT_DOUBLE_EQ(capped.agg.mc_sample_savings(), 0.0);
  for (const DieOutcome& d : capped.dies) {
    EXPECT_EQ(d.mc_samples, 48);
    EXPECT_EQ(d.mc_stop, McStop::MaxSamples);
  }
}

/// Per-die adaptive stopping is part of the wafer determinism contract:
/// serialized reports (CSV + JSON, mc_samples/mc_stop columns included)
/// must be byte-identical for serial and pooled runs.
TEST_F(YieldFixture, AdaptiveReportBitIdenticalAcrossThreadCounts) {
  const YieldAnalyzer analyzer = YieldAnalyzer::from_flow(*flow_);
  YieldConfig yc = test_yield_config();
  yc.mc.adaptive.enabled = true;
  yc.mc.adaptive.min_samples = 8;
  yc.mc.adaptive.max_samples = 48;
  yc.mc.adaptive.check_every_batches = 1;
  yc.mc.adaptive.mean_half_width_ns = 1e9;
  yc.mc.adaptive.sigma_half_width_ns = 1e9;
  const YieldReport serial = analyzer.analyze(*wafer_, yc, nullptr);
  ThreadPool pool(3);
  const YieldReport pooled = analyzer.analyze(*wafer_, yc, &pool);
  EXPECT_EQ(serialize(*wafer_, serial), serialize(*wafer_, pooled));
}

/// Every evaluation tier — flat MC, analytic triage (§16), adaptive MC
/// (§14), stage macromodel (§19) — consumes the identical per-die RNG
/// positions, so the silicon-side outputs (fabrication, compensation,
/// power) are bit-identical whichever tier screened the die.
TEST_F(YieldFixture, AllTiersKeepIdenticalRngPositionsForSiliconBits) {
  const YieldAnalyzer analyzer = YieldAnalyzer::from_flow(*flow_);
  const auto silicon_bits = [](const YieldReport& r) {
    std::ostringstream os;
    for (const DieOutcome& d : r.dies) {
      os << d.die_id << ' ' << d.detected_severity << ' ' << d.islands_raised
         << ' ' << static_cast<int>(d.policy) << ' ' << d.timing_met << ' '
         << d.escalated << ' ' << d.missed_violation << ' '
         << std::hexfloat << d.wns_all_low_ns << ' ' << d.wns_final_ns << ' '
         << d.total_mw << ' ' << d.leakage_mw << std::defaultfloat << '\n';
    }
    return os.str();
  };
  const YieldReport flat = analyzer.analyze(*wafer_, test_yield_config());

  YieldConfig triage_cfg = test_yield_config();
  triage_cfg.tier = EvalTier::Triage;
  const YieldReport triage = analyzer.analyze(*wafer_, triage_cfg);
  EXPECT_GT(triage.agg.triage_analytical, 0u);

  YieldConfig adaptive_cfg = test_yield_config();
  adaptive_cfg.mc.adaptive.enabled = true;
  adaptive_cfg.mc.adaptive.min_samples = 8;
  adaptive_cfg.mc.adaptive.max_samples = 48;
  adaptive_cfg.mc.adaptive.check_every_batches = 1;
  adaptive_cfg.mc.adaptive.mean_half_width_ns = 1e9;
  adaptive_cfg.mc.adaptive.sigma_half_width_ns = 1e9;
  const YieldReport adaptive = analyzer.analyze(*wafer_, adaptive_cfg);
  EXPECT_GT(adaptive.agg.mc_converged_dies, 0u);

  YieldConfig macro_cfg = test_yield_config();
  macro_cfg.tier = EvalTier::Macro;
  const YieldReport macro = analyzer.analyze(*wafer_, macro_cfg);
  EXPECT_GT(macro.agg.triage_macro, 0u);

  const std::string want = silicon_bits(flat);
  EXPECT_EQ(silicon_bits(triage), want);
  EXPECT_EQ(silicon_bits(adaptive), want);
  EXPECT_EQ(silicon_bits(macro), want);
}

TEST_F(YieldFixture, CsvHasOneRowPerDie) {
  std::ostringstream os;
  write_yield_csv(os, *wafer_, *report_);
  const std::string csv = os.str();
  EXPECT_EQ(static_cast<std::size_t>(
                std::count(csv.begin(), csv.end(), '\n')),
            wafer_->num_dies() + 1);  // header + rows
}

TEST_F(YieldFixture, JsonIsWellFormedEnoughToGrep) {
  std::ostringstream os;
  write_yield_json(os, *report_);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"parametric_yield\""), std::string::npos);
  EXPECT_NE(json.find("\"island_activation\""), std::string::npos);
  EXPECT_NE(json.find("\"speed_bins\""), std::string::npos);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

// A die's location within the exposure field depends only on its
// (die_ix, die_iy) reticle slot, so the wafer loop computes ONE
// systematic Lgate map per slot and shares it.  The cached map must be
// exactly what a fresh per-die evaluation would produce.
TEST_F(YieldFixture, ReticleSlotSystematicMapsMatchPerDieEvaluation) {
  const VariationModel& model = flow_->variation();
  const int side = wafer_->dies_per_field_side();
  std::vector<std::vector<double>> slot_maps(
      static_cast<std::size_t>(side) * static_cast<std::size_t>(side));
  std::size_t evaluations = 0;
  for (const WaferDie& d : wafer_->dies()) {
    const std::size_t slot =
        static_cast<std::size_t>(d.die_iy) * static_cast<std::size_t>(side) +
        static_cast<std::size_t>(d.die_ix);
    ASSERT_LT(slot, slot_maps.size());
    auto& map = slot_maps[slot];
    if (map.empty()) {
      map = model.systematic_lgates(flow_->design(), d.location);
      ++evaluations;
    }
    // The shared map is bit-identical to this die's own evaluation.
    const std::vector<double> own =
        model.systematic_lgates(flow_->design(), d.location);
    ASSERT_EQ(own.size(), map.size());
    for (std::size_t i = 0; i < own.size(); ++i) {
      ASSERT_EQ(own[i], map[i]) << "die " << d.id << " instance " << i;
    }
  }
  // The cache actually collapses the wafer to one evaluation per slot.
  EXPECT_EQ(evaluations, static_cast<std::size_t>(side) *
                             static_cast<std::size_t>(side));
  EXPECT_LT(evaluations, wafer_->num_dies());
}

// analyze_die_with (persistent controller + shared systematic map +
// the analyzer's power cache — the wafer loop's worker path) must be
// bit-identical to the fresh-state analyze_die, including when one
// controller carries its level snapshots across many dies.
TEST_F(YieldFixture, AnalyzeDieWithMatchesAnalyzeDie) {
  const YieldAnalyzer analyzer = YieldAnalyzer::from_flow(*flow_);
  const YieldConfig cfg = test_yield_config();
  const VariationModel& model = flow_->variation();

  StaEngine fresh_engine(flow_->sta());
  StaEngine worker_engine(flow_->sta());
  CompensationController worker_ctrl(flow_->design(), worker_engine, model,
                                     flow_->island_plan(),
                                     flow_->razor_plan());

  // A handful of dies spread across the wafer, processed back-to-back on
  // the same worker state (the cache-reuse case the contract covers).
  const std::vector<WaferDie>& dies = wafer_->dies();
  for (std::size_t i = 0; i < dies.size(); i += 17) {
    const WaferDie& die = dies[i];
    const DieOutcome a = analyzer.analyze_die(fresh_engine, die, cfg);
    const std::vector<double> systematic =
        model.systematic_lgates(flow_->design(), die.location);
    const DieOutcome b =
        analyzer.analyze_die_with(worker_engine, worker_ctrl, die, cfg,
                                  systematic);
    EXPECT_EQ(a.die_id, b.die_id);
    EXPECT_EQ(a.mc_severity, b.mc_severity);
    EXPECT_EQ(a.detected_severity, b.detected_severity);
    EXPECT_EQ(a.islands_raised, b.islands_raised);
    EXPECT_EQ(a.policy, b.policy);
    EXPECT_EQ(a.timing_met, b.timing_met);
    EXPECT_EQ(a.escalated, b.escalated);
    EXPECT_EQ(a.missed_violation, b.missed_violation);
    EXPECT_EQ(a.wns_all_low_ns, b.wns_all_low_ns) << "die " << die.id;
    EXPECT_EQ(a.wns_final_ns, b.wns_final_ns) << "die " << die.id;
    EXPECT_EQ(a.fmax_ghz, b.fmax_ghz) << "die " << die.id;
    EXPECT_EQ(a.total_mw, b.total_mw) << "die " << die.id;
    EXPECT_EQ(a.leakage_mw, b.leakage_mw) << "die " << die.id;
  }
}

// analyze() shares work across dies and workers (slot-map fabrication,
// level-0 factor reuse, the analyzer's level bases and its power cache
// by (location, supply state) — DESIGN.md §20).  On a stress wafer (1.5x
// sigma, 0.85x clock) every DieOutcome must still equal a fresh,
// cache-free analyze_die() bit for bit, at 1 and 2 threads.  With
// escalation on, dies escalate and the ones failing even at max_k run
// the chip-wide fallback and are discarded; with it off, the chip-wide
// fallback ships dies, so every power-cache state is exercised.
TEST_F(YieldFixture, StressWaferOutcomesMatchAnalyzeDieAcrossThreads) {
  VariationConfig vc = flow_->variation().config();
  vc.three_sigma_random_frac *= 1.5;
  const VariationModel model(flow_->variation().char_params(),
                             flow_->variation().field(), vc);
  const double period = flow_->post_shifter_clock_ns() * 0.85;
  StaEngine sta(flow_->sta());
  sta.set_clock_period(period);
  const YieldAnalyzer analyzer(flow_->design(), sta, model,
                               flow_->island_plan(), flow_->razor_plan(),
                               flow_->activity(), 1.0 / period);

  std::size_t escalated = 0, chip_wide = 0, discarded = 0;
  for (const bool escalation : {true, false}) {
    YieldConfig cfg = test_yield_config();
    cfg.allow_escalation = escalation;
    std::vector<DieOutcome> want;
    StaEngine fresh(sta);
    for (const WaferDie& die : wafer_->dies()) {
      want.push_back(analyzer.analyze_die(fresh, die, cfg));
      const DieOutcome& d = want.back();
      escalated += d.escalated ? 1 : 0;
      chip_wide += d.policy == TuningPolicy::ChipWideHigh ? 1 : 0;
      discarded += d.policy == TuningPolicy::Discard ? 1 : 0;
    }
    for (const std::size_t threads : {1u, 2u}) {
      ThreadPool pool(threads);
      const YieldReport got = analyzer.analyze(*wafer_, cfg, &pool);
      ASSERT_EQ(got.dies.size(), want.size());
      for (std::size_t i = 0; i < want.size(); ++i) {
        const DieOutcome& a = want[i];
        const DieOutcome& b = got.dies[i];
        SCOPED_TRACE("escalation " + std::to_string(escalation) +
                     " threads " + std::to_string(threads) + " die " +
                     std::to_string(i));
        EXPECT_EQ(a.die_id, b.die_id);
        EXPECT_EQ(a.mc_severity, b.mc_severity);
        EXPECT_EQ(a.mc_samples, b.mc_samples);
        EXPECT_EQ(a.mc_stop, b.mc_stop);
        EXPECT_EQ(a.detected_severity, b.detected_severity);
        EXPECT_EQ(a.islands_raised, b.islands_raised);
        EXPECT_EQ(a.policy, b.policy);
        EXPECT_EQ(a.timing_met, b.timing_met);
        EXPECT_EQ(a.escalated, b.escalated);
        EXPECT_EQ(a.missed_violation, b.missed_violation);
        EXPECT_EQ(a.wns_all_low_ns, b.wns_all_low_ns);
        EXPECT_EQ(a.wns_final_ns, b.wns_final_ns);
        EXPECT_EQ(a.fmax_ghz, b.fmax_ghz);
        EXPECT_EQ(a.total_mw, b.total_mw);
        EXPECT_EQ(a.leakage_mw, b.leakage_mw);
        EXPECT_EQ(a.triage_tier, b.triage_tier);
        EXPECT_EQ(a.triage_margin_ns, b.triage_margin_ns);
        EXPECT_EQ(a.triage_band_ns, b.triage_band_ns);
      }
    }
  }
  EXPECT_GT(escalated, 0u);
  EXPECT_GT(chip_wide, 0u);
  EXPECT_GT(discarded, 0u);
}

// One analyzer's shared state — its level bases, its power cache (keyed
// by die location, never by reticle slot) and the screen's CI quantiles
// — must not leak between wafers (DESIGN.md §20).  Two geometries share
// one analyzer, interleaved: die_mm 14 (2x2 reticle slots) and die_mm 7
// (4x4), so one slot index names different die locations on each.  The
// stress configuration (1.5x sigma, 0.85x clock), with escalation on and
// off, caches level, chip-wide and Discard power entries.  Serially, on 4
// threads and as analyze_shard partitions, every report and aggregate
// must equal a fresh analyzer's byte for byte.
TEST_F(YieldFixture, SharedAnalyzerStateIsolatedAcrossGeometries) {
  VariationConfig vc = flow_->variation().config();
  vc.three_sigma_random_frac *= 1.5;
  const VariationModel model(flow_->variation().char_params(),
                             flow_->variation().field(), vc);
  const double period = flow_->post_shifter_clock_ns() * 0.85;
  StaEngine sta(flow_->sta());
  sta.set_clock_period(period);
  const auto make_analyzer = [&] {
    return std::make_unique<YieldAnalyzer>(
        flow_->design(), sta, model, flow_->island_plan(),
        flow_->razor_plan(), flow_->activity(), 1.0 / period);
  };
  WaferConfig coarse_cfg;
  coarse_cfg.wafer_diameter_mm = 100.0;
  WaferConfig fine_cfg = coarse_cfg;
  fine_cfg.die_mm = 7.0;
  const WaferModel coarse(coarse_cfg), fine(fine_cfg);
  ASSERT_EQ(coarse.dies_per_field_side(), 2);
  ASSERT_EQ(fine.dies_per_field_side(), 4);
  const std::array<const WaferModel*, 2> wafers{&coarse, &fine};
  const int islands = flow_->island_plan().num_islands();
  const auto agg_bytes = [](const YieldAggregate& agg) {
    ShardRecord r;
    r.agg = agg;
    return serialize_shard_record(r);
  };

  const auto shared = make_analyzer();
  ThreadPool pool(4);
  std::size_t escalated = 0, chip_wide = 0, discarded = 0;
  for (const bool escalation : {true, false}) {
    YieldConfig cfg = test_yield_config();
    cfg.tier = EvalTier::Macro;
    cfg.allow_escalation = escalation;
    std::array<std::string, 2> want_report, want_agg;
    for (std::size_t g = 0; g < wafers.size(); ++g) {
      const YieldReport r = make_analyzer()->analyze(*wafers[g], cfg);
      want_report[g] = serialize(*wafers[g], r);
      YieldAggregate agg;
      for (const DieOutcome& d : r.dies) {
        agg.add(d, islands, per_die_mc_budget(cfg.mc));
      }
      want_agg[g] = agg_bytes(agg);
      escalated += agg.escalated;
      chip_wide += r.agg.count(TuningPolicy::ChipWideHigh);
      discarded += r.agg.count(TuningPolicy::Discard);
    }
    for (const char* mode : {"serial", "4 threads", "shards"}) {
      for (std::size_t g = 0; g < wafers.size(); ++g) {
        const WaferModel& wafer = *wafers[g];
        SCOPED_TRACE(std::string(mode) + " escalation " +
                     std::to_string(escalation) + " die_mm " +
                     std::to_string(wafer.config().die_mm));
        if (std::string_view(mode) != "shards") {
          const YieldReport r = shared->analyze(
              wafer, cfg, std::string_view(mode) == "serial" ? nullptr : &pool);
          EXPECT_EQ(serialize(wafer, r), want_report[g]);
          continue;
        }
        StaEngine engine(sta);
        CompensationController ctrl = shared->controller(engine);
        const std::size_t mid = wafer.num_dies() / 3;
        YieldAggregate agg =
            shared->analyze_shard(engine, ctrl, wafer, cfg, 0, mid);
        agg.merge(shared->analyze_shard(engine, ctrl, wafer, cfg, mid,
                                        wafer.num_dies()));
        EXPECT_EQ(agg_bytes(agg), want_agg[g]);
      }
    }
  }
  EXPECT_GT(escalated, 0u);
  EXPECT_GT(chip_wide, 0u);
  EXPECT_GT(discarded, 0u);
}

// The analyzer memoizes slot maps, tier screens and slot cones by wafer
// geometry, level-0 engine state and every config field a screen reads
// (DESIGN.md §22).  One shared analyzer, walked twice over interleaved
// geometries and configs — flat, triage and macro tiers, two budgets, two
// confidences, two band scales, two speed percentiles, two draw profiles
// — must report byte for byte what a fresh analyzer reports, and hand
// out the same maps and screens.
TEST_F(YieldFixture, MemoizedSlotStateMatchesFreshAnalyzers) {
  const auto fresh = [&] {
    return std::make_unique<YieldAnalyzer>(
        flow_->design(), flow_->sta(), flow_->variation(),
        flow_->island_plan(), flow_->razor_plan(), flow_->activity(),
        1.0 / flow_->post_shifter_clock_ns());
  };
  WaferConfig coarse_cfg;
  coarse_cfg.wafer_diameter_mm = 100.0;
  WaferConfig fine_cfg = coarse_cfg;
  fine_cfg.die_mm = 7.0;
  const WaferModel coarse(coarse_cfg), fine(fine_cfg);
  std::vector<YieldConfig> cfgs;
  for (const EvalTier tier : {EvalTier::Flat, EvalTier::Triage,
                              EvalTier::Macro}) {
    YieldConfig c = test_yield_config();
    c.tier = tier;
    cfgs.push_back(c);
    c.mc.samples = 16;
    c.triage.confidence = 0.9;
    cfgs.push_back(c);
    c.triage.band_scale = 2.0;
    c.speed_percentile = 0.9;
    c.mc.profile = DrawProfile::BatchedSimd;
    cfgs.push_back(c);
  }
  const auto shared = fresh();
  ThreadPool pool(4);
  std::size_t mc_dies = 0, screened = 0;
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t ci = 0; ci < cfgs.size(); ++ci) {
      for (const WaferModel* wafer : {&coarse, &fine, &coarse}) {
        const YieldConfig& cfg = cfgs[ci];
        SCOPED_TRACE("pass " + std::to_string(pass) + " cfg " +
                     std::to_string(ci) + " die_mm " +
                     std::to_string(wafer->config().die_mm));
        const auto ref = fresh();
        const YieldReport want = ref->analyze(*wafer, cfg, &pool);
        const YieldReport got =
            shared->analyze(*wafer, cfg, pass == 0 ? &pool : nullptr);
        EXPECT_EQ(serialize(*wafer, got), serialize(*wafer, want));
        const auto maps = shared->reticle_slot_maps(*wafer);
        EXPECT_EQ(maps, ref->reticle_slot_maps(*wafer));
        const auto screen = shared->tier_screen(*wafer, cfg, maps);
        const auto want_screen = ref->tier_screen(*wafer, cfg);
        ASSERT_EQ(screen.size(), want_screen.size());
        for (std::size_t sl = 0; sl < screen.size(); ++sl) {
          EXPECT_EQ(screen[sl].decided, want_screen[sl].decided);
          EXPECT_EQ(std::bit_cast<std::uint64_t>(screen[sl].margin_ns),
                    std::bit_cast<std::uint64_t>(want_screen[sl].margin_ns));
          EXPECT_EQ(std::bit_cast<std::uint64_t>(screen[sl].band_ns),
                    std::bit_cast<std::uint64_t>(want_screen[sl].band_ns));
          EXPECT_EQ(std::bit_cast<std::uint64_t>(screen[sl].fmax_ghz),
                    std::bit_cast<std::uint64_t>(want_screen[sl].fmax_ghz));
        }
        for (const DieOutcome& d : got.dies) {
          mc_dies += d.mc_samples > 0;
          screened += d.mc_samples == 0;
        }
      }
    }
  }
  EXPECT_GT(mc_dies, 0u);
  EXPECT_GT(screened, 0u);
}

// A memoized cone or screen belongs to the engine state it was proven
// on.  Retiming the analyzer's engine (a new clock) must never reuse one:
// the next report equals a fresh analyzer's at the new clock, on the flat
// tier (slot cones) and the triage tier (screens).
TEST_F(YieldFixture, ConeMemoNeverSharedAcrossClocks) {
  WaferConfig wc;
  wc.wafer_diameter_mm = 100.0;
  const WaferModel wafer(wc);
  StaEngine sta(flow_->sta());
  const double period = flow_->post_shifter_clock_ns();
  const auto make = [&] {
    return std::make_unique<YieldAnalyzer>(
        flow_->design(), sta, flow_->variation(), flow_->island_plan(),
        flow_->razor_plan(), flow_->activity(), 1.0 / period);
  };
  for (const EvalTier tier : {EvalTier::Flat, EvalTier::Triage}) {
    YieldConfig cfg = test_yield_config();
    cfg.tier = tier;
    sta.set_clock_period(period);
    const auto shared = make();
    const std::string before = serialize(wafer, shared->analyze(wafer, cfg));
    for (const double scale : {0.9, 1.0, 0.9}) {
      SCOPED_TRACE("tier " + std::to_string(static_cast<int>(tier)) +
                   " clock x" + std::to_string(scale));
      sta.set_clock_period(period * scale);
      const std::string got = serialize(wafer, shared->analyze(wafer, cfg));
      EXPECT_EQ(got, serialize(wafer, make()->analyze(wafer, cfg)));
      EXPECT_EQ(got == before, scale == 1.0);
    }
  }
}

// The screen reads its CI quantiles from a process-wide memo keyed by
// (MC budget, confidence) (DESIGN.md §20).  Screens at interleaved
// budgets and confidences must report exactly the band and margin of the
// free-function CI expression on the binding stage.
TEST_F(YieldFixture, ScreenBandsMatchFreeFunctionIntervalsAcrossBudgets) {
  const YieldAnalyzer analyzer = YieldAnalyzer::from_flow(*flow_);
  const auto maps = analyzer.reticle_slot_maps(*wafer_);
  for (const auto& [budget, confidence] :
       {std::pair{12, 0.95}, {48, 0.95}, {12, 0.9}, {2, 0.95}, {12, 0.95}}) {
    YieldConfig cfg = test_yield_config();
    cfg.tier = EvalTier::Macro;
    cfg.mc.samples = budget;
    cfg.triage.confidence = confidence;
    const TriageConfig& tc = cfg.triage;
    const auto n = static_cast<std::size_t>(budget);
    const std::vector<SlotTriage> screen = analyzer.tier_screen(*wafer_, cfg);
    const StageMacroLibrary& lib = analyzer.macro_library(cfg.macro);
    ASSERT_EQ(screen.size(), maps.size());
    for (std::size_t s = 0; s < maps.size(); ++s) {
      SCOPED_TRACE("budget " + std::to_string(budget) + " confidence " +
                   std::to_string(confidence) + " slot " + std::to_string(s));
      const CanonicalResult r = lib.evaluate(maps[s]);
      double worst_gap = std::numeric_limits<double>::infinity();
      double band_ns = 0.0, margin_ns = 0.0;
      for (const PipeStage st :
           {PipeStage::Decode, PipeStage::Execute, PipeStage::WriteBack}) {
        const StageGauss& sg = r.stage(st);
        if (!sg.present) continue;
        const double band =
            tc.band_scale *
                (mean_confidence_interval(n, 0.0, sg.sigma_ns, tc.confidence)
                     .half_width() +
                 3.0 * stddev_confidence_interval(n, sg.sigma_ns,
                                                  tc.confidence)
                           .half_width()) +
            tc.model_error_ns;
        const double margin = std::abs(sg.three_sigma_slack());
        if (margin - band < worst_gap) {
          worst_gap = margin - band;
          band_ns = band;
          margin_ns = margin;
        }
      }
      EXPECT_EQ(screen[s].band_ns, band_ns);
      EXPECT_EQ(screen[s].margin_ns, margin_ns);
    }
  }
}

// The analyzer's memo is the one holder of slot maps and screens
// (DESIGN.md §22): tier_screen accepts maps only when they equal the
// memo's — its own maps, a copy, or another analyzer's over the same
// netlist — and returns the memoized screen; another geometry's maps, or
// the memo's with one value moved by 1 ulp, throw on every tier.
TEST_F(YieldFixture, TierScreenRefusesForeignSlotMaps) {
  const YieldAnalyzer analyzer = YieldAnalyzer::from_flow(*flow_);
  VariationConfig vc = flow_->variation().config();
  vc.three_sigma_random_frac *= 1.5;
  const VariationModel wide(flow_->variation().char_params(),
                            flow_->variation().field(), vc);
  const YieldAnalyzer other(flow_->design(), flow_->sta(), wide,
                            flow_->island_plan(), flow_->razor_plan(),
                            flow_->activity(),
                            1.0 / flow_->post_shifter_clock_ns());
  WaferConfig fine_cfg = wafer_->config();
  fine_cfg.die_mm = 7.0;
  const WaferModel fine(fine_cfg);
  const auto maps = analyzer.reticle_slot_maps(*wafer_);
  const auto other_maps = other.reticle_slot_maps(*wafer_);
  ASSERT_NE(maps.data(), other_maps.data());
  auto moved = maps;
  const auto slot = static_cast<std::size_t>(std::find_if(
      moved.begin(), moved.end(),
      [](const std::vector<double>& m) { return !m.empty(); }) - moved.begin());
  ASSERT_LT(slot, moved.size());
  moved[slot].back() = std::nextafter(moved[slot].back(),
                                      std::numeric_limits<double>::infinity());
  const auto bits = [](const std::vector<SlotTriage>& screen) {
    std::vector<std::uint64_t> out;
    for (const SlotTriage& st : screen) {
      out.insert(out.end(),
                 {static_cast<std::uint64_t>(st.decided),
                  static_cast<std::uint64_t>(st.severity),
                  std::bit_cast<std::uint64_t>(st.margin_ns),
                  std::bit_cast<std::uint64_t>(st.band_ns),
                  std::bit_cast<std::uint64_t>(st.fmax_ghz)});
    }
    return out;
  };
  for (const EvalTier tier :
       {EvalTier::Flat, EvalTier::Triage, EvalTier::Macro}) {
    SCOPED_TRACE(eval_tier_name(tier));
    YieldConfig cfg = test_yield_config();
    cfg.tier = tier;
    const auto memo = bits(analyzer.tier_screen(*wafer_, cfg));
    EXPECT_EQ(memo.empty(), tier == EvalTier::Flat);
    EXPECT_EQ(bits(analyzer.tier_screen(*wafer_, cfg, maps)), memo);
    EXPECT_EQ(bits(analyzer.tier_screen(*wafer_, cfg, other_maps)), memo);
    EXPECT_THROW(analyzer.tier_screen(*wafer_, cfg,
                                      analyzer.reticle_slot_maps(fine)),
                 std::invalid_argument);
    EXPECT_THROW(analyzer.tier_screen(*wafer_, cfg, moved),
                 std::invalid_argument);
  }
}

// A negative screen band decides slots inside the CI band and a NaN one
// decides none, so every screen (both tiers and the single-die path)
// refuses a negative or non-finite band knob; zero stays legal.
TEST_F(YieldFixture, ScreensRejectNegativeOrNonFiniteBandKnobs) {
  const YieldAnalyzer analyzer = YieldAnalyzer::from_flow(*flow_);
  const auto maps = analyzer.reticle_slot_maps(*wafer_);
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  StaEngine engine(flow_->sta());
  for (const EvalTier tier : {EvalTier::Triage, EvalTier::Macro}) {
    for (const bool scale : {true, false}) {
      for (const double bad : {-1.0, nan, inf}) {
        SCOPED_TRACE(std::string(eval_tier_name(tier)) +
                     (scale ? " band_scale " : " model_error_ns ") +
                     std::to_string(bad));
        YieldConfig cfg = test_yield_config();
        cfg.tier = tier;
        double& knob =
            scale ? cfg.triage.band_scale : cfg.triage.model_error_ns;
        knob = bad;
        EXPECT_THROW(analyzer.tier_screen(*wafer_, cfg, maps),
                     std::invalid_argument);
        EXPECT_THROW(analyzer.analyze_die(engine, wafer_->dies()[0], cfg),
                     std::invalid_argument);
      }
    }
    YieldConfig zero = test_yield_config();
    zero.tier = tier;
    zero.triage.band_scale = 0.0;
    zero.triage.model_error_ns = 0.0;
    EXPECT_NO_THROW(analyzer.tier_screen(*wafer_, zero, maps));
  }
}

// A speed percentile outside (0, 1) names no speed bin: the screened
// tiers' normal quantile is undefined at 0 and 1, and a NaN reached
// percentile()'s index cast on the flat tier.  Every entry point that
// takes a YieldConfig refuses one before any die or screen runs.
TEST_F(YieldFixture, SpeedPercentileOutsideOpenUnitIntervalRejected) {
  const YieldAnalyzer analyzer = YieldAnalyzer::from_flow(*flow_);
  WaferConfig wc;
  wc.wafer_diameter_mm = 46.0;
  const WaferModel wafer(wc);
  ASSERT_EQ(wafer.num_dies(), 4u);
  const auto maps = analyzer.reticle_slot_maps(wafer);
  const WaferDie& die = wafer.dies()[0];
  const std::vector<double>& map =
      maps[YieldAnalyzer::reticle_slot(wafer, die)];
  StaEngine engine(flow_->sta());
  CompensationController ctrl = analyzer.controller(engine);
  for (const EvalTier tier :
       {EvalTier::Flat, EvalTier::Triage, EvalTier::Macro}) {
    for (const double p :
         {0.0, 1.0, 1.5, std::numeric_limits<double>::quiet_NaN()}) {
      SCOPED_TRACE(std::string(eval_tier_name(tier)) + " speed_percentile " +
                   std::to_string(p));
      YieldConfig cfg = test_yield_config();
      cfg.tier = tier;
      cfg.speed_percentile = p;
      EXPECT_THROW(analyzer.analyze(wafer, cfg), std::invalid_argument);
      EXPECT_THROW(analyzer.analyze_die(engine, die, cfg),
                   std::invalid_argument);
      EXPECT_THROW(analyzer.analyze_die_with(engine, ctrl, die, cfg, map),
                   std::invalid_argument);
      EXPECT_THROW(analyzer.analyze_shard(engine, ctrl, wafer, cfg, 0, 4),
                   std::invalid_argument);
      EXPECT_THROW(analyzer.tier_screen(wafer, cfg, maps),
                   std::invalid_argument);
    }
  }
}

// YieldConfig::validate() names the offending field with
// std::invalid_argument on every tier and at every entry point, before
// any die or screen runs: a fixed MC budget below one sample, a triage
// confidence outside (0, 1) (the screens' quantiles need it; the flat
// tier checks it too), and a NaN, infinite or negative band scale or
// model-error allowance.  An adaptive budget ignores mc.samples.
TEST_F(YieldFixture, InvalidConfigFieldsRejectedOnEveryTier) {
  const YieldAnalyzer analyzer = YieldAnalyzer::from_flow(*flow_);
  WaferConfig wc;
  wc.wafer_diameter_mm = 46.0;
  const WaferModel wafer(wc);
  ASSERT_EQ(wafer.num_dies(), 4u);
  const auto maps = analyzer.reticle_slot_maps(wafer);
  const WaferDie& die = wafer.dies()[0];
  const std::vector<double>& map =
      maps[YieldAnalyzer::reticle_slot(wafer, die)];
  StaEngine engine(flow_->sta());
  CompensationController ctrl = analyzer.controller(engine);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  struct Case {
    const char* field;
    std::function<void(YieldConfig&)> set;
  };
  const std::vector<Case> cases = {
      {"mc.samples", [](YieldConfig& c) { c.mc.samples = 0; }},
      {"mc.samples", [](YieldConfig& c) { c.mc.samples = -5; }},
      {"triage.confidence", [](YieldConfig& c) { c.triage.confidence = 0.0; }},
      {"triage.confidence", [](YieldConfig& c) { c.triage.confidence = 1.0; }},
      {"triage.confidence", [](YieldConfig& c) { c.triage.confidence = 7.0; }},
      {"triage.confidence",
       [nan](YieldConfig& c) { c.triage.confidence = nan; }},
      {"triage.band_scale", [](YieldConfig& c) { c.triage.band_scale = -1.0; }},
      {"triage.band_scale",
       [nan](YieldConfig& c) { c.triage.band_scale = nan; }},
      {"triage.band_scale",
       [inf](YieldConfig& c) { c.triage.band_scale = inf; }},
      {"triage.model_error_ns",
       [](YieldConfig& c) { c.triage.model_error_ns = -1e-3; }},
      {"triage.model_error_ns",
       [nan](YieldConfig& c) { c.triage.model_error_ns = nan; }},
      {"triage.model_error_ns",
       [inf](YieldConfig& c) { c.triage.model_error_ns = inf; }},
  };
  for (const EvalTier tier :
       {EvalTier::Flat, EvalTier::Triage, EvalTier::Macro}) {
    for (const Case& c : cases) {
      YieldConfig cfg = test_yield_config();
      cfg.tier = tier;
      c.set(cfg);
      SCOPED_TRACE(std::string(eval_tier_name(tier)) + " " + c.field);
      const auto rejects = [&](const auto& call) {
        try {
          call();
          ADD_FAILURE() << "accepted";
        } catch (const std::invalid_argument& e) {
          EXPECT_NE(std::string(e.what()).find(c.field), std::string::npos)
              << e.what();
        } catch (const std::exception& e) {
          ADD_FAILURE() << "wrong exception type: " << e.what();
        }
      };
      rejects([&] { (void)analyzer.analyze(wafer, cfg); });
      rejects([&] { (void)analyzer.analyze_die(engine, die, cfg); });
      rejects([&] {
        (void)analyzer.analyze_die_with(engine, ctrl, die, cfg, map);
      });
      rejects([&] {
        (void)analyzer.analyze_shard(engine, ctrl, wafer, cfg, 0, 4);
      });
      rejects([&] { (void)analyzer.tier_screen(wafer, cfg, maps); });
    }
    YieldConfig adaptive = test_yield_config();
    adaptive.tier = tier;
    adaptive.mc.samples = 0;
    adaptive.mc.adaptive.enabled = true;
    EXPECT_NO_THROW(adaptive.validate()) << eval_tier_name(tier);
  }
}

// The BatchedSimd draw profile carries the same determinism-under-
// parallelism contract as Scalar: identical wafer reports for serial,
// 1-thread and N-thread runs (within the profile).
TEST_F(YieldFixture, BatchedSimdProfileReportBitIdenticalAcrossThreadCounts) {
  const YieldAnalyzer analyzer = YieldAnalyzer::from_flow(*flow_);
  YieldConfig cfg = test_yield_config();
  cfg.mc.profile = DrawProfile::BatchedSimd;
  const YieldReport serial = analyzer.analyze(*wafer_, cfg, nullptr);
  ThreadPool one(1);
  ThreadPool four(4);
  const YieldReport one_thread = analyzer.analyze(*wafer_, cfg, &one);
  const YieldReport four_thread = analyzer.analyze(*wafer_, cfg, &four);
  const std::string reference = serialize(*wafer_, serial);
  EXPECT_EQ(serialize(*wafer_, one_thread), reference);
  EXPECT_EQ(serialize(*wafer_, four_thread), reference);
  // Distinct stream from the Scalar profile by design (compared
  // statistically in bench/mc_ssta, not bit-wise here).
  EXPECT_NE(reference, serialize(*wafer_, *report_));
}

TEST(YieldGuards, FromFlowRequiresSensorsAndActivity) {
  Flow flow(tiny_flow_config());
  EXPECT_FALSE(flow.characterized());
  EXPECT_FALSE(flow.sensors_planned());
  EXPECT_FALSE(flow.activity_simulated());
  EXPECT_THROW(YieldAnalyzer::from_flow(flow), std::logic_error);
  flow.characterize();
  EXPECT_TRUE(flow.characterized());
  EXPECT_FALSE(flow.islands_generated());
  EXPECT_THROW(YieldAnalyzer::from_flow(flow), std::logic_error);
}

}  // namespace
}  // namespace vipvt
