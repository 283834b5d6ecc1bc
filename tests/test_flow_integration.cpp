// End-to-end integration tests over the Flow orchestrator: the whole
// paper pipeline on a scaled-down core, including the power comparisons
// of §5 (VI-based compensation beats chip-wide high Vdd) and determinism.

#include <gtest/gtest.h>

#include <memory>

#include "vi/flow.hpp"

namespace vipvt {
namespace {

FlowConfig tiny_flow_config(SliceDir dir = SliceDir::Vertical) {
  FlowConfig cfg;
  cfg.vex = VexConfig::tiny();
  // Small cores have proportionally longer island boundaries: leave
  // extra whitespace for the level shifters.
  cfg.floorplan.target_utilization = 0.55;
  cfg.scenario.sweep_points = 6;
  cfg.scenario.mc.samples = 100;
  cfg.islands.dir = dir;
  cfg.islands.mc_samples = 80;
  cfg.sim_cycles = 150;
  return cfg;
}

class FlowFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    flow_ = new Flow(tiny_flow_config());
    flow_->simulate_activity();  // pulls the whole pipeline
  }
  static void TearDownTestSuite() {
    delete flow_;
    flow_ = nullptr;
  }
  static Flow* flow_;
};

Flow* FlowFixture::flow_ = nullptr;

TEST_F(FlowFixture, FrontendProducesTimedDesign) {
  EXPECT_GT(flow_->nominal_clock_ns(), 0.0);
  EXPECT_GT(flow_->design().num_instances(), 1000u);
  EXPECT_GE(flow_->recovery_report().swapped_to_hvt, 1u);
  EXPECT_GE(flow_->recovery_report().wns_after_ns, 0.0);
}

// The folded propagation graph of the tiny core (DESIGN.md §17): every
// cell arc folds the net into its input pin, and the only net edges left
// are the ones into endpoints, about half the pin-level edges.
TEST_F(FlowFixture, TinyCoreFoldsHalfTheTimingEdges) {
  const StaEngine& sta = flow_->sta();
  std::size_t cell = 0, net = 0;
  for (const simd::RelaxArc& a : sta.arcs()) {
    if (a.inst == kInvalidInst) {
      ++net;
    } else {
      ++cell;
      EXPECT_NE(a.wire, simd::kNoRelaxWire);
    }
  }
  EXPECT_EQ(flow_->design().num_instances(), 2585u);
  EXPECT_EQ(sta.num_edges(), 10119u);
  EXPECT_EQ(sta.arcs().size(), 5246u);
  EXPECT_EQ(cell, 4873u);
  EXPECT_EQ(net, 373u);
  EXPECT_EQ(net, sta.endpoints().size());
}

TEST_F(FlowFixture, ScenariosCoverDiagonal) {
  const ScenarioSet& sc = flow_->scenarios();
  EXPECT_EQ(sc.sweep.size(), 6u);
  EXPECT_GE(sc.max_severity(), 1);
  // Severity decreases away from the A corner.
  EXPECT_GE(sc.sweep.front().severity, sc.sweep.back().severity);
}

TEST_F(FlowFixture, IslandsNestAndShiftersInserted) {
  const IslandPlan& plan = flow_->island_plan();
  EXPECT_GE(plan.num_islands(), 1);
  for (int k = 1; k < plan.num_islands(); ++k) {
    EXPECT_GE(plan.cuts[k], plan.cuts[k - 1]);
  }
  const ShifterReport& ls = flow_->shifter_report();
  EXPECT_GT(ls.inserted, 0u);
  EXPECT_GT(ls.area_fraction, 0.0);
  EXPECT_LT(ls.area_fraction, 0.6);
  // Insertion costs performance (paper: 8-15 %), but not absurdly.
  EXPECT_GT(flow_->shifter_perf_degradation(), 0.0);
  EXPECT_LT(flow_->shifter_perf_degradation(), 0.5);
}

TEST_F(FlowFixture, SensorPlanIsSelective) {
  const RazorPlan& plan = flow_->razor_plan();
  EXPECT_GT(plan.total(), 0u);
  EXPECT_LT(plan.total(), flow_->design().num_flops());
}

TEST_F(FlowFixture, ViPowerBeatsChipWide) {
  // Fig. 5's core claim: for every violation scenario, raising only the
  // needed islands consumes less total power than chip-wide high Vdd.
  const IslandPlan& plan = flow_->island_plan();
  const DieLocation loc = DieLocation::point('A');
  const PowerBreakdown chip_wide = flow_->power_chip_wide_high(loc);
  const PowerBreakdown all_low = flow_->power_all_low(loc);
  double prev = 0.0;
  for (int sev = plan.num_islands(); sev >= 1; --sev) {
    const PowerBreakdown vi = flow_->power_for_severity(sev, loc);
    EXPECT_LT(vi.total_mw(), chip_wide.total_mw()) << "severity " << sev;
    EXPECT_GT(vi.total_mw(), all_low.total_mw()) << "severity " << sev;
    if (prev > 0.0) {
      // Fewer raised islands => less power.
      EXPECT_LT(vi.total_mw(), prev);
    }
    prev = vi.total_mw();
  }
}

TEST_F(FlowFixture, LevelShifterPowerShareIsSmall) {
  // Table 2: LS power is a minor share of total.  The tiny core has a
  // proportionally long island boundary (more shifters per cell than the
  // full VEX, which lands in the paper's few-percent range — see the
  // table2_ls_overhead bench), so the bound here is loose.
  const PowerBreakdown p =
      flow_->power_for_severity(flow_->island_plan().num_islands(),
                                DieLocation::point('A'));
  EXPECT_GT(p.level_shifter_mw, 0.0);
  EXPECT_LT(p.level_shifter_mw / p.total_mw(), 0.30);
}

TEST_F(FlowFixture, CompensationControllerWorksEndToEnd) {
  CompensationController ctrl = flow_->make_controller();
  Rng rng(2026);
  const VirtualChip chip = fabricate_chip(
      flow_->design(), flow_->variation(), DieLocation::point('A'), rng);
  const CompensationOutcome out = ctrl.compensate(chip);
  EXPECT_TRUE(out.timing_met);
  EXPECT_GE(out.islands_raised, out.detected_severity);
}

TEST(FlowDeterminism, SameSeedSameResults) {
  auto run = [] {
    Flow flow(tiny_flow_config());
    flow.simulate_activity();
    const PowerBreakdown p =
        flow.power_for_severity(1, DieLocation::point('B'));
    return std::tuple{flow.nominal_clock_ns(), flow.island_plan().cuts,
                      flow.shifter_report().inserted, p.total_mw()};
  };
  EXPECT_EQ(run(), run());
}

TEST(FlowHorizontal, HorizontalDirectionCompletes) {
  Flow flow(tiny_flow_config(SliceDir::Horizontal));
  flow.simulate_activity();
  EXPECT_EQ(flow.island_plan().dir, SliceDir::Horizontal);
  EXPECT_GT(flow.shifter_report().inserted, 0u);
  const PowerBreakdown p = flow.power_for_severity(
      flow.island_plan().num_islands(), DieLocation::point('A'));
  EXPECT_GT(p.total_mw(), 0.0);
}

TEST(FlowGuards, AccessorsThrowBeforeSteps) {
  Flow flow(tiny_flow_config());
  EXPECT_THROW(flow.scenarios(), std::logic_error);
  EXPECT_THROW(flow.island_plan(), std::logic_error);
  EXPECT_THROW(flow.shifter_report(), std::logic_error);
  EXPECT_THROW(flow.razor_plan(), std::logic_error);
  EXPECT_THROW(flow.activity(), std::logic_error);
  EXPECT_THROW(flow.power_all_low(DieLocation::point('A')), std::logic_error);
}

}  // namespace
}  // namespace vipvt
