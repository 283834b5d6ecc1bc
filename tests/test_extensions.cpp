// Tests for the extension features: spatially-correlated within-die
// variation, the logic-aware island generator (the paper's future-work
// exploration), and the adaptive-body-bias comparison physics.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>

#include "netlist/vex.hpp"
#include "placement/placer.hpp"
#include "timing/recovery.hpp"
#include "util/stats.hpp"
#include "vi/logic_islands.hpp"
#include "vi/scenario.hpp"
#include "vi/shifters.hpp"

namespace vipvt {
namespace {

// ---------- correlated variation -------------------------------------------

class CorrVariationTest : public ::testing::Test {
 protected:
  CharParams cp_;
  ExposureField field_ = ExposureField::scaled_65nm(cp_);
};

TEST_F(CorrVariationTest, ZeroFractionIsInactive) {
  VariationModel model(cp_, field_);
  Rng rng(3);
  EXPECT_FALSE(model.draw_field(rng).active());
  EXPECT_DOUBLE_EQ(model.sigma_correlated_nm(), 0.0);
  EXPECT_NEAR(model.sigma_independent_nm(),
              0.065 / 3.0 * cp_.lgate_nom, 1e-12);
}

TEST_F(CorrVariationTest, VariancePreservedUnderSplit) {
  VariationConfig cfg;
  cfg.correlated_fraction = 0.5;
  VariationModel model(cp_, field_, cfg);
  const double total = 0.065 / 3.0 * cp_.lgate_nom;
  EXPECT_NEAR(model.sigma_correlated_nm() * model.sigma_correlated_nm() +
                  model.sigma_independent_nm() * model.sigma_independent_nm(),
              total * total, 1e-9);

  // Empirically: per-cell marginal sigma matches the i.i.d. model.
  Rng rng(17);
  RunningStats rs;
  const DieLocation loc = DieLocation::point('B');
  const Point pos{80.0, 120.0};
  for (int s = 0; s < 3000; ++s) {
    const CorrelatedField f = model.draw_field(rng);
    rs.add(model.sample_lgate(pos, loc, rng, &f));
  }
  EXPECT_NEAR(rs.stddev(), total, 0.06);
}

TEST_F(CorrVariationTest, NearbyCellsCorrelateDistantDoNot) {
  VariationConfig cfg;
  cfg.correlated_fraction = 0.8;
  cfg.correlation_length_um = 150.0;
  VariationModel model(cp_, field_, cfg);
  Rng rng(23);
  const DieLocation loc = DieLocation::point('B');
  const Point a{100.0, 100.0};
  const Point near_a{112.0, 104.0};     // << correlation length
  const Point far_a{100.0 + 1800.0, 100.0 + 1800.0};  // >> length

  // Sample-correlation across many field draws.
  const int kN = 1500;
  std::vector<double> va, vn, vf;
  for (int s = 0; s < kN; ++s) {
    const CorrelatedField f = model.draw_field(rng);
    va.push_back(model.sample_lgate(a, loc, rng, &f));
    vn.push_back(model.sample_lgate(near_a, loc, rng, &f));
    vf.push_back(model.sample_lgate(far_a, loc, rng, &f));
  }
  auto corr = [](const std::vector<double>& x, const std::vector<double>& y) {
    RunningStats sx, sy;
    for (double v : x) sx.add(v);
    for (double v : y) sy.add(v);
    double cov = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
      cov += (x[i] - sx.mean()) * (y[i] - sy.mean());
    }
    cov /= static_cast<double>(x.size() - 1);
    return cov / (sx.stddev() * sy.stddev());
  };
  EXPECT_GT(corr(va, vn), 0.5);
  EXPECT_LT(std::abs(corr(va, vf)), 0.25);
}

TEST_F(CorrVariationTest, FieldInterpolatesSmoothly) {
  Rng rng(5);
  CorrelatedField f(100.0, 24, 1.0, rng);
  ASSERT_TRUE(f.active());
  // Continuity: tiny moves change the value only slightly.
  const double v0 = f.at(Point{250.0, 250.0});
  const double v1 = f.at(Point{251.0, 250.0});
  EXPECT_LT(std::abs(v1 - v0), 0.2);
  // Out-of-range positions clamp rather than blow up.
  EXPECT_NO_THROW(f.at(Point{1e6, -1e6}));
}

// ---------- ABB baseline physics ---------------------------------------------

TEST(AbbPhysics, ForwardBiasSpeedsUpAndLeaks) {
  CharParams cp;
  EXPECT_LT(cp.abb_delay_ratio(0.05), 1.0);
  EXPECT_GT(cp.abb_leakage_ratio(0.05), 1.0);
  EXPECT_DOUBLE_EQ(cp.abb_delay_ratio(0.0), 1.0);
}

TEST(AbbPhysics, MatchingShiftReproducesAvsSpeedup) {
  CharParams cp;
  const double shift = cp.abb_shift_matching_avs();
  EXPECT_NEAR(cp.abb_delay_ratio(shift), cp.high_vdd_speed_ratio(), 1e-6);
  // The paper's argument (via Humenay/Tschanz): ABB pays far more
  // leakage than AVS for the same speedup.
  EXPECT_GT(cp.abb_leakage_ratio(shift),
            2.0 * cp.leakage_factor(cp.lgate_nom, cp.vdd_high));
}

// ---------- logic-aware islands ------------------------------------------------

class LogicIslandFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    lib_ = new Library(make_st65lp_like());
    design_ = new Design(make_vex_design(*lib_, VexConfig::tiny()));
    fp_ = new Floorplan(Floorplan::for_design(*design_, FloorplanConfig{}));
    db_ = new PlacementDb(*fp_);
    place_design(*design_, *fp_, PlacerConfig{}, *db_);
    sta_ = new StaEngine(*design_, StaOptions{});
    sta_->set_clock_period(sta_->min_period() * 1.04);
    recover_power(*design_, *sta_, RecoveryConfig{});
    field_ = new ExposureField(ExposureField::scaled_65nm(lib_->char_params()));
    model_ = new VariationModel(lib_->char_params(), *field_);
    ScenarioConfig sc;
    sc.sweep_points = 5;
    sc.mc.samples = 80;
    auto scen = characterize_scenarios(*design_, *sta_, *model_, sc);
    std::optional<DieLocation> fb;
    for (std::size_t k = scen.by_severity.size(); k-- > 0;) {
      if (scen.by_severity[k].has_value()) fb = scen.by_severity[k]->location;
    }
    for (const auto& sp : scen.by_severity) {
      if (sp.has_value()) {
        locs_.push_back(sp->location);
        fb = sp->location;
      } else if (fb.has_value()) {
        locs_.push_back(*fb);
      }
    }
    if (locs_.empty()) locs_.push_back(DieLocation::point('A'));
  }
  static void TearDownTestSuite() {
    delete model_;
    delete field_;
    delete sta_;
    delete db_;
    delete fp_;
    delete design_;
    delete lib_;
    locs_.clear();
  }

  static Library* lib_;
  static Design* design_;
  static Floorplan* fp_;
  static PlacementDb* db_;
  static StaEngine* sta_;
  static ExposureField* field_;
  static VariationModel* model_;
  static std::vector<DieLocation> locs_;
};

Library* LogicIslandFixture::lib_ = nullptr;
Design* LogicIslandFixture::design_ = nullptr;
Floorplan* LogicIslandFixture::fp_ = nullptr;
PlacementDb* LogicIslandFixture::db_ = nullptr;
StaEngine* LogicIslandFixture::sta_ = nullptr;
ExposureField* LogicIslandFixture::field_ = nullptr;
VariationModel* LogicIslandFixture::model_ = nullptr;
std::vector<DieLocation> LogicIslandFixture::locs_;

TEST_F(LogicIslandFixture, CompensatesEveryScenario) {
  LogicIslandConfig cfg;
  cfg.mc_samples = 80;
  LogicIslandGenerator gen(*design_, *sta_, *model_, cfg);
  const IslandPlan plan = gen.generate(locs_);
  ASSERT_EQ(plan.num_islands(), static_cast<int>(locs_.size()));
  for (int k = 0; k < plan.num_islands(); ++k) {
    EXPECT_TRUE(plan.feasible[static_cast<std::size_t>(k)]) << k;
  }

  MonteCarloSsta mc(*design_, *sta_, *model_);
  McConfig mcc;
  mcc.samples = 80;
  for (int sev = 1; sev <= plan.num_islands(); ++sev) {
    sta_->compute_base(plan.corners_for_severity(sev));
    const McResult res =
        mc.run(locs_[static_cast<std::size_t>(sev - 1)], mcc);
    EXPECT_EQ(res.num_violating_stages(), 0) << "severity " << sev;
  }
  sta_->compute_base_all_low();
}

TEST_F(LogicIslandFixture, SmallerIslandsButMoreShifters) {
  // The trade the paper predicts: logic-driven grouping boosts fewer
  // cells but fragments the domains, multiplying crossings.
  LogicIslandConfig lcfg;
  lcfg.mc_samples = 80;
  LogicIslandGenerator lgen(*design_, *sta_, *model_, lcfg);
  const IslandPlan logic_plan = lgen.generate(locs_);
  const std::size_t logic_cells = logic_plan.total_island_cells();
  // Count would-be crossings without mutating the netlist.
  auto count_crossings = [&](const IslandPlan& plan) {
    std::size_t crossings = 0;
    for (NetId n = 0; n < design_->num_nets(); ++n) {
      const Net& net = design_->net(n);
      if (net.is_clock) continue;
      const int drv =
          net.has_cell_driver()
              ? plan.domain_rank(design_->instance(net.driver.inst).domain)
              : 0;
      std::array<bool, 256> seen{};
      for (const auto& sink : net.sinks) {
        const DomainId dom = design_->instance(sink.inst).domain;
        if (plan.domain_rank(dom) > drv && !seen[dom]) {
          seen[dom] = true;
          ++crossings;
        }
      }
    }
    return crossings;
  };
  const std::size_t logic_crossings = count_crossings(logic_plan);

  IslandConfig scfg;
  scfg.mc_samples = 80;
  IslandGenerator sgen(*design_, *fp_, *sta_, *model_, scfg);
  const IslandPlan slice_plan = sgen.generate(locs_);
  const std::size_t slice_cells = slice_plan.total_island_cells();
  const std::size_t slice_crossings = count_crossings(slice_plan);

  EXPECT_LT(logic_cells, slice_cells);
  EXPECT_GT(logic_cells, 0u);
  // Fragmentation costs crossings per boosted cell.
  EXPECT_GT(static_cast<double>(logic_crossings) /
                static_cast<double>(std::max<std::size_t>(1, logic_cells)),
            static_cast<double>(slice_crossings) /
                static_cast<double>(std::max<std::size_t>(1, slice_cells)));
}

TEST_F(LogicIslandFixture, PlanPinned) {
  // Recorded from the generator that drew every trial's samples; reading
  // them from one draw table per location must not move a bit.
  LogicIslandConfig cfg;
  cfg.mc_samples = 80;
  const IslandPlan plan =
      LogicIslandGenerator(*design_, *sta_, *model_, cfg).generate(locs_);
  EXPECT_EQ(plan.cell_count, (std::vector<std::size_t>{83, 252}));
  EXPECT_EQ(plan.feasible, (std::vector<bool>{true, true}));
  EXPECT_EQ(plan.cuts,
            (std::vector<double>{0x1.b2124e587a7cp-6, -0x1.442a8f9146ap-7}));
  std::uint64_t hash = 0xcbf29ce484222325ull;  // FNV-1a over the domains
  for (InstId i = 0; i < design_->num_instances(); ++i) {
    hash ^= design_->instance(i).domain;
    hash *= 0x100000001b3ull;
  }
  EXPECT_EQ(hash, 0x040c5ac3092db8beull);
}

}  // namespace
}  // namespace vipvt
