// Voltage-island generation tests: nesting invariants, slice geometry,
// compensation effectiveness at the scenario locations, horizontal vs
// vertical direction handling, and corner bookkeeping.

#include <gtest/gtest.h>

#include <cstdint>

#include "netlist/vex.hpp"
#include "placement/placer.hpp"
#include "timing/recovery.hpp"
#include "vi/islands.hpp"
#include "vi/scenario.hpp"

namespace vipvt {
namespace {

/// 64-bit FNV-1a over every instance's domain, in instance order.
std::uint64_t domain_hash(const Design& d) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (InstId i = 0; i < d.num_instances(); ++i) {
    h ^= d.instance(i).domain;
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Shared expensive setup: placed + recovered tiny VEX with scenarios.
class IslandFixture : public ::testing::Test {
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
    sc.sweep_points = 6;
    sc.mc.samples = 100;
    scenarios_ = new ScenarioSet(
        characterize_scenarios(*design_, *sta_, *model_, sc));
  }

  static void TearDownTestSuite() {
    delete scenarios_;
    delete model_;
    delete field_;
    delete sta_;
    delete db_;
    delete fp_;
    delete design_;
    delete lib_;
    scenarios_ = nullptr;
    model_ = nullptr;
    field_ = nullptr;
    sta_ = nullptr;
    db_ = nullptr;
    fp_ = nullptr;
    design_ = nullptr;
    lib_ = nullptr;
  }

  /// Locations per severity with fallbacks, as the Flow builds them.
  static std::vector<DieLocation> severity_locations() {
    std::vector<DieLocation> locs;
    std::optional<DieLocation> fb;
    for (std::size_t k = scenarios_->by_severity.size(); k-- > 0;) {
      if (scenarios_->by_severity[k].has_value()) {
        fb = scenarios_->by_severity[k]->location;
      }
    }
    for (const auto& sp : scenarios_->by_severity) {
      if (sp.has_value()) {
        locs.push_back(sp->location);
        fb = sp->location;
      } else if (fb.has_value()) {
        locs.push_back(*fb);
      }
    }
    return locs;
  }

  static Library* lib_;
  static Design* design_;
  static Floorplan* fp_;
  static PlacementDb* db_;
  static StaEngine* sta_;
  static ExposureField* field_;
  static VariationModel* model_;
  static ScenarioSet* scenarios_;
};

Library* IslandFixture::lib_ = nullptr;
Design* IslandFixture::design_ = nullptr;
Floorplan* IslandFixture::fp_ = nullptr;
PlacementDb* IslandFixture::db_ = nullptr;
StaEngine* IslandFixture::sta_ = nullptr;
ExposureField* IslandFixture::field_ = nullptr;
VariationModel* IslandFixture::model_ = nullptr;
ScenarioSet* IslandFixture::scenarios_ = nullptr;

TEST_F(IslandFixture, ScenariosExistAndAreOrdered) {
  EXPECT_GE(scenarios_->max_severity(), 1);
  int prev = 99;
  for (const auto& p : scenarios_->sweep) {
    EXPECT_LE(p.severity, prev);  // monotone non-increasing from A out
    prev = p.severity;
  }
}

TEST_F(IslandFixture, GeneratesNestedFeasibleIslands) {
  const auto locs = severity_locations();
  ASSERT_FALSE(locs.empty());
  IslandConfig cfg;
  cfg.dir = SliceDir::Vertical;
  cfg.mc_samples = 80;
  IslandGenerator gen(*design_, *fp_, *sta_, *model_, cfg);
  const IslandPlan plan = gen.generate(locs);

  ASSERT_EQ(plan.num_islands(), static_cast<int>(locs.size()));
  // Cuts are non-decreasing (nesting) and there is at least one cell in
  // the union of islands.
  for (int k = 1; k < plan.num_islands(); ++k) {
    EXPECT_GE(plan.cuts[k], plan.cuts[k - 1]);
  }
  EXPECT_GT(plan.total_island_cells(), 0u);
  for (int k = 0; k < plan.num_islands(); ++k) {
    EXPECT_TRUE(plan.feasible[k]) << "island " << k + 1;
  }

  // Domain assignment is consistent with cut geometry: domains partition
  // the sorted cells into contiguous prefixes.
  std::size_t in_islands = 0;
  for (InstId i = 0; i < design_->num_instances(); ++i) {
    const DomainId dom = design_->instance(i).domain;
    EXPECT_LE(dom, plan.num_islands());
    if (dom != kDomainBase) ++in_islands;
  }
  EXPECT_EQ(in_islands, plan.total_island_cells());
}

TEST_F(IslandFixture, VerticalSlicesAreVerticalStripes) {
  const auto locs = severity_locations();
  IslandConfig cfg;
  cfg.dir = SliceDir::Vertical;
  cfg.mc_samples = 80;
  IslandGenerator gen(*design_, *fp_, *sta_, *model_, cfg);
  const IslandPlan plan = gen.generate(locs);
  // For every pair (island cell, base cell): in slice-key space the
  // island cell is nearer the start side than any base-domain cell.
  const Rect& die = fp_->die();
  double max_island_key = -1.0, min_base_key = 1e18;
  for (InstId i = 0; i < design_->num_instances(); ++i) {
    const Instance& inst = design_->instance(i);
    const double key = plan.from_low_side ? inst.pos.x - die.lo.x
                                          : die.hi.x - inst.pos.x;
    if (inst.domain == kDomainBase) {
      min_base_key = std::min(min_base_key, key);
    } else {
      max_island_key = std::max(max_island_key, key);
    }
  }
  // Stripe boundary: allow one site of slack for equal coordinates.
  EXPECT_LE(max_island_key, min_base_key + fp_->site_width() + 1e-6);
}

TEST_F(IslandFixture, RaisingIslandsFixesScenario) {
  const auto locs = severity_locations();
  IslandConfig cfg;
  cfg.dir = SliceDir::Vertical;
  cfg.mc_samples = 80;
  IslandGenerator gen(*design_, *fp_, *sta_, *model_, cfg);
  const IslandPlan plan = gen.generate(locs);

  MonteCarloSsta mc(*design_, *sta_, *model_);
  McConfig mcc;
  mcc.samples = 80;
  for (int sev = 1; sev <= plan.num_islands(); ++sev) {
    const DieLocation& loc = locs[static_cast<std::size_t>(sev - 1)];
    // Without compensation the scenario violates...
    sta_->compute_base_all_low();
    const McResult before = mc.run(loc, mcc);
    EXPECT_GT(before.num_violating_stages(), 0) << "severity " << sev;
    // ...with islands 1..sev raised it is fixed.
    const auto corners = plan.corners_for_severity(sev);
    sta_->compute_base(corners);
    const McResult after = mc.run(loc, mcc);
    EXPECT_EQ(after.num_violating_stages(), 0) << "severity " << sev;
  }
  sta_->compute_base_all_low();
}

TEST_F(IslandFixture, HorizontalDirectionAlsoWorks) {
  const auto locs = severity_locations();
  IslandConfig cfg;
  cfg.dir = SliceDir::Horizontal;
  cfg.mc_samples = 80;
  IslandGenerator gen(*design_, *fp_, *sta_, *model_, cfg);
  const IslandPlan plan = gen.generate(locs);
  EXPECT_EQ(plan.dir, SliceDir::Horizontal);
  EXPECT_GT(plan.total_island_cells(), 0u);
  for (int k = 0; k < plan.num_islands(); ++k) {
    EXPECT_TRUE(plan.feasible[k]);
  }
  // Restore vertical plan for any later fixture users.
  IslandConfig vcfg;
  vcfg.dir = SliceDir::Vertical;
  vcfg.mc_samples = 80;
  IslandGenerator vgen(*design_, *fp_, *sta_, *model_, vcfg);
  vgen.generate(locs);
}

// The plans and domain assignments below were recorded from the
// generator that built each start side in turn and rebuilt a low-side
// winner; generating both sides island by island must not move a bit.
TEST_F(IslandFixture, PlansPinnedInBothDirections) {
  const auto locs = severity_locations();
  IslandConfig cfg;
  cfg.mc_samples = 80;
  cfg.dir = SliceDir::Vertical;
  IslandPlan plan = IslandGenerator(*design_, *fp_, *sta_, *model_, cfg)
                        .generate(locs);
  EXPECT_FALSE(plan.from_low_side);
  EXPECT_EQ(plan.cell_count, (std::vector<std::size_t>{657, 534}));
  EXPECT_EQ(plan.feasible, (std::vector<bool>{true, true}));
  EXPECT_EQ(plan.cuts,
            (std::vector<double>{0x1.4e66666666668p+5, 0x1.2266666666668p+6}));
  EXPECT_EQ(domain_hash(*design_), 0xb52a48f74ff83564ull);

  cfg.dir = SliceDir::Horizontal;
  plan = IslandGenerator(*design_, *fp_, *sta_, *model_, cfg).generate(locs);
  EXPECT_FALSE(plan.from_low_side);
  EXPECT_EQ(plan.cell_count, (std::vector<std::size_t>{1138, 576}));
  EXPECT_EQ(plan.feasible, (std::vector<bool>{true, true}));
  EXPECT_EQ(plan.cuts,
            (std::vector<double>{0x1.0a66666666667p+6, 0x1.8cp+6}));
  EXPECT_EQ(domain_hash(*design_), 0x1e60bfea30417ccdull);

  // Leave the vertical plan in place for later fixture users.
  cfg.dir = SliceDir::Vertical;
  IslandGenerator(*design_, *fp_, *sta_, *model_, cfg).generate(locs);
}

TEST_F(IslandFixture, PlanPinnedWhenLowStartSideWins) {
  // Mirroring the placement in x puts the critical logic on the low side,
  // so the low start side wins the vertical plan.
  Design mirrored = *design_;
  const Rect& die = fp_->die();
  for (InstId i = 0; i < mirrored.num_instances(); ++i) {
    Point& p = mirrored.instance(i).pos;
    p.x = die.lo.x + die.hi.x - p.x;
  }
  StaEngine sta(mirrored, sta_->options());
  IslandConfig cfg;
  cfg.mc_samples = 80;
  cfg.dir = SliceDir::Vertical;
  const IslandPlan plan = IslandGenerator(mirrored, *fp_, sta, *model_, cfg)
                              .generate(severity_locations());
  EXPECT_TRUE(plan.from_low_side);
  EXPECT_EQ(plan.cell_count, (std::vector<std::size_t>{657, 534}));
  EXPECT_EQ(plan.feasible, (std::vector<bool>{true, true}));
  EXPECT_EQ(plan.cuts,
            (std::vector<double>{0x1.4e66666666668p+5, 0x1.2266666666668p+6}));
  EXPECT_EQ(domain_hash(mirrored), 0xb52a48f74ff83564ull);
}

TEST(IslandPlanUnit, CornersForSeverity) {
  IslandPlan plan;
  plan.cuts = {10.0, 20.0, 30.0};
  plan.cell_count = {5, 5, 5};
  plan.feasible = {true, true, true};
  const auto c0 = plan.corners_for_severity(0);
  EXPECT_EQ(c0, (std::vector<int>{kVddLow, kVddLow, kVddLow, kVddLow}));
  const auto c2 = plan.corners_for_severity(2);
  EXPECT_EQ(c2, (std::vector<int>{kVddLow, kVddHigh, kVddHigh, kVddLow}));
  const auto c9 = plan.corners_for_severity(9);  // clamped
  EXPECT_EQ(c9, (std::vector<int>{kVddLow, kVddHigh, kVddHigh, kVddHigh}));
}

TEST(IslandPlanUnit, DomainRankOrder) {
  IslandPlan plan;
  plan.cuts = {1.0, 2.0, 3.0};
  // Island 1 raised first => highest rank; base lowest.
  EXPECT_EQ(plan.domain_rank(kDomainBase), 0);
  EXPECT_GT(plan.domain_rank(1), plan.domain_rank(2));
  EXPECT_GT(plan.domain_rank(2), plan.domain_rank(3));
  EXPECT_GT(plan.domain_rank(3), plan.domain_rank(kDomainBase));
}

TEST(IslandGeneratorUnit, RejectsEmptyScenarioList) {
  Library lib = make_st65lp_like();
  Design d = make_vex_design(lib, VexConfig::tiny());
  Floorplan fp = Floorplan::for_design(d, FloorplanConfig{});
  PlacementDb db(fp);
  place_design(d, fp, PlacerConfig{}, db);
  StaEngine sta(d, StaOptions{});
  CharParams cp = lib.char_params();
  ExposureField field = ExposureField::scaled_65nm(cp);
  VariationModel model(cp, field);
  IslandGenerator gen(d, fp, sta, model, IslandConfig{});
  EXPECT_THROW(gen.generate({}), std::invalid_argument);
}

}  // namespace
}  // namespace vipvt
