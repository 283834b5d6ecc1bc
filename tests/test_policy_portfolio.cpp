// Compensation-policy portfolio tests (DESIGN.md §18): the statistical
// sizing/buffering transforms under variation — function/Vth
// preservation, zero-displacement buffer legality, criticality
// determinism — plus the contract the whole portfolio leans on: a
// zero-strength policy's per-die STA bits equal the pre-portfolio path
// exactly, and the campaign's policy axis stays byte-deterministic on
// compiled netlists.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "io/campaign_writers.hpp"
#include "netlist/buffering.hpp"
#include "netlist/sizing.hpp"
#include "vi/flow.hpp"
#include "vi/policy.hpp"
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

WaferConfig small_wafer() {
  WaferConfig wc;
  wc.wafer_diameter_mm = 70.0;  // a handful of dies
  return wc;
}

class PortfolioFixture : public ::testing::Test {
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
Flow* PortfolioFixture::flow_ = nullptr;

// ---- statistical upsizing --------------------------------------------------

TEST_F(PortfolioFixture, UpsizeCriticalPreservesFunctionAndVth) {
  Design design = flow_->design();
  const Design& base = flow_->design();
  const std::vector<double> crit(design.num_instances(), 1.0);
  CriticalSizingConfig cfg;
  cfg.enabled = true;
  cfg.min_crit_prob = 0.5;
  cfg.max_upsized = 40;
  const SizingReport report = upsize_critical(design, crit, cfg);
  EXPECT_GT(report.upsized, 0u);
  EXPECT_LE(report.upsized, 40u);

  std::size_t changed = 0;
  for (InstId i = 0; i < design.num_instances(); ++i) {
    const Cell& before = base.cell_of(i);
    const Cell& after = design.cell_of(i);
    if (before.name == after.name) continue;
    ++changed;
    EXPECT_EQ(before.func, after.func);
    EXPECT_EQ(before.vth, after.vth);
    EXPECT_GT(after.drive, before.drive);
    EXPECT_GE(after.area_um2, before.area_um2);
    // Zero-displacement ECO: the instance itself never moves.
    EXPECT_EQ(base.instance(i).pos.x, design.instance(i).pos.x);
    EXPECT_EQ(base.instance(i).pos.y, design.instance(i).pos.y);
  }
  EXPECT_EQ(changed, report.upsized);
  EXPECT_GT(design.total_area(), base.total_area());
  EXPECT_NO_THROW(design.check());
}

TEST_F(PortfolioFixture, UpsizeCriticalThresholdAndSizeValidation) {
  Design design = flow_->design();
  CriticalSizingConfig cfg;
  cfg.enabled = true;
  // Unreachable threshold: nothing selects.
  const std::vector<double> cold(design.num_instances(), 0.0);
  cfg.min_crit_prob = 0.5;
  EXPECT_EQ(upsize_critical(design, cold, cfg).upsized, 0u);
  // Mis-sized criticality vector throws.
  const std::vector<double> bad(design.num_instances() + 1, 1.0);
  EXPECT_THROW(upsize_critical(design, bad, cfg), std::invalid_argument);
}

// ---- statistical buffering -------------------------------------------------

TEST_F(PortfolioFixture, BufferCriticalNetsIsALegalZeroDisplacementEco) {
  Design design = flow_->design();
  const Design& base = flow_->design();
  const InstId base_insts = base.num_instances();
  const std::vector<double> crit(design.num_instances(), 1.0);
  CriticalBufferConfig cfg;
  cfg.enabled = true;
  cfg.min_crit_prob = 0.5;
  cfg.max_nets = 8;
  const BufferingReport report = buffer_critical_nets(design, crit, cfg);
  ASSERT_GT(report.buffers_inserted, 0u);
  EXPECT_LE(report.nets_split, 8u);

  // Every inserted instance is a placed buffer sitting AT its driver's
  // point, in the driver's voltage domain.
  for (InstId i = base_insts; i < design.num_instances(); ++i) {
    const Instance& buf = design.instance(i);
    EXPECT_EQ(design.cell_of(i).func, CellFunc::Buf);
    EXPECT_TRUE(buf.placed);
    const NetId in = buf.conns[0];
    const Instance& drv = design.instance(design.net(in).driver.inst);
    EXPECT_EQ(buf.pos.x, drv.pos.x);
    EXPECT_EQ(buf.pos.y, drv.pos.y);
    EXPECT_EQ(buf.domain, drv.domain);
    // Each leg serves at most `cluster` sinks.
    EXPECT_LE(design.net(buf.conns[1]).sinks.size(),
              static_cast<std::size_t>(cfg.cluster));
  }

  // Clock and primary-output nets are untouchable.
  for (NetId n = 0; n < base.num_nets(); ++n) {
    if (base.net(n).is_clock || base.net(n).is_primary_output) {
      EXPECT_EQ(design.net(n).sinks.size(), base.net(n).sinks.size());
    }
  }
  EXPECT_NO_THROW(design.check());

  // Endpoint stability: a rebuilt StaEngine enumerates the SAME flop
  // endpoints in the same order (buffers are appended combinational
  // cells), which is what keeps the baseline RazorPlan valid on the
  // transformed netlist.
  const StaEngine fresh(design, flow_->sta().options());
  const auto& before = flow_->sta().endpoints();
  const auto& after = fresh.endpoints();
  ASSERT_EQ(after.size(), before.size());
  for (std::size_t e = 0; e < before.size(); ++e) {
    EXPECT_EQ(after[e].flop, before[e].flop);
    EXPECT_EQ(after[e].stage, before[e].stage);
  }
}

// ---- criticality measurement -----------------------------------------------

TEST_F(PortfolioFixture, InstanceCriticalityIsBoundedAndDeterministic) {
  const std::vector<double> a = instance_criticality(
      flow_->design(), flow_->sta(), flow_->variation(),
      DieLocation::point('A'), 8, 0x5eed);
  const std::vector<double> b = instance_criticality(
      flow_->design(), flow_->sta(), flow_->variation(),
      DieLocation::point('A'), 8, 0x5eed);
  ASSERT_EQ(a.size(), flow_->design().num_instances());
  EXPECT_EQ(a, b);
  // On a pool the dies' integer fail tallies sum to the same bits.
  ThreadPool pool(3);
  EXPECT_EQ(instance_criticality(flow_->design(), flow_->sta(),
                                 flow_->variation(), DieLocation::point('A'),
                                 8, 0x5eed, &pool),
            a);
  for (const double p : a) {
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
}

// ---- compiled policy mixes -------------------------------------------------

TEST_F(PortfolioFixture, PureViMixAliasesTheBaseline) {
  const PolicyMix mix{"vi-only", true, true};
  const CompiledPolicy cp =
      compile_policy_mix(mix, flow_->design(), flow_->sta(),
                         flow_->variation(), flow_->activity());
  EXPECT_FALSE(cp.transformed());
  EXPECT_EQ(&cp.design_or(flow_->design()), &flow_->design());
  EXPECT_EQ(&cp.sta_or(flow_->sta()), &flow_->sta());
  EXPECT_EQ(cp.stats.mix, "vi-only");
  EXPECT_EQ(cp.stats.gates_upsized, 0u);
  EXPECT_EQ(cp.stats.area_delta_um2, 0.0);
}

TEST_F(PortfolioFixture, CompilePolicyMixIsDeterministic) {
  PolicyMix mix;
  mix.name = "both";
  mix.sizing.enabled = true;
  mix.sizing.min_crit_prob = 0.02;
  mix.buffering.enabled = true;
  mix.buffering.min_crit_prob = 0.02;
  mix.crit_samples = 8;
  const CompiledPolicy a = compile_policy_mix(
      mix, flow_->design(), flow_->sta(), flow_->variation(),
      flow_->activity());
  const CompiledPolicy b = compile_policy_mix(
      mix, flow_->design(), flow_->sta(), flow_->variation(),
      flow_->activity());
  ASSERT_TRUE(a.transformed());
  EXPECT_EQ(a.stats.gates_upsized, b.stats.gates_upsized);
  EXPECT_EQ(a.stats.buffers_inserted, b.stats.buffers_inserted);
  EXPECT_EQ(a.stats.area_um2, b.stats.area_um2);
  ASSERT_EQ(a.design->num_instances(), b.design->num_instances());
  for (InstId i = 0; i < a.design->num_instances(); ++i) {
    ASSERT_EQ(a.design->instance(i).cell, b.design->instance(i).cell);
  }
  // Activity extends to the new nets at the source net's rate.
  ASSERT_EQ(a.activity->toggle_rate.size(), a.design->num_nets());
  for (NetId n = flow_->design().num_nets(); n < a.design->num_nets(); ++n) {
    const NetId src = a.design->instance(a.design->net(n).driver.inst).conns[0];
    EXPECT_EQ(a.activity->toggle_rate[n], a.activity->toggle_rate[src]);
  }
}

// The satellite contract: a policy that takes the full transform path
// but selects nothing (unreachable threshold) must produce per-die STA
// bits identical to the pre-portfolio baseline — the rebuilt StaEngine
// and the RNG-position rules are exact (DESIGN.md §18).
TEST_F(PortfolioFixture, ZeroStrengthPolicyMatchesPrePortfolioBits) {
  PolicyMix zero;
  zero.name = "zero";
  zero.sizing.enabled = true;
  zero.sizing.min_crit_prob = 2.0;  // probabilities are <= 1
  zero.crit_samples = 4;
  const CompiledPolicy cp = compile_policy_mix(
      zero, flow_->design(), flow_->sta(), flow_->variation(),
      flow_->activity());
  ASSERT_TRUE(cp.transformed());
  EXPECT_EQ(cp.stats.gates_upsized, 0u);
  EXPECT_EQ(cp.stats.area_delta_um2, 0.0);

  const YieldAnalyzer base = YieldAnalyzer::from_flow(*flow_);
  const YieldAnalyzer compiled(*cp.design, *cp.sta, flow_->variation(),
                               flow_->island_plan(), flow_->razor_plan(),
                               *cp.activity,
                               1.0 / flow_->post_shifter_clock_ns());
  const WaferModel wafer(small_wafer());
  YieldConfig yc;
  yc.mc.samples = 6;
  StaEngine eng_a(flow_->sta());
  StaEngine eng_b(*cp.sta);
  for (std::size_t i = 0; i < std::min<std::size_t>(4, wafer.num_dies());
       ++i) {
    const DieOutcome a = base.analyze_die(eng_a, wafer.dies()[i], yc);
    const DieOutcome b = compiled.analyze_die(eng_b, wafer.dies()[i], yc);
    EXPECT_EQ(a.mc_severity, b.mc_severity);
    EXPECT_EQ(a.policy, b.policy);
    EXPECT_EQ(a.islands_raised, b.islands_raised);
    EXPECT_EQ(a.wns_all_low_ns, b.wns_all_low_ns);  // bitwise: same doubles
    EXPECT_EQ(a.wns_final_ns, b.wns_final_ns);
    EXPECT_EQ(a.fmax_ghz, b.fmax_ghz);
    EXPECT_EQ(a.total_mw, b.total_mw);
    EXPECT_EQ(a.leakage_mw, b.leakage_mw);
  }
}

// ---- the campaign's policy axis on compiled netlists -----------------------

TEST_F(PortfolioFixture, CampaignPortfolioAxisIsShardInvariant) {
  CampaignRunner runner;
  runner.add_variant("tiny", *flow_);

  CampaignSpec spec;
  spec.wafer_grids = {small_wafer()};
  spec.policies = {PolicyMix{"vi-only", true, true}, PolicyMix{}};
  spec.policies[1].name = "sizing+vi";
  spec.policies[1].sizing.enabled = true;
  spec.policies[1].sizing.min_crit_prob = 0.02;
  spec.policies[1].crit_samples = 8;
  spec.mc_samples = {5};
  spec.base.mc.samples = 5;
  spec.base.speed_bins = 4;
  spec.shard_dies = 5;

  // The digest covers the portfolio knobs: the same spec with a
  // different sizing threshold is a DIFFERENT campaign.
  CampaignSpec other = spec;
  other.policies[1].sizing.min_crit_prob = 0.5;
  EXPECT_NE(runner.spec_digest(spec), runner.spec_digest(other));

  const CampaignReport a = runner.run(spec);
  ASSERT_EQ(a.cells.size(), 2u);
  EXPECT_EQ(a.cells[0].portfolio.mix, "vi-only");
  EXPECT_FALSE(a.cells[0].portfolio.sizing);
  EXPECT_EQ(a.cells[1].portfolio.mix, "sizing+vi");
  EXPECT_TRUE(a.cells[1].portfolio.sizing);
  EXPECT_GT(a.cells[1].portfolio.gates_upsized, 0u);
  EXPECT_GT(a.cells[1].portfolio.area_delta_um2, 0.0);
  // Both cells fabricated every die of the wafer.
  EXPECT_EQ(a.cells[0].agg.dies, a.cells[1].agg.dies);

  // Byte-identical report across shard sizes (the §15 contract extended
  // over the portfolio axis).
  CampaignSpec resharded = spec;
  resharded.shard_dies = 16;
  const CampaignReport b = runner.run(resharded);
  std::ostringstream osa, osb;
  write_campaign_json(osa, a);
  write_campaign_json(osb, b);
  // The spec echo differs (shard_dies is scheduling, not physics), so
  // compare from the first cell onward plus the aggregate yields.
  const std::string sa = osa.str(), sb = osb.str();
  const std::size_t ca = sa.find("\"cells\""), cb = sb.find("\"cells\"");
  ASSERT_NE(ca, std::string::npos);
  EXPECT_EQ(sa.substr(ca), sb.substr(cb));
  EXPECT_EQ(a.total_dies(), b.total_dies());
  EXPECT_EQ(a.shipped_dies(), b.shipped_dies());
}

}  // namespace
}  // namespace vipvt
