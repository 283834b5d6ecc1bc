// STA engine tests: graph construction, arrival propagation, slack and
// per-stage grouping, annotated-factor scaling semantics, corner effects,
// and critical-path tracing.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "netlist/builder.hpp"
#include "netlist/vex.hpp"
#include "placement/placer.hpp"
#include "timing/sta.hpp"
#include "util/rng.hpp"

namespace vipvt {
namespace {

/// PI -> INV -> INV -> DFF chain, all cells co-located (zero wire delay).
class ChainFixture : public ::testing::Test {
 protected:
  ChainFixture() : design_("chain", lib_) {
    NetlistBuilder b(design_);
    b.clock_input("clk");
    const NetId a = b.input("a");
    b.set_stage(PipeStage::Execute);
    const NetId x = b.inv(a);
    const NetId y = b.inv(x);
    const NetId q = b.dff(y);
    b.set_stage(PipeStage::Decode);
    const NetId z = b.inv(q);
    const NetId q2 = b.dff(z);
    b.output(q2);
    design_.check();
    for (InstId i = 0; i < design_.num_instances(); ++i) {
      design_.instance(i).pos = {10.0, 10.0};
      design_.instance(i).placed = true;
    }
  }

  Library lib_ = make_st65lp_like();
  Design design_;
  StaOptions opts_{};
};

TEST_F(ChainFixture, EndpointInventory) {
  StaEngine sta(design_, opts_);
  // 2 flop D endpoints + 1 primary output endpoint.
  EXPECT_EQ(sta.endpoints().size(), 3u);
  int flop_eps = 0;
  for (const auto& ep : sta.endpoints()) flop_eps += (ep.flop != kInvalidInst);
  EXPECT_EQ(flop_eps, 2);
}

TEST_F(ChainFixture, ArrivalMatchesManualLookup) {
  StaEngine sta(design_, opts_);
  const StaResult res = sta.analyze();

  // Manual recomputation for the PI -> INV -> INV -> DFF.D endpoint,
  // including the Elmore wire terms from the (tiny) center-to-center
  // bounding boxes.
  const Cell& inv = lib_.cell(lib_.find("INV_X1"));
  const Cell& dff = lib_.cell(lib_.find("DFF_X1"));
  const WireParams& wp = lib_.wire();
  const auto& arc = inv.arcs[0].corner[kVddLow];
  // Nets: a -> inv1 (net 'x' drives inv2), inv2 (net 'y' drives DFF.D).
  const NetId net_x = design_.instance(1).conns[0];
  const NetId net_y = design_.instance(2).conns[0];
  const double lx = net_hpwl(design_, net_x);
  const double ly = net_hpwl(design_, net_y);
  const double s0 = opts_.default_input_slew_ns;
  const double load1 = inv.pins[0].cap_pf + wp.capacitance(lx);
  const double d1 = arc.delay.lookup(s0, load1);
  const double w1 = wp.resistance(lx) *
                    (0.5 * wp.capacitance(lx) + inv.pins[0].cap_pf);
  const double s1 = arc.out_slew.lookup(s0, load1) + 2.0 * w1;
  const double load2 = dff.pins[0].cap_pf + wp.capacitance(ly);
  const double d2 = arc.delay.lookup(s1, load2);
  const double w2 = wp.resistance(ly) *
                    (0.5 * wp.capacitance(ly) + dff.pins[0].cap_pf);
  const double expected_arrival = d1 + w1 + d2 + w2;

  // Locate the EX-stage flop endpoint.
  double slack = 1e9;
  for (std::size_t k = 0; k < sta.endpoints().size(); ++k) {
    if (sta.endpoints()[k].flop != kInvalidInst &&
        sta.endpoints()[k].stage == PipeStage::Execute) {
      slack = res.endpoint_slack[k];
    }
  }
  const double expected_slack =
      opts_.clock_period_ns - dff.setup_ns - expected_arrival;
  // Edge delays are stored as float inside the engine.
  EXPECT_NEAR(slack, expected_slack, 1e-6);
}

TEST_F(ChainFixture, FactorsScaleCellDelaysExactly) {
  StaEngine sta(design_, opts_);
  const double t1 = sta.min_period();
  std::vector<double> factors(design_.num_instances(), 2.0);
  const double t2 = sta.min_period(factors);
  // Everything except setup and the (sub-10fs) wire Elmore terms scales
  // by exactly 2 — wires are variation-free per the paper's model.
  const Cell& dff = lib_.cell(lib_.find("DFF_X1"));
  EXPECT_NEAR(t2 - dff.setup_ns, 2.0 * (t1 - dff.setup_ns), 1e-4);
}

TEST_F(ChainFixture, PerStageGrouping) {
  StaEngine sta(design_, opts_);
  const StaResult res = sta.analyze();
  EXPECT_TRUE(std::isfinite(res.stage_worst(PipeStage::Execute)));
  EXPECT_TRUE(std::isfinite(res.stage_worst(PipeStage::Decode)));
  // The EX path (2 INVs from a port) vs DC path (clk->q + INV): both
  // positive slack at the default 3.9 ns clock.
  EXPECT_GT(res.stage_worst(PipeStage::Execute), 0.0);
  EXPECT_GT(res.stage_worst(PipeStage::Decode), 0.0);
}

TEST_F(ChainFixture, HighCornerShortensArrival) {
  StaEngine sta(design_, opts_);
  const double t_low = sta.min_period();
  // Everything into domain 1 at the high corner.
  for (InstId i = 0; i < design_.num_instances(); ++i) {
    design_.instance(i).domain = 1;
  }
  std::vector<int> corners = {kVddLow, kVddHigh};
  sta.compute_base(corners);
  const double t_high = sta.min_period();
  EXPECT_LT(t_high, t_low);
  EXPECT_NEAR(t_high / t_low, lib_.char_params().high_vdd_speed_ratio(), 0.03);
}

TEST_F(ChainFixture, TracePathWalksToLaunch) {
  StaEngine sta(design_, opts_);
  const StaResult res = sta.analyze();
  // Find worst endpoint.
  std::size_t worst = 0;
  for (std::size_t k = 1; k < res.endpoint_slack.size(); ++k) {
    if (res.endpoint_slack[k] < res.endpoint_slack[worst]) worst = k;
  }
  const auto path = sta.trace_path(worst);
  ASSERT_GE(path.size(), 2u);
  // Arrivals are non-decreasing along the path and sum of increments
  // equals the endpoint arrival.
  double sum = 0.0;
  for (std::size_t i = 0; i < path.size(); ++i) {
    sum += path[i].incr_ns;
    if (i > 0) {
      EXPECT_GE(path[i].arrival_ns, path[i - 1].arrival_ns - 1e-12);
    }
  }
  EXPECT_NEAR(sum, path.back().arrival_ns, 1e-9);
}

TEST(StaVex, NominalTimingShape) {
  Library lib = make_st65lp_like();
  Design d = make_vex_design(lib, VexConfig::tiny());
  Floorplan fp = Floorplan::for_design(d, FloorplanConfig{});
  PlacementDb db(fp);
  place_design(d, fp, PlacerConfig{}, db);
  StaEngine sta(d, StaOptions{});
  const double tmin = sta.min_period();
  EXPECT_GT(tmin, 0.3);   // a real multi-level pipeline
  EXPECT_LT(tmin, 20.0);  // and not absurd

  sta.set_clock_period(tmin * 1.01);
  const StaResult res = sta.analyze();
  EXPECT_GE(res.wns, 0.0);
  EXPECT_NEAR(res.wns, 0.01 * tmin, 0.02 * tmin);
  EXPECT_EQ(res.tns, 0.0);

  // All four stages have endpoints on a VEX core.
  for (PipeStage s : {PipeStage::Fetch, PipeStage::Decode, PipeStage::Execute,
                      PipeStage::WriteBack}) {
    EXPECT_TRUE(std::isfinite(res.stage_worst(s))) << stage_name(s);
  }
}

TEST(StaVex, ExecuteIsTheCriticalStage) {
  // The paper: the global critical path lives in the EX stage (through a
  // forwarding unit and an ALU).
  Library lib = make_st65lp_like();
  Design d = make_vex_design(lib, VexConfig{});
  Floorplan fp = Floorplan::for_design(d, FloorplanConfig{});
  PlacementDb db(fp);
  place_design(d, fp, PlacerConfig{}, db);
  StaEngine sta(d, StaOptions{});
  StaResult res = sta.analyze();
  const double ex = res.stage_worst(PipeStage::Execute);
  for (PipeStage s : {PipeStage::Decode, PipeStage::WriteBack}) {
    EXPECT_LE(ex, res.stage_worst(s) + 1e-9) << stage_name(s);
  }
}

TEST(StaVex, TighterClockGoesNegative) {
  Library lib = make_st65lp_like();
  Design d = make_vex_design(lib, VexConfig::tiny());
  Floorplan fp = Floorplan::for_design(d, FloorplanConfig{});
  PlacementDb db(fp);
  place_design(d, fp, PlacerConfig{}, db);
  StaEngine sta(d, StaOptions{});
  const double tmin = sta.min_period();
  sta.set_clock_period(0.9 * tmin);
  const StaResult res = sta.analyze();
  EXPECT_LT(res.wns, 0.0);
  EXPECT_LT(res.tns, 0.0);
}

TEST(StaVex, MinPeriodMatchesAnalyzeField) {
  Library lib = make_st65lp_like();
  Design d = make_vex_design(lib, VexConfig::tiny());
  Floorplan fp = Floorplan::for_design(d, FloorplanConfig{});
  PlacementDb db(fp);
  place_design(d, fp, PlacerConfig{}, db);
  StaEngine sta(d, StaOptions{});
  const StaResult res = sta.analyze();
  EXPECT_EQ(sta.min_period(), res.min_period_ns);
  // All endpoints constrained here, so min period == clock - WNS exactly
  // (both are the same max scan over the same slacks).
  EXPECT_EQ(res.min_period_ns, res.clock_period_ns - res.wns);
}

/// The batched SoA kernel is a pure execution-layout change: every lane
/// of analyze_batch must reproduce the corresponding scalar analyze()
/// call bit-for-bit, on every StaResult field.
TEST(StaVex, AnalyzeBatchBitIdenticalToScalar) {
  Library lib = make_st65lp_like();
  Design d = make_vex_design(lib, VexConfig::tiny());
  Floorplan fp = Floorplan::for_design(d, FloorplanConfig{});
  PlacementDb db(fp);
  place_design(d, fp, PlacerConfig{}, db);
  StaEngine sta(d, StaOptions{});
  sta.set_clock_period(sta.min_period() * 1.005);

  Rng rng(0xbeefcafeULL);
  // Width 11 exercises the runtime-width fallback; a second pass over
  // the first 8 lanes exercises the fixed-width kernel.  Lane 5 is empty
  // (= nominal factors), a supported input.
  std::vector<std::vector<double>> lanes(11);
  for (std::size_t b = 0; b < lanes.size(); ++b) {
    if (b == 5) continue;
    lanes[b].resize(d.num_instances());
    for (auto& f : lanes[b]) f = rng.uniform(0.9, 1.15);
  }

  for (std::size_t width : {lanes.size(), std::size_t{8}}) {
    std::vector<StaResult> batch(width);
    sta.analyze_batch(std::span(lanes).first(width), std::span(batch));
    for (std::size_t b = 0; b < width; ++b) {
      const StaResult scalar = sta.analyze(lanes[b]);
      EXPECT_EQ(batch[b].clock_period_ns, scalar.clock_period_ns);
      EXPECT_EQ(batch[b].wns, scalar.wns) << "lane " << b;
      EXPECT_EQ(batch[b].tns, scalar.tns) << "lane " << b;
      EXPECT_EQ(batch[b].min_period_ns, scalar.min_period_ns) << "lane " << b;
      for (std::size_t s = 0; s < kNumPipeStages; ++s) {
        EXPECT_EQ(batch[b].stage_wns[s], scalar.stage_wns[s])
            << "lane " << b << " stage " << s;
      }
      ASSERT_EQ(batch[b].endpoint_slack.size(), scalar.endpoint_slack.size());
      for (std::size_t k = 0; k < scalar.endpoint_slack.size(); ++k) {
        EXPECT_EQ(batch[b].endpoint_slack[k], scalar.endpoint_slack[k])
            << "lane " << b << " endpoint " << k;
      }
    }
  }
}

TEST(StaVex, AnalyzeBatchSoaBitIdenticalToAnalyzeBatch) {
  // The SoA entry point is the batched draw engine's seam into the
  // propagation kernel: handing it a transposed copy of the same lanes
  // must reproduce analyze_batch (and therefore scalar analyze) exactly.
  Library lib = make_st65lp_like();
  Design d = make_vex_design(lib, VexConfig::tiny());
  Floorplan fp = Floorplan::for_design(d, FloorplanConfig{});
  PlacementDb db(fp);
  place_design(d, fp, PlacerConfig{}, db);
  StaEngine sta(d, StaOptions{});
  sta.set_clock_period(sta.min_period() * 1.005);

  constexpr std::size_t width = 6;  // runtime-width path
  Rng rng(0x50a50a5ULL);
  const std::size_t n = d.num_instances();
  std::vector<std::vector<double>> lanes(width);
  std::vector<double> soa(n * width);
  for (std::size_t b = 0; b < width; ++b) {
    lanes[b].resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      lanes[b][i] = rng.uniform(0.9, 1.15);
      soa[i * width + b] = lanes[b][i];
    }
  }
  std::vector<StaResult> from_lanes(width), from_soa(width);
  sta.analyze_batch(std::span(lanes), std::span(from_lanes));
  sta.analyze_batch_soa(soa, width, std::span(from_soa));
  for (std::size_t b = 0; b < width; ++b) {
    EXPECT_EQ(from_soa[b].wns, from_lanes[b].wns) << "lane " << b;
    EXPECT_EQ(from_soa[b].tns, from_lanes[b].tns) << "lane " << b;
    EXPECT_EQ(from_soa[b].min_period_ns, from_lanes[b].min_period_ns)
        << "lane " << b;
    for (std::size_t s = 0; s < kNumPipeStages; ++s) {
      EXPECT_EQ(from_soa[b].stage_wns[s], from_lanes[b].stage_wns[s])
          << "lane " << b << " stage " << s;
    }
    ASSERT_EQ(from_soa[b].endpoint_slack.size(),
              from_lanes[b].endpoint_slack.size());
    for (std::size_t k = 0; k < from_soa[b].endpoint_slack.size(); ++k) {
      EXPECT_EQ(from_soa[b].endpoint_slack[k], from_lanes[b].endpoint_slack[k])
          << "lane " << b << " endpoint " << k;
    }
  }
}

TEST(StaVex, AnalyzeLazyMatchesAnalyzeForAnyFactorBrackets) {
  // analyze_lazy (DESIGN.md §21) must reproduce analyze()'s worst slack
  // bit for bit, and every endpoint's violation sign, for ANY brackets
  // that contain the exact factors: degenerate ones (nothing to refine),
  // tight to wide ones (ever more refinement), lopsided random ones, and
  // a snapshot carrying negative base delays.
  Library lib = make_st65lp_like();
  Design d = make_vex_design(lib, VexConfig::tiny());
  Floorplan fp = Floorplan::for_design(d, FloorplanConfig{});
  PlacementDb db(fp);
  place_design(d, fp, PlacerConfig{}, db);
  const Rect& die = fp.die();
  for (InstId i = 0; i < d.num_instances(); ++i) {
    const double frac = (d.instance(i).pos.x - die.lo.x) / die.width();
    d.instance(i).domain =
        static_cast<DomainId>(std::min(2, static_cast<int>(frac * 3)));
  }
  StaEngine sta(d, StaOptions{});
  const double tmin = sta.min_period();
  std::vector<StaEngine::BaseSnapshot> snaps;
  for (int raised : {0, 1, 3}) {
    std::vector<int> corners(3, kVddLow);
    for (int k = 0; k < raised; ++k) {
      corners[static_cast<std::size_t>(k)] = kVddHigh;
    }
    sta.compute_base(corners);
    snaps.push_back(sta.snapshot_bases());
  }
  StaEngine::BaseSnapshot negative = snaps[1];
  for (std::size_t ei = 0; ei < negative.edge_base.size(); ei += 7) {
    negative.edge_base[ei] = -negative.edge_base[ei];
  }
  snaps.push_back(negative);
  const StaEngine::BaseSnapshot held = sta.snapshot_bases();

  const std::size_t n = d.num_instances();
  Rng rng(0x1a2fULL);
  std::vector<double> f(n);
  for (double& x : f) x = rng.uniform(0.92, 1.12);
  std::size_t calls = 0;
  const std::function<double(InstId)> exact = [&](InstId i) {
    ++calls;
    return f[i];
  };
  std::vector<double> bounds(2 * n);
  std::vector<std::uint8_t> violating;
  std::size_t violations = 0;
  for (const double clock_scale : {1.02, 0.97, 0.9}) {
    sta.set_clock_period(tmin * clock_scale);
    for (std::size_t s = 0; s < snaps.size(); ++s) {
      StaEngine ref(sta);
      ref.restore_bases(snaps[s]);
      const StaResult want = ref.analyze(f);
      for (const double width : {0.0, 1e-9, 1e-3, 0.05, -0.05}) {
        SCOPED_TRACE("clock x" + std::to_string(clock_scale) + " snapshot " +
                     std::to_string(s) + " width " + std::to_string(width));
        for (std::size_t i = 0; i < n; ++i) {
          // width < 0: a random lopsided bracket up to |width| each side.
          const double below = width < 0.0 ? -width * rng.uniform() : width;
          const double above = width < 0.0 ? -width * rng.uniform() : width;
          bounds[2 * i] = f[i] * (1.0 - below);
          bounds[2 * i + 1] = f[i] * (1.0 + above);
        }
        calls = 0;
        const double wns = sta.analyze_lazy(snaps[s], bounds, exact, violating);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(wns),
                  std::bit_cast<std::uint64_t>(want.wns));
        ASSERT_EQ(violating.size(), want.endpoint_slack.size());
        for (std::size_t k = 0; k < violating.size(); ++k) {
          EXPECT_EQ(violating[k] != 0, want.endpoint_slack[k] < 0.0)
              << "endpoint " << k;
          violations += violating[k];
        }
        if (width == 0.0) {
          EXPECT_EQ(calls, 0u);
        } else if (width == 0.05) {
          EXPECT_GT(calls, 0u);
        }
      }
    }
  }
  EXPECT_GT(violations, 0u);
  // The engine's own bases are left alone.
  EXPECT_EQ(sta.snapshot_bases().edge_base, held.edge_base);

  StaEngine::BaseSnapshot bad = snaps[0];
  bad.edge_base.pop_back();
  EXPECT_THROW(sta.analyze_lazy(bad, bounds, exact, violating),
               std::invalid_argument);
  bounds.pop_back();
  EXPECT_THROW(sta.analyze_lazy(snaps[0], bounds, exact, violating),
               std::invalid_argument);
}

TEST(StaVex, SnapshotRestoreRoundTrips) {
  Library lib = make_st65lp_like();
  Design d = make_vex_design(lib, VexConfig::tiny());
  Floorplan fp = Floorplan::for_design(d, FloorplanConfig{});
  PlacementDb db(fp);
  place_design(d, fp, PlacerConfig{}, db);
  StaEngine sta(d, StaOptions{});
  sta.set_clock_period(sta.min_period() * 1.01);
  const StaResult before = sta.analyze();
  const StaEngine::BaseSnapshot snap = sta.snapshot_bases();
  // Perturb the engine with a different corner assignment...
  for (InstId i = 0; i < d.num_instances(); ++i) d.instance(i).domain = 1;
  sta.compute_base(std::vector<int>{kVddLow, kVddHigh});
  EXPECT_NE(sta.analyze().wns, before.wns);
  // ...then restore: bit-identical to the snapshot's analysis.
  sta.restore_bases(snap);
  const StaResult after = sta.analyze();
  EXPECT_EQ(after.wns, before.wns);
  EXPECT_EQ(after.min_period_ns, before.min_period_ns);
}

TEST(StaVex, RestoreBasesRejectsMismatchedSnapshot) {
  Library lib = make_st65lp_like();
  Design d = make_vex_design(lib, VexConfig::tiny());
  Floorplan fp = Floorplan::for_design(d, FloorplanConfig{});
  PlacementDb db(fp);
  place_design(d, fp, PlacerConfig{}, db);
  StaEngine sta(d, StaOptions{});
  const StaEngine::BaseSnapshot good = sta.snapshot_bases();
  ASSERT_EQ(good.edge_base.size(), sta.num_edges());
  ASSERT_EQ(good.launch_base.size(), sta.launch_bases().size());
  ASSERT_EQ(good.inst_corner.size(), d.num_instances());
  // Each field in turn one entry short of the graph.
  StaEngine::BaseSnapshot snap = good;
  snap.edge_base.pop_back();
  EXPECT_THROW(sta.restore_bases(snap), std::invalid_argument);
  snap = good;
  snap.launch_base.pop_back();
  EXPECT_THROW(sta.restore_bases(snap), std::invalid_argument);
  snap = good;
  snap.inst_corner.pop_back();
  EXPECT_THROW(sta.restore_bases(snap), std::invalid_argument);
  EXPECT_NO_THROW(sta.restore_bases(good));
}

TEST(StaVex, AnalyzeBatchRejectsBadInput) {
  Library lib = make_st65lp_like();
  Design d = make_vex_design(lib, VexConfig::tiny());
  Floorplan fp = Floorplan::for_design(d, FloorplanConfig{});
  PlacementDb db(fp);
  place_design(d, fp, PlacerConfig{}, db);
  StaEngine sta(d, StaOptions{});

  std::vector<std::vector<double>> lanes(2);
  std::vector<StaResult> wrong_size(3);
  EXPECT_THROW(sta.analyze_batch(std::span(lanes), std::span(wrong_size)),
               std::invalid_argument);
  std::vector<StaResult> results(2);
  lanes[0].assign(3, 1.0);  // shorter than num_instances
  EXPECT_THROW(sta.analyze_batch(std::span(lanes), std::span(results)),
               std::invalid_argument);

  // Both SoA overloads, the cone one over a valid cone so that only the
  // checked input can throw.
  const TimingCone cone =
      sta.build_cone(std::vector<double>(2 * d.num_instances(), 1.0));
  const auto expect_rejects = [&](std::span<const double> soa,
                                  std::span<StaResult> res,
                                  const char* what) {
    for (const bool on_cone : {false, true}) {
      SCOPED_TRACE(std::string(what) + (on_cone ? ", cone" : ", full"));
      try {
        if (on_cone) {
          sta.analyze_batch_soa(soa, 2, res, cone);
        } else {
          sta.analyze_batch_soa(soa, 2, res);
        }
        ADD_FAILURE() << "nothing thrown";
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
            << e.what();
      }
    }
  };
  const std::vector<double> soa(2 * d.num_instances(), 1.0);
  expect_rejects(soa, std::span(wrong_size), "size mismatch");
  expect_rejects(std::span(soa).first(soa.size() - 1), std::span(results),
                 "short factor buffer");
  // The same buffers pass once they fit.
  EXPECT_NO_THROW(sta.analyze_batch_soa(soa, 2, std::span(results)));
  EXPECT_NO_THROW(sta.analyze_batch_soa(soa, 2, std::span(results), cone));
}

TEST(StaVex, MonotoneUnderUniformSlowdown) {
  Library lib = make_st65lp_like();
  Design d = make_vex_design(lib, VexConfig::tiny());
  Floorplan fp = Floorplan::for_design(d, FloorplanConfig{});
  PlacementDb db(fp);
  place_design(d, fp, PlacerConfig{}, db);
  StaEngine sta(d, StaOptions{});
  double prev = sta.min_period();
  for (double f : {1.05, 1.1, 1.2}) {
    std::vector<double> factors(d.num_instances(), f);
    const double t = sta.min_period(factors);
    EXPECT_GT(t, prev);
    prev = t;
  }
}

// ---- timing cones (DESIGN.md §22) ------------------------------------------

/// Every StaResult field of a cone analysis against the full one: all but
/// endpoint_slack bit-identical, live endpoints' slacks bit-identical,
/// dead ones NaN.  Every dead endpoint's full slack must be one the
/// Monte-Carlo tallies never count: >= 0 and above its stage's worst
/// slack + 1e-12.  Returns the number of dead endpoints.
std::size_t expect_cone_result(const StaEngine& sta, const TimingCone& cone,
                               const StaResult& full, const StaResult& got) {
  EXPECT_EQ(got.clock_period_ns, full.clock_period_ns);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.wns),
            std::bit_cast<std::uint64_t>(full.wns));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.tns),
            std::bit_cast<std::uint64_t>(full.tns));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.min_period_ns),
            std::bit_cast<std::uint64_t>(full.min_period_ns));
  for (std::size_t s = 0; s < kNumPipeStages; ++s) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.stage_wns[s]),
              std::bit_cast<std::uint64_t>(full.stage_wns[s]))
        << "stage " << s;
  }
  std::vector<std::uint8_t> live(sta.endpoints().size(), 0);
  for (const std::uint32_t k : cone.endpoints) live[k] = 1;
  std::size_t dead = 0;
  EXPECT_EQ(got.endpoint_slack.size(), full.endpoint_slack.size());
  for (std::size_t k = 0; k < full.endpoint_slack.size(); ++k) {
    const double slack = full.endpoint_slack[k];
    if (live[k] != 0) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got.endpoint_slack[k]),
                std::bit_cast<std::uint64_t>(slack))
          << "endpoint " << k;
      continue;
    }
    ++dead;
    EXPECT_TRUE(std::isnan(got.endpoint_slack[k])) << "endpoint " << k;
    const double swns =
        full.stage_wns[static_cast<std::size_t>(sta.endpoints()[k].stage)];
    EXPECT_GE(slack, 0.0) << "dead endpoint " << k;
    EXPECT_GT(slack, swns + 1e-12) << "dead endpoint " << k;
  }
  return dead;
}

TEST(StaCone, ConeAnalysisMatchesFullAnalysisForFactorsInsideTheBounds) {
  // Factor bounds of several widths around random centres, with a tight
  // and a violating clock, and with some instances unbounded: for factors
  // anywhere inside the bounds (both ends included), the cone analysis
  // must reproduce the full one at widths 1, 3 and 8, through the SoA and
  // the per-lane entry points.
  Library lib = make_st65lp_like();
  Design d = make_vex_design(lib, VexConfig::tiny());
  Floorplan fp = Floorplan::for_design(d, FloorplanConfig{});
  PlacementDb db(fp);
  place_design(d, fp, PlacerConfig{}, db);
  const StaEngine nominal(d, StaOptions{});
  const std::size_t n = d.num_instances();
  Rng rng(0xc0e1ULL);
  std::vector<double> centre(n);
  for (double& c : centre) c = rng.uniform(0.95, 1.1);
  std::size_t dead_total = 0, live_arcs = 0;
  for (const double clock_scale : {1.005, 0.95}) {
    StaEngine sta(nominal);
    sta.set_clock_period(nominal.min_period(centre) * clock_scale);
    for (const double w : {0.0, 0.01, 0.05}) {
      for (const bool unbounded : {false, true}) {
        SCOPED_TRACE("clock x" + std::to_string(clock_scale) + " width " +
                     std::to_string(w) + " unbounded " +
                     std::to_string(unbounded));
        std::vector<double> bounds(2 * n);
        for (std::size_t i = 0; i < n; ++i) {
          bounds[2 * i] = centre[i] * (1.0 - w);
          bounds[2 * i + 1] = centre[i] * (1.0 + w);
          if (unbounded && i % 97 == 0) {
            bounds[2 * i] = -std::numeric_limits<double>::infinity();
            bounds[2 * i + 1] = std::numeric_limits<double>::infinity();
          }
        }
        const TimingCone cone = sta.build_cone(bounds);
        live_arcs += cone.arcs.size();
        EXPECT_LE(cone.arcs.size(), sta.arcs().size());
        for (const std::size_t width : {1u, 3u, 8u}) {
          std::vector<std::vector<double>> lanes(width, std::vector<double>(n));
          std::vector<double> soa(n * width);
          for (std::size_t b = 0; b < width; ++b) {
            for (std::size_t i = 0; i < n; ++i) {
              const double lo = std::isfinite(bounds[2 * i]) ? bounds[2 * i]
                                                             : 0.7 * centre[i];
              const double hi = std::isfinite(bounds[2 * i + 1])
                                    ? bounds[2 * i + 1]
                                    : 1.3 * centre[i];
              // Lane 0 sits on the lower ends, lane 1 on the upper ends.
              const double f = b == 0 ? lo : b == 1 ? hi : rng.uniform(lo, hi);
              lanes[b][i] = f;
              soa[i * width + b] = f;
            }
          }
          std::vector<StaResult> full(width), got(width), got_aos(width);
          sta.analyze_batch_soa(soa, width, std::span(full));
          sta.analyze_batch_soa(soa, width, std::span(got), cone);
          sta.analyze_batch(std::span(lanes), std::span(got_aos), cone);
          for (std::size_t b = 0; b < width; ++b) {
            dead_total += expect_cone_result(sta, cone, full[b], got[b]);
            expect_cone_result(sta, cone, full[b], got_aos[b]);
          }
        }
      }
    }
  }
  // The bounds prune: otherwise the checks above prove nothing.
  EXPECT_GT(dead_total, 0u);
}

TEST(StaCone, EndpointWithinTheTallyMarginOfItsStageStaysLive) {
  // Two identical INV -> DFF paths in one stage.  With degenerate bounds
  // (the factors themselves), the second endpoint's slack sits `gap` above
  // the first's.  Within the tally's 1e-12 margin it still counts as
  // setting the stage WNS, so the cone must keep it; well outside it, the
  // cone drops it.
  Library lib = make_st65lp_like();
  Design d("twins", lib);
  NetlistBuilder b(d);
  b.clock_input("clk");
  b.set_stage(PipeStage::Execute);
  const NetId x = b.inv(b.input("a"));
  const NetId y = b.inv(b.input("b"));
  const NetId qx = b.dff(x);
  const NetId qy = b.dff(y);
  b.set_stage(PipeStage::Decode);  // the outputs time another stage
  b.output(b.inv(qx));
  b.output(b.inv(qy));
  d.check();
  for (InstId i = 0; i < d.num_instances(); ++i) {
    d.instance(i).pos = {10.0, 10.0};
    d.instance(i).placed = true;
  }
  StaEngine sta(d, StaOptions{});
  // The inverters are instances 0 and 1, the flops' D pins endpoints 0, 1.
  ASSERT_EQ(sta.endpoints().size(), 4u);
  ASSERT_EQ(sta.endpoints()[0].flop, 2u);
  ASSERT_EQ(sta.endpoints()[1].flop, 3u);
  for (const double rel : {1e-13, 1e-6}) {
    std::vector<double> f(d.num_instances(), 1.0);
    f[1] = 1.0 - rel;  // endpoint 1 arrives a hair earlier
    std::vector<double> bounds(2 * f.size());
    for (std::size_t i = 0; i < f.size(); ++i) {
      bounds[2 * i] = bounds[2 * i + 1] = f[i];
    }
    const StaResult full = sta.analyze(f);
    const double gap = full.endpoint_slack[1] - full.endpoint_slack[0];
    const double swns = full.stage_worst(PipeStage::Execute);
    ASSERT_EQ(swns, full.endpoint_slack[0]);
    const TimingCone cone = sta.build_cone(bounds);
    const bool live = std::find(cone.endpoints.begin(), cone.endpoints.end(),
                                1u) != cone.endpoints.end();
    SCOPED_TRACE("gap " + std::to_string(gap));
    ASSERT_GT(gap, 0.0);
    EXPECT_EQ(live, full.endpoint_slack[1] <= swns + 1e-12);
    EXPECT_EQ(live, rel < 1e-9);
  }
}

TEST(StaCone, UnboundedGateBehindATieCellKeepsItsEndpointLive) {
  // Gate G reads a tie cell on its first pin, so the tie's arc, from a
  // node nothing reaches (-inf), first-writes G's output; G's factor is
  // unbounded (+inf upper delay bound).  G feeds M's second pin, where it
  // is not M's first writer.  The bound at G's output must be G's real
  // one (+inf), not -inf + inf = NaN, which M's max would drop: then M's
  // endpoint, with only its fast first pin left, would be proven dead
  // although a slow G makes it fail.
  Library lib = make_st65lp_like();
  Design d("tied", lib);
  NetlistBuilder b(d);
  b.clock_input("clk");
  b.set_stage(PipeStage::Execute);
  NetId slow = b.input("a");
  for (int k = 0; k < 4; ++k) slow = b.inv(slow);
  const NetId g = b.nand2(b.const0(), slow);
  const NetId m = b.nand2(b.input("f"), g);
  b.output(b.dff(m));
  // A longer path in the same stage sets the stage's least upper slack
  // bound, so M's endpoint is dead unless its bound sees G.
  NetId ref = b.input("r");
  for (int k = 0; k < 12; ++k) ref = b.inv(ref);
  b.output(b.dff(ref));
  d.check();
  for (InstId i = 0; i < d.num_instances(); ++i) {
    d.instance(i).pos = {10.0, 10.0};
    d.instance(i).placed = true;
  }
  const InstId gate = d.net(g).driver.inst;
  const InstId flop = d.net(m).sinks.front().inst;
  const StaEngine sta(d, StaOptions{});
  std::size_t ep = sta.endpoints().size();
  for (std::size_t k = 0; k < sta.endpoints().size(); ++k) {
    if (sta.endpoints()[k].flop == flop) ep = k;
  }
  ASSERT_LT(ep, sta.endpoints().size());

  const std::size_t n = d.num_instances();
  std::vector<double> bounds(2 * n, 1.0);
  bounds[2 * gate] = -std::numeric_limits<double>::infinity();
  bounds[2 * gate + 1] = std::numeric_limits<double>::infinity();
  const TimingCone cone = sta.build_cone(bounds);
  EXPECT_NE(std::find(cone.endpoints.begin(), cone.endpoints.end(), ep),
            cone.endpoints.end());
  // Lane 0 nominal, lane 1 a G slow enough to fail M's endpoint.
  std::vector<double> soa(2 * n, 1.0);
  soa[2 * gate + 1] = 1e4;
  std::vector<StaResult> full(2), got(2);
  sta.analyze_batch_soa(soa, 2, std::span(full));
  sta.analyze_batch_soa(soa, 2, std::span(got), cone);
  ASSERT_LT(full[1].endpoint_slack[ep], 0.0);
  for (std::size_t lane = 0; lane < 2; ++lane) {
    expect_cone_result(sta, cone, full[lane], got[lane]);
  }
}

TEST(StaCone, ConeRefusedByAnotherGraphOrClock) {
  // A cone indexes one graph and is proven for one clock: an engine copy
  // accepts it; an engine at another clock, or one whose graph was built
  // separately (even from the same design), refuses it.
  Library lib = make_st65lp_like();
  Design d = make_vex_design(lib, VexConfig::tiny());
  Floorplan fp = Floorplan::for_design(d, FloorplanConfig{});
  PlacementDb db(fp);
  place_design(d, fp, PlacerConfig{}, db);
  const StaEngine sta(d, StaOptions{});
  const std::vector<double> bounds(2 * d.num_instances(), 1.0);
  const TimingCone cone = sta.build_cone(bounds);
  const std::vector<double> soa(d.num_instances(), 1.0);
  std::vector<StaResult> res(1);
  const StaEngine copy(sta);
  EXPECT_NO_THROW(copy.analyze_batch_soa(soa, 1, std::span(res), cone));
  StaEngine faster(sta);
  faster.set_clock_period(sta.options().clock_period_ns * 0.9);
  EXPECT_THROW(faster.analyze_batch_soa(soa, 1, std::span(res), cone),
               std::invalid_argument);
  const StaEngine rebuilt(d, StaOptions{});
  EXPECT_THROW(rebuilt.analyze_batch_soa(soa, 1, std::span(res), cone),
               std::invalid_argument);
  const std::vector<std::vector<double>> lanes(1);
  EXPECT_THROW(rebuilt.analyze_batch(std::span(lanes), std::span(res), cone),
               std::invalid_argument);
  EXPECT_THROW(sta.build_cone(std::vector<double>(3, 1.0)),
               std::invalid_argument);
}

// ---- the folded propagation graph (DESIGN.md §17) -------------------------

/// A hand-built netlist with every shape the fold must get right: primary
/// inputs wired straight into gates, a multi-fanout net whose sinks
/// (different cells, placed apart) get different wire delays, an input
/// pin on an undriven net, a net feeding both a primary output and a flop
/// D, and a tie cell feeding a gate that the cone tests leave unbounded.
class FoldFixture : public ::testing::Test {
 protected:
  FoldFixture() : design_("fold", lib_) {
    NetlistBuilder b(design_);
    b.clock_input("clk");
    b.set_stage(PipeStage::Execute);
    const NetId a = b.input("a");
    const NetId x = b.nand2(a, b.input("c"));  // PIs straight into a gate
    const NetId y1 = b.inv(x);                 // x fans out to an INV,
    const NetId y2 = b.xor2(x, y1);            // an XOR2
    b.dff(x);                                  // and a flop D
    const NetId z = b.nand2(b.wire("undriven"), y2);
    b.dff(z);
    tied_ = b.nand2(b.const0(), y1);
    const NetId m = b.nor2(tied_, z);
    b.output(m);  // a primary output next to a flop D on one net
    b.dff(m);
    b.set_stage(PipeStage::Decode);
    NetId r = b.input("r");
    for (int k = 0; k < 5; ++k) r = b.inv(r);
    b.output(b.dff(r));
    // No design_.check(): it rejects the undriven net on purpose.
    for (InstId i = 0; i < design_.num_instances(); ++i) {
      design_.instance(i).pos = {10.0 + 37.0 * (i % 5), 12.0 + 23.0 * (i % 7)};
      design_.instance(i).placed = true;
    }
  }

  Library lib_ = make_st65lp_like();
  Design design_;
  NetId tied_ = kInvalidNet;
};

TEST_F(FoldFixture, ArcsFoldEveryNetEdgeButThoseIntoEndpoints) {
  const StaEngine sta(design_, StaOptions{});
  struct PinEdge {
    std::uint32_t from, to;
    InstId inst;
    double delay;
  };
  std::vector<PinEdge> edges;
  sta.for_each_graph_edge(
      [&](std::uint32_t from, std::uint32_t to, InstId inst, double d) {
        edges.push_back({from, to, inst, d});
      });
  std::vector<std::uint8_t> endpoint(sta.num_nodes(), 0);
  for (const Endpoint& ep : sta.endpoints()) endpoint[ep.node] = 1;
  std::size_t cell = 0, net = 0, into_endpoints = 0, folded = 0;
  for (const PinEdge& e : edges) {
    cell += e.inst != kInvalidInst;
    net += e.inst == kInvalidInst;
    into_endpoints += e.inst == kInvalidInst && endpoint[e.to] != 0;
  }
  const auto arcs = sta.arcs();
  ASSERT_EQ(arcs.size(), cell + into_endpoints);
  EXPECT_LT(arcs.size(), edges.size());
  std::vector<double> wires;
  std::size_t prev = 0, unfolded = 0;
  for (std::size_t ai = 0; ai < arcs.size(); ++ai) {
    const simd::RelaxArc& a = arcs[ai];
    ASSERT_LT(a.delay, edges.size());
    if (ai > 0) {
      EXPECT_GT(a.delay, prev);  // the pin-level order
    }
    prev = a.delay;
    const PinEdge& e = edges[a.delay];
    EXPECT_EQ(a.to, e.to);
    EXPECT_EQ(a.inst, e.inst);
    if (a.inst == kInvalidInst) {
      EXPECT_EQ(a.from, e.from);
      EXPECT_EQ(a.wire, simd::kNoRelaxWire);
      EXPECT_NE(endpoint[a.to], 0);
      continue;
    }
    if (a.wire == simd::kNoRelaxWire) {
      // Only the input pin nothing drives keeps its own source.
      EXPECT_EQ(a.from, e.from);
      EXPECT_EQ(std::count_if(edges.begin(), edges.end(),
                              [&](const PinEdge& w) { return w.to == e.from; }),
                0);
      ++unfolded;
      continue;
    }
    ++folded;
    const PinEdge& w = edges[a.wire];
    EXPECT_EQ(w.inst, kInvalidInst);
    EXPECT_EQ(w.to, e.from);
    EXPECT_EQ(a.from, w.from);
    wires.push_back(w.delay);
  }
  EXPECT_EQ(unfolded, 1u);
  EXPECT_EQ(folded + unfolded, cell);
  EXPECT_GT(net, into_endpoints);
  // The multi-fanout net's sinks fold different wires.
  std::sort(wires.begin(), wires.end());
  EXPECT_GT(std::unique(wires.begin(), wires.end()) - wires.begin(), 2);
}

/// analyze_batch_soa over the whole graph and over a cone, and
/// analyze_lazy, against analyze() bit for bit: at three clocks, on the
/// engine's bases and on a snapshot with every third edge's base negated
/// (net edges included, so a wire baked in at build time would show).
TEST_F(FoldFixture, FoldedSweepsMatchAnalyze) {
  StaEngine sta(design_, StaOptions{});
  const std::size_t n = design_.num_instances();
  const InstId gate = design_.net(tied_).driver.inst;
  Rng rng(0xf01dULL);
  std::vector<double> centre(n);
  for (double& c : centre) c = rng.uniform(0.9, 1.1);
  const double tmin = sta.min_period(centre);
  StaEngine::BaseSnapshot negative = sta.snapshot_bases();
  for (std::size_t ei = 0; ei < negative.edge_base.size(); ei += 3) {
    negative.edge_base[ei] = -negative.edge_base[ei];
  }
  const std::vector<StaEngine::BaseSnapshot> snaps = {sta.snapshot_bases(),
                                                      negative};
  std::size_t violations = 0, dead = 0;
  for (const double clock_scale : {1.05, 0.98, 0.8}) {
    for (std::size_t s = 0; s < snaps.size(); ++s) {
      SCOPED_TRACE("clock x" + std::to_string(clock_scale) + " snapshot " +
                   std::to_string(s));
      StaEngine eng(sta);
      eng.set_clock_period(tmin * clock_scale);
      eng.restore_bases(snaps[s]);
      // Lanes: lower ends, upper ends, random points inside; the tied
      // gate is unbounded in the cone and slow in the last lane.
      constexpr std::size_t kW = 5;
      std::vector<double> bounds(2 * n);
      for (std::size_t i = 0; i < n; ++i) {
        bounds[2 * i] = centre[i] * 0.97;
        bounds[2 * i + 1] = centre[i] * 1.03;
      }
      std::vector<double> soa(n * kW);
      std::vector<std::vector<double>> lanes(kW, std::vector<double>(n));
      for (std::size_t b = 0; b < kW; ++b) {
        for (std::size_t i = 0; i < n; ++i) {
          const double f = b == 0   ? bounds[2 * i]
                           : b == 1 ? bounds[2 * i + 1]
                                    : rng.uniform(bounds[2 * i],
                                                  bounds[2 * i + 1]);
          lanes[b][i] = f;
          soa[i * kW + b] = f;
        }
      }
      soa[gate * kW + kW - 1] = lanes[kW - 1][gate] = 40.0;
      std::vector<double> cone_bounds = bounds;
      cone_bounds[2 * gate] = -std::numeric_limits<double>::infinity();
      cone_bounds[2 * gate + 1] = std::numeric_limits<double>::infinity();
      const TimingCone cone = eng.build_cone(cone_bounds);
      std::vector<StaResult> full(kW), got(kW);
      eng.analyze_batch_soa(soa, kW, std::span(full));
      eng.analyze_batch_soa(soa, kW, std::span(got), cone);
      for (std::size_t b = 0; b < kW; ++b) {
        const StaResult want = eng.analyze(lanes[b]);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(full[b].wns),
                  std::bit_cast<std::uint64_t>(want.wns));
        EXPECT_EQ(std::bit_cast<std::uint64_t>(full[b].tns),
                  std::bit_cast<std::uint64_t>(want.tns));
        EXPECT_EQ(std::bit_cast<std::uint64_t>(full[b].min_period_ns),
                  std::bit_cast<std::uint64_t>(want.min_period_ns));
        ASSERT_EQ(full[b].endpoint_slack.size(), want.endpoint_slack.size());
        for (std::size_t k = 0; k < want.endpoint_slack.size(); ++k) {
          EXPECT_EQ(std::bit_cast<std::uint64_t>(full[b].endpoint_slack[k]),
                    std::bit_cast<std::uint64_t>(want.endpoint_slack[k]))
              << "lane " << b << " endpoint " << k;
        }
        dead += expect_cone_result(eng, cone, want, got[b]);
      }
      // The lazy analysis of the same snapshot, from the lane-2 factors,
      // on an engine whose own bases are the unforged ones.
      const std::vector<double>& f = lanes[2];
      for (std::size_t i = 0; i < n; ++i) {
        bounds[2 * i] = std::min(bounds[2 * i], f[i]);
        bounds[2 * i + 1] = std::max(bounds[2 * i + 1], f[i]);
      }
      const StaResult want = eng.analyze(f);
      StaEngine lazy(sta);
      lazy.set_clock_period(tmin * clock_scale);
      std::vector<std::uint8_t> violating;
      const double wns = lazy.analyze_lazy(
          snaps[s], bounds, [&](InstId i) { return f[i]; }, violating);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(wns),
                std::bit_cast<std::uint64_t>(want.wns));
      ASSERT_EQ(violating.size(), want.endpoint_slack.size());
      for (std::size_t k = 0; k < violating.size(); ++k) {
        EXPECT_EQ(violating[k] != 0, want.endpoint_slack[k] < 0.0)
            << "endpoint " << k;
        violations += violating[k];
      }
    }
  }
  EXPECT_GT(violations, 0u);
  EXPECT_GT(dead, 0u);
}

}  // namespace
}  // namespace vipvt
