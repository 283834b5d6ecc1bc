// Razor sensor planning + post-silicon compensation tests: sensor
// coverage, cell-swap bookkeeping, scenario detection on virtual silicon,
// island raising, escalation, and the chip-wide baseline sanity.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>

#include "netlist/vex.hpp"
#include "placement/placer.hpp"
#include "timing/recovery.hpp"
#include "variation/mc_ssta.hpp"
#include "vi/compensate.hpp"
#include "vi/islands.hpp"
#include "vi/razor.hpp"
#include "vi/scenario.hpp"
#include "yield/wafer.hpp"

namespace vipvt {
namespace {

class CompensateFixture : public ::testing::Test {
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
    auto scen = characterize_scenarios(*design_, *sta_, *model_, sc);
    std::vector<DieLocation> locs;
    std::optional<DieLocation> fb;
    for (std::size_t k = scen.by_severity.size(); k-- > 0;) {
      if (scen.by_severity[k].has_value()) fb = scen.by_severity[k]->location;
    }
    for (const auto& sp : scen.by_severity) {
      if (sp.has_value()) {
        locs.push_back(sp->location);
        fb = sp->location;
      } else if (fb.has_value()) {
        locs.push_back(*fb);
      }
    }
    worst_loc_ = locs.empty() ? DieLocation::point('A') : locs.back();

    IslandConfig icfg;
    icfg.dir = SliceDir::Vertical;
    icfg.mc_samples = 80;
    IslandGenerator gen(*design_, *fp_, *sta_, *model_, icfg);
    plan_ = new IslandPlan(gen.generate(locs));

    MonteCarloSsta mc(*design_, *sta_, *model_);
    McConfig mcc;
    mcc.samples = 150;
    worst_mc_ = new McResult(mc.run(worst_loc_, mcc));
    razor_ = new RazorPlan(plan_razor_sensors(*sta_, *worst_mc_));
    apply_razor_plan(*design_, *sta_, *razor_);
    // Cell swap preserves graph topology: refresh base delays.
    sta_->compute_base_all_low();
  }

  static void TearDownTestSuite() {
    delete razor_;
    delete worst_mc_;
    delete plan_;
    delete model_;
    delete field_;
    delete sta_;
    delete db_;
    delete fp_;
    delete design_;
    delete lib_;
  }

  static Library* lib_;
  static Design* design_;
  static Floorplan* fp_;
  static PlacementDb* db_;
  static StaEngine* sta_;
  static ExposureField* field_;
  static VariationModel* model_;
  static IslandPlan* plan_;
  static McResult* worst_mc_;
  static RazorPlan* razor_;
  static DieLocation worst_loc_;
};

Library* CompensateFixture::lib_ = nullptr;
Design* CompensateFixture::design_ = nullptr;
Floorplan* CompensateFixture::fp_ = nullptr;
PlacementDb* CompensateFixture::db_ = nullptr;
StaEngine* CompensateFixture::sta_ = nullptr;
ExposureField* CompensateFixture::field_ = nullptr;
VariationModel* CompensateFixture::model_ = nullptr;
IslandPlan* CompensateFixture::plan_ = nullptr;
McResult* CompensateFixture::worst_mc_ = nullptr;
RazorPlan* CompensateFixture::razor_ = nullptr;
DieLocation CompensateFixture::worst_loc_;

TEST_F(CompensateFixture, SensorsAreSparse) {
  // The headline saving of §4.4: only endpoints that can become critical
  // get a Razor flop — a small fraction of all flops.
  const std::size_t flops = design_->num_flops();
  EXPECT_GT(razor_->total(), 0u);
  EXPECT_LT(razor_->total(), flops / 2) << "sensor plan not selective";
  // EX has sensors (the paper's 12-path example).
  EXPECT_GT(razor_->per_stage[static_cast<std::size_t>(PipeStage::Execute)],
            0u);
}

TEST_F(CompensateFixture, RazorCellsApplied) {
  std::size_t razor_cells = 0;
  for (InstId i = 0; i < design_->num_instances(); ++i) {
    if (design_->cell_of(i).is_razor()) ++razor_cells;
  }
  EXPECT_EQ(razor_cells, razor_->total());
}

TEST_F(CompensateFixture, WorstChipDetectedAndCompensated) {
  CompensationController ctrl(*design_, *sta_, *model_, *plan_, *razor_);
  Rng rng(777);
  int compensated = 0, violating = 0;
  const int kChips = 12;
  for (int c = 0; c < kChips; ++c) {
    const VirtualChip chip =
        fabricate_chip(*design_, *model_, worst_loc_, rng);
    const CompensationOutcome out = ctrl.compensate(chip);
    if (out.wns_before < 0.0) {
      // Ground-truth violation: sensors must have seen it.
      ++violating;
      EXPECT_GT(out.detected_severity, 0) << "chip " << c;
    }
    if (out.timing_met) ++compensated;
    EXPECT_FALSE(out.missed_violation) << "chip " << c;
  }
  // At the worst location some chips genuinely violate, every violation
  // is detected, and all chips end up timing-clean after compensation.
  EXPECT_GT(violating, 0);
  EXPECT_EQ(compensated, kChips);
}

TEST_F(CompensateFixture, GoodChipNeedsNoIslands) {
  CompensationController ctrl(*design_, *sta_, *model_, *plan_, *razor_);
  Rng rng(31);
  DieLocation best = DieLocation::point('D');
  int zero_island_chips = 0;
  for (int c = 0; c < 8; ++c) {
    const VirtualChip chip = fabricate_chip(*design_, *model_, best, rng);
    const CompensationOutcome out = ctrl.compensate(chip);
    if (out.islands_raised == 0) ++zero_island_chips;
    EXPECT_TRUE(out.timing_met);
  }
  EXPECT_GE(zero_island_chips, 6);
}

TEST_F(CompensateFixture, SeverityMonotoneInLocation) {
  CompensationController ctrl(*design_, *sta_, *model_, *plan_, *razor_);
  Rng rng(99);
  double avg_a = 0.0, avg_d = 0.0;
  for (int c = 0; c < 6; ++c) {
    avg_a += ctrl.compensate(
                   fabricate_chip(*design_, *model_, worst_loc_, rng))
                 .islands_raised;
    avg_d += ctrl.compensate(fabricate_chip(*design_, *model_,
                                            DieLocation::point('D'), rng))
                 .islands_raised;
  }
  EXPECT_GT(avg_a, avg_d);
}

TEST_F(CompensateFixture, EscalationIsRare) {
  CompensationController ctrl(*design_, *sta_, *model_, *plan_, *razor_);
  Rng rng(5150);
  int escalated = 0;
  for (int c = 0; c < 10; ++c) {
    const VirtualChip chip =
        fabricate_chip(*design_, *model_, worst_loc_, rng);
    escalated += ctrl.compensate(chip).escalated;
  }
  // Islands are sized against the 3-sigma scenario; individual chips in
  // the far tail may need one extra island, but not routinely.
  EXPECT_LE(escalated, 6);
}

TEST_F(CompensateFixture, CompensateMatchesSequentialReferenceWalk) {
  // compensate() analyzes each level lazily from its cached
  // compute_base snapshot (DESIGN.md §21); both are pure execution-layout
  // choices.  Reference: the one-level-at-a-time walk with full factor
  // fills, recomputed from scratch on an engine copy.
  CompensationController ctrl(*design_, *sta_, *model_, *plan_, *razor_);
  Rng rng(40490);
  for (int c = 0; c < 8; ++c) {
    const VirtualChip chip =
        fabricate_chip(*design_, *model_, worst_loc_, rng);
    const CompensationOutcome out = ctrl.compensate(chip);

    StaEngine eng(*sta_);
    const auto factors_now = [&] {
      std::vector<double> f(chip.lgate_nm.size());
      for (InstId i = 0; i < f.size(); ++i) {
        f[i] = model_->delay_factor(chip.lgate_nm[i], eng.inst_corner(i),
                                    design_->cell_of(i).vth);
      }
      return f;
    };
    eng.compute_base(plan_->corners_for_severity(0));
    const StaResult truth0 = eng.analyze(factors_now());
    const auto flags = sensor_flags(eng, *razor_, truth0);
    int detected = 0;
    for (PipeStage s :
         {PipeStage::Decode, PipeStage::Execute, PipeStage::WriteBack}) {
      detected += flags[static_cast<std::size_t>(s)];
    }
    int k = detected;
    StaResult truth{};
    for (;; ++k) {
      eng.compute_base(plan_->corners_for_severity(k));
      truth = eng.analyze(factors_now());
      if (truth.wns >= 0.0 || k >= plan_->num_islands()) break;
    }

    EXPECT_EQ(out.detected_severity, detected) << "chip " << c;
    EXPECT_EQ(out.wns_before, truth0.wns) << "chip " << c;
    EXPECT_EQ(out.islands_raised, k) << "chip " << c;
    EXPECT_EQ(out.wns_after, truth.wns) << "chip " << c;  // bit-identical
    EXPECT_EQ(out.timing_met, truth.wns >= 0.0) << "chip " << c;
    EXPECT_EQ(out.escalated, k > detected) << "chip " << c;
  }
}

TEST_F(CompensateFixture, SlotMapFabricationMatchesLocationFormBitForBit) {
  // The slot-map overload must draw exactly what the historical per-gate
  // sample_lgate loop draws (DESIGN.md §20): same Lgates, and the RNG
  // left in the same state — the polar method's cached deviate included.
  for (const double corr : {0.0, 0.3}) {
    VariationConfig vc = model_->config();
    vc.correlated_fraction = corr;
    const VariationModel model(lib_->char_params(), *field_, vc);
    const std::vector<double> map =
        model.systematic_lgates(*design_, worst_loc_);
    Rng ref(8086), loc_rng(8086), map_rng(8086);
    for (int c = 0; c < 3; ++c) {
      const CorrelatedField field = model.draw_field(ref);
      const CorrelatedField* fp = field.active() ? &field : nullptr;
      std::vector<double> want(design_->num_instances());
      for (InstId i = 0; i < want.size(); ++i) {
        want[i] =
            model.sample_lgate(design_->instance(i).pos, worst_loc_, ref, fp);
      }
      const VirtualChip by_loc =
          fabricate_chip(*design_, model, worst_loc_, loc_rng);
      const VirtualChip by_map =
          fabricate_chip(*design_, model, worst_loc_, map, map_rng);
      ASSERT_EQ(by_loc.lgate_nm, want) << "corr " << corr << " chip " << c;
      ASSERT_EQ(by_map.lgate_nm, want) << "corr " << corr << " chip " << c;
    }
    const double next_normal = ref.normal();
    EXPECT_EQ(loc_rng.normal(), next_normal) << "corr " << corr;
    EXPECT_EQ(map_rng.normal(), next_normal) << "corr " << corr;
    for (int k = 0; k < 4; ++k) {
      const std::uint64_t next = ref.next();
      EXPECT_EQ(loc_rng.next(), next) << "corr " << corr;
      EXPECT_EQ(map_rng.next(), next) << "corr " << corr;
    }
    const std::vector<double> short_map(map.begin(), map.end() - 1);
    EXPECT_THROW(fabricate_chip(*design_, model, worst_loc_, short_map, ref),
                 std::invalid_argument);
  }
}

TEST_F(CompensateFixture, EscalationToMaxLevelMatchesFullFactorWalk) {
  // compensate() brackets delay factors and evaluates exactly only the
  // gates its analyses need (DESIGN.md §21).  Reference: for every
  // level, set_level(k), a full chip_factors() fill and analyze().
  // Chips at the worst location under 1.5x sigma, at three clocks: one
  // where chips fail even at max_k, two where many chips escalate to
  // max_k or close at their detected level.
  VariationConfig vc = model_->config();
  vc.three_sigma_random_frac *= 1.5;
  const VariationModel model(lib_->char_params(), *field_, vc);
  const int max_k = plan_->num_islands();
  int to_max = 0, detected_closes = 0, fails_at_max = 0;
  for (const double clock_scale : {0.96, 1.03, 1.04}) {
    StaEngine eng(*sta_);
    eng.set_clock_period(sta_->options().clock_period_ns * clock_scale);
    StaEngine ref_eng(eng);
    CompensationController ctrl(*design_, eng, model, *plan_, *razor_);
    CompensationController ref(*design_, ref_eng, model, *plan_, *razor_);
    Rng rng(65536);
    for (int c = 0; c < 24; ++c) {
      SCOPED_TRACE("clock x" + std::to_string(clock_scale) + " chip " +
                   std::to_string(c));
      const VirtualChip chip =
          fabricate_chip(*design_, model, worst_loc_, rng);
      const CompensationOutcome out = ctrl.compensate(chip);

      std::vector<StaResult> level(static_cast<std::size_t>(max_k) + 1);
      for (int k = 0; k <= max_k; ++k) {
        ref.set_level(k);
        level[static_cast<std::size_t>(k)] =
            ref_eng.analyze(ref.chip_factors(chip));
      }
      const auto flags = sensor_flags(ref_eng, *razor_, level[0]);
      int detected = 0;
      for (PipeStage s :
           {PipeStage::Decode, PipeStage::Execute, PipeStage::WriteBack}) {
        detected += flags[static_cast<std::size_t>(s)];
      }
      int k = std::min(detected, max_k);
      while (level[static_cast<std::size_t>(k)].wns < 0.0 && k < max_k) ++k;
      const StaResult& truth = level[static_cast<std::size_t>(k)];

      EXPECT_EQ(out.detected_severity, detected);
      EXPECT_EQ(out.wns_before, level[0].wns);
      EXPECT_EQ(out.islands_raised, k);
      EXPECT_EQ(out.wns_after, truth.wns);  // bit-identical
      EXPECT_EQ(out.timing_met, truth.wns >= 0.0);
      EXPECT_EQ(out.escalated, k > detected);
      // The engine is left at the final level's bases, as before.
      ref.set_level(k);
      EXPECT_EQ(eng.analyze(ctrl.chip_factors(chip)).wns,
                ref_eng.analyze(ref.chip_factors(chip)).wns);
      to_max += out.escalated && out.islands_raised == max_k;
      detected_closes += detected > 0 && !out.escalated && out.timing_met;
      fails_at_max += !out.timing_met;
    }
  }
  EXPECT_GE(to_max, 3) << "too few chips escalated to max_k";
  EXPECT_GE(detected_closes, 3)
      << "too few chips closed at their detected level";
  EXPECT_GE(fails_at_max, 3) << "too few chips failed even at max_k";
}

TEST_F(CompensateFixture, StressChipsMatchFullFactorWalkAndChipWide) {
  // compensate() caches each exact factor per (gate, corner) for the
  // die, sharing it across the detected level, the escalation levels and
  // analyze_chip_wide() (DESIGN.md §21).  Reference: a separate
  // controller walking every supply state with a full chip_factors()
  // fill.  Stress chips: 1.5x sigma at 0.85x clock, where every chip
  // takes the chip-wide fallback after its raised level, plus clocks
  // where chips escalate.
  VariationConfig vc = model_->config();
  vc.three_sigma_random_frac *= 1.5;
  const VariationModel model(lib_->char_params(), *field_, vc);
  const int max_k = plan_->num_islands();
  int escalated = 0, failed = 0;
  for (const double clock_scale : {0.85, 0.96, 1.03, 1.04}) {
    StaEngine eng(*sta_);
    eng.set_clock_period(sta_->options().clock_period_ns * clock_scale);
    StaEngine ref_eng(eng);
    CompensationController ctrl(*design_, eng, model, *plan_, *razor_);
    CompensationController ref(*design_, ref_eng, model, *plan_, *razor_);
    EXPECT_THROW(ctrl.analyze_chip_wide(), std::logic_error);
    Rng rng(65536);
    VirtualChip prev;
    for (int c = 0; c < 24; ++c) {
      SCOPED_TRACE("clock x" + std::to_string(clock_scale) + " chip " +
                   std::to_string(c));
      const VirtualChip chip =
          fabricate_chip(*design_, model, worst_loc_, rng);
      const CompensationOutcome out = ctrl.compensate(chip);
      std::vector<StaResult> level(static_cast<std::size_t>(max_k) + 1);
      for (int k = 0; k <= max_k; ++k) {
        ref.set_level(k);
        level[static_cast<std::size_t>(k)] =
            ref_eng.analyze(ref.chip_factors(chip));
      }
      EXPECT_EQ(out.wns_before, level[0].wns);
      EXPECT_EQ(out.wns_after,
                level[static_cast<std::size_t>(out.islands_raised)].wns);
      for (int k = out.detected_severity; k < out.islands_raised; ++k) {
        EXPECT_LT(level[static_cast<std::size_t>(k)].wns, 0.0);
      }
      // The fallback: bit-identical to set_chip_wide + a full fill.
      ref.set_chip_wide();
      const StaResult wide_ref = ref_eng.analyze(ref.chip_factors(chip));
      const StaResult wide = ctrl.analyze_chip_wide();
      EXPECT_EQ(wide.wns, wide_ref.wns);
      EXPECT_EQ(wide.endpoint_slack, wide_ref.endpoint_slack);
      // chip_factors() never reads the controller's per-die cache: on a
      // different chip after set_chip_wide() it is the exact quotient.
      if (!prev.lgate_nm.empty()) {
        const std::vector<double> f = ctrl.chip_factors(prev);
        for (InstId i = 0; i < f.size(); ++i) {
          ASSERT_EQ(f[i], model.delay_factor(prev.lgate_nm[i], kVddHigh,
                                             design_->cell_of(i).vth))
              << "inst " << i;
        }
      }
      prev = chip;
      escalated += out.escalated;
      failed += !out.timing_met;
    }
  }
  EXPECT_GE(escalated, 3) << "too few stress chips escalated";
  EXPECT_GE(failed, 3) << "too few stress chips reached the fallback";
}

TEST_F(CompensateFixture, SetLevelBitIdenticalToComputeBase) {
  CompensationController ctrl(*design_, *sta_, *model_, *plan_, *razor_);
  StaEngine eng(*sta_);
  for (int pass = 0; pass < 2; ++pass) {  // second pass hits the cache
    for (int k = plan_->num_islands(); k >= 0; --k) {
      ctrl.set_level(k);
      eng.compute_base(plan_->corners_for_severity(k));
      const StaResult a = sta_->analyze();
      const StaResult b = eng.analyze();
      EXPECT_EQ(a.wns, b.wns) << "level " << k << " pass " << pass;
      EXPECT_EQ(a.min_period_ns, b.min_period_ns)
          << "level " << k << " pass " << pass;
      for (InstId i = 0; i < design_->num_instances(); ++i) {
        ASSERT_EQ(sta_->inst_corner(i), eng.inst_corner(i))
            << "level " << k << " inst " << i;
      }
    }
  }
  ctrl.set_level(0);
  sta_->compute_base_all_low();  // leave the shared engine as found
  EXPECT_THROW(ctrl.set_level(-1), std::invalid_argument);
  EXPECT_THROW(ctrl.set_level(plan_->num_islands() + 1),
               std::invalid_argument);
}

TEST_F(CompensateFixture, LevelSnapshotsAscendingBuildOrderBitIdentical) {
  // Each level snapshot is one compute_base() of that level, so the
  // request order must not matter.  The descending order is covered by
  // SetLevelBitIdenticalToComputeBase; this is the ascending order,
  // checked snapshot-for-snapshot against fresh full recomputes.
  StaEngine inc_eng(*sta_);
  CompensationController ctrl(*design_, inc_eng, *model_, *plan_, *razor_);
  StaEngine ref_eng(*sta_);
  for (int k = 0; k <= plan_->num_islands(); ++k) {
    ctrl.set_level(k);
    ref_eng.compute_base(plan_->corners_for_severity(k));
    const auto got = inc_eng.snapshot_bases();
    const auto want = ref_eng.snapshot_bases();
    EXPECT_EQ(got.edge_base, want.edge_base) << "level " << k;
    EXPECT_EQ(got.launch_base, want.launch_base) << "level " << k;
    EXPECT_EQ(got.inst_corner, want.inst_corner) << "level " << k;
  }
}

TEST_F(CompensateFixture, SharedLevelBasesBuildEachStateOnce) {
  // One LevelBases serves every controller built over copies of one
  // engine (DESIGN.md §20): the first request for a supply state computes
  // it, and every later request — from any controller — returns that same
  // snapshot without touching the requesting engine.
  LevelBases shared(*plan_);
  StaEngine eng_a(*sta_), eng_b(*sta_), ref(*sta_);
  CompensationController a(*design_, eng_a, *model_, *plan_, *razor_, &shared);
  CompensationController b(*design_, eng_b, *model_, *plan_, *razor_, &shared);
  const int n = plan_->num_islands();
  for (int k = 0; k <= n + 1; ++k) {
    if (k <= n) {
      a.set_level(k);
    } else {
      a.set_chip_wide();
    }
    // A hit leaves eng_b where it was: at a different supply state.
    eng_b.compute_base(supply_state_corners(*plan_, (k + 1) % (n + 2)));
    const auto before = eng_b.snapshot_bases();
    const StaEngine::BaseSnapshot& snap = shared.get(k, eng_b);
    EXPECT_EQ(&snap, &shared.get(k, eng_a)) << "state " << k;
    EXPECT_EQ(eng_b.snapshot_bases().edge_base, before.edge_base)
        << "state " << k;

    if (k <= n) {
      b.set_level(k);
    } else {
      b.set_chip_wide();
    }
    ref.compute_base(k <= n ? plan_->corners_for_severity(k)
                            : std::vector<int>(static_cast<std::size_t>(n) + 1,
                                               kVddHigh));
    const auto want = ref.snapshot_bases();
    const auto got = eng_b.snapshot_bases();
    EXPECT_EQ(got.edge_base, want.edge_base) << "state " << k;
    EXPECT_EQ(got.launch_base, want.launch_base) << "state " << k;
    EXPECT_EQ(got.inst_corner, want.inst_corner) << "state " << k;
  }
  EXPECT_THROW(shared.get(-1, eng_a), std::invalid_argument);
  EXPECT_THROW(shared.get(n + 2, eng_a), std::invalid_argument);
}

/// One supply state's lazily exact analysis as the controller runs it
/// (DESIGN.md §21), rebuilt from public pieces: table brackets, the exact
/// path off the bracketable knots, exact factors on demand.
struct LazyState {
  double wns = 0.0;
  std::vector<std::uint8_t> violating;
  std::size_t exact_gates = 0;  ///< distinct gates given an exact factor
};

LazyState lazy_state(const StaEngine& eng, const StaEngine::BaseSnapshot& snap,
                     const Design& design, const VariationModel& model,
                     const VirtualChip& chip) {
  const DelayFactorTables& tables = model.delay_factor_tables();
  const std::size_t n = design.num_instances();
  const auto exact = [&](InstId i) {
    return model.delay_factor(chip.lgate_nm[i], snap.inst_corner[i],
                              design.cell_of(i).vth);
  };
  std::vector<double> bounds(2 * n);
  for (InstId i = 0; i < n; ++i) {
    const int j = tables.bracket_knot(chip.lgate_nm[i]);
    if (j >= 0) {
      const DelayFactorTables::Bracket b = tables.bracket(
          DelayFactorTables::row(snap.inst_corner[i], design.cell_of(i).vth),
          j);
      bounds[2 * i] = b.lo;
      bounds[2 * i + 1] = b.hi;
    } else {
      bounds[2 * i] = bounds[2 * i + 1] = exact(i);
    }
  }
  LazyState out;
  std::vector<std::uint8_t> seen(n, 0);
  out.wns = eng.analyze_lazy(
      snap, bounds,
      [&](InstId i) {
        if (seen[i] == 0) {
          seen[i] = 1;
          ++out.exact_gates;
        }
        return exact(i);
      },
      out.violating);
  return out;
}

// The bound-pruned Monte-Carlo's soundness (DESIGN.md §22), on the final
// netlist at every supply state: the level-0 cone the wafer path builds,
// and the cone of every other state, may drop only endpoints whose slack
// is >= 0 and above their stage's worst slack + 1e-12 in a full analyze()
// of any die the model can draw — nominal dies, 1.5x-sigma dies at 0.85x
// clock, correlated dies; exact (Scalar) and table (BatchedSimd) factors.
TEST_F(CompensateFixture, ConeDropsOnlyEndpointsThatCannotCount) {
  VariationConfig stress_cfg = model_->config();
  stress_cfg.three_sigma_random_frac *= 1.5;
  const VariationModel stress(lib_->char_params(), *field_, stress_cfg);
  VariationConfig corr_cfg = model_->config();
  corr_cfg.correlated_fraction = 0.5;
  const VariationModel corr(lib_->char_params(), *field_, corr_cfg);
  struct Case {
    const VariationModel* model;
    double clock_scale;
    DieLocation loc;
  };
  const std::vector<Case> cases = {{model_, 1.0, DieLocation::point('D')},
                                   {model_, 1.0, worst_loc_},
                                   {&stress, 0.85, worst_loc_},
                                   {&corr, 1.0, worst_loc_}};
  const int states = plan_->num_islands() + 2;
  std::size_t dead = 0, checked = 0, crit = 0;
  for (std::size_t c = 0; c < cases.size(); ++c) {
    const VariationModel& model = *cases[c].model;
    StaEngine eng(*sta_);
    eng.set_clock_period(sta_->options().clock_period_ns * cases[c].clock_scale);
    LevelBases bases(*plan_);
    const std::vector<double> sys =
        model.systematic_lgates(*design_, cases[c].loc);
    const auto stencils = model.field_stencils(*design_);
    for (int k = 0; k < states; ++k) {
      SCOPED_TRACE("case " + std::to_string(c) + " state " + std::to_string(k));
      StaEngine st(eng);
      st.restore_bases(bases.get(k, eng));
      const TimingCone cone = MonteCarloSsta(*design_, st, model).cone(sys);
      std::vector<std::uint8_t> live(st.endpoints().size(), 0);
      for (const std::uint32_t e : cone.endpoints) live[e] = 1;
      const auto check = [&](const StaResult& r) {
        for (std::size_t e = 0; e < live.size(); ++e) {
          const double slack = r.endpoint_slack[e];
          const double swns =
              r.stage_wns[static_cast<std::size_t>(st.endpoints()[e].stage)];
          crit += slack < 0.0;
          if (live[e] != 0) continue;
          ++dead;
          EXPECT_GE(slack, 0.0) << "dropped endpoint " << e;
          EXPECT_GT(slack, swns + 1e-12) << "dropped endpoint " << e;
        }
        ++checked;
      };
      std::vector<double> f;
      for (std::uint64_t s = 0; s < 24; ++s) {  // exact factors
        Rng rng(substream_seed(0xc0e5ULL + c, s));
        model.draw_factors(*design_, st, sys, stencils, rng, f);
        check(st.analyze(f));
      }
      constexpr std::size_t kW = 16;  // table factors
      VariationModel::DrawScratch scratch;
      std::vector<double> soa(design_->num_instances() * kW);
      std::vector<StaResult> res(kW);
      for (std::uint64_t first = 0; first < 64; first += kW) {
        model.draw_factors_batch(*design_, st, sys, stencils, 0xc0e5ULL + c,
                                 first, kW, soa, scratch, true);
        st.analyze_batch_soa(soa, kW, std::span(res));
        for (const StaResult& r : res) check(r);
      }
    }
  }
  // The cones prune, and the dies reach negative slack: otherwise the
  // property above would hold trivially.
  EXPECT_GT(dead, checked);
  EXPECT_GT(crit, 0u);
}

TEST_F(CompensateFixture, LazyStatesMatchFullAnalysisAtEverySupplyState) {
  // Every supply state (levels 0..max_k and the chip-wide state), lazily
  // exact vs a full factor fill and analyze(): WNS bits and every
  // endpoint's violation sign.  Nominal chips at the fixture clock,
  // 1.5x-sigma chips at the stress clocks, and an all-65 nm chip whose
  // equal Lgates tie every factor bracket.
  VariationConfig vc = model_->config();
  vc.three_sigma_random_frac *= 1.5;
  const VariationModel stress(lib_->char_params(), *field_, vc);
  VirtualChip flat;
  flat.lgate_nm.assign(design_->num_instances(), 65.0);
  struct Case {
    const VariationModel* model;
    double clock_scale;
    DieLocation loc;
  };
  const std::vector<Case> cases = {
      {model_, 1.0, DieLocation::point('D')},
      {model_, 1.0, worst_loc_},
      {&stress, 0.85, worst_loc_},
      {&stress, 0.96, worst_loc_},
      {&stress, 1.03, worst_loc_},
      {&stress, 1.04, worst_loc_}};
  const int states = plan_->num_islands() + 2;
  std::size_t violations = 0, flat_max_exact = 0;
  for (const Case& c : cases) {
    StaEngine eng(*sta_);
    eng.set_clock_period(sta_->options().clock_period_ns * c.clock_scale);
    LevelBases bases(*plan_);
    Rng rng(90210);
    std::vector<VirtualChip> chips = {flat};
    for (int i = 0; i < 6; ++i) {
      chips.push_back(fabricate_chip(*design_, *c.model, c.loc, rng));
    }
    for (std::size_t ci = 0; ci < chips.size(); ++ci) {
      const VirtualChip& chip = chips[ci];
      for (int k = 0; k < states; ++k) {
        SCOPED_TRACE("clock x" + std::to_string(c.clock_scale) + " chip " +
                     std::to_string(ci) + " state " + std::to_string(k));
        const StaEngine::BaseSnapshot& snap = bases.get(k, eng);
        StaEngine ref(eng);
        ref.restore_bases(snap);
        std::vector<double> f(chip.lgate_nm.size());
        for (InstId i = 0; i < f.size(); ++i) {
          f[i] = c.model->delay_factor(chip.lgate_nm[i], snap.inst_corner[i],
                                       design_->cell_of(i).vth);
        }
        const StaResult want = ref.analyze(f);
        const LazyState got = lazy_state(eng, snap, *design_, *c.model, chip);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got.wns),
                  std::bit_cast<std::uint64_t>(want.wns));
        for (std::size_t e = 0; e < want.endpoint_slack.size(); ++e) {
          EXPECT_EQ(got.violating[e] != 0, want.endpoint_slack[e] < 0.0)
              << "endpoint " << e;
          violations += got.violating[e];
        }
        if (ci == 0) flat_max_exact = std::max(flat_max_exact, got.exact_gates);
      }
    }
  }
  EXPECT_GT(violations, 0u);
  // Ties cost refinement, not correctness: still a small share of gates.
  EXPECT_LT(flat_max_exact, design_->num_instances() / 20);
}

TEST_F(CompensateFixture, NominalWaferEvaluatesUnderFivePercentOfFactors) {
  // The lazily exact compensation's point: libm runs only for the gates
  // the analyses need.  Every die of a nominal 300 mm wafer, fabricated
  // and compensated: on average under 5 % of the gates get an exact
  // delay factor per die.
  StaEngine eng(*sta_);
  CompensationController ctrl(*design_, eng, *model_, *plan_, *razor_);
  const WaferModel wafer{WaferConfig{}};
  Rng rng(2008);
  int raised = 0;
  for (const WaferDie& die : wafer.dies()) {
    raised += ctrl.compensate(
                      fabricate_chip(*design_, *model_, die.location, rng))
                  .islands_raised > 0;
  }
  const double per_die = static_cast<double>(ctrl.exact_factor_evals()) /
                         static_cast<double>(wafer.num_dies());
  EXPECT_GT(ctrl.exact_factor_evals(), 0u);
  EXPECT_LT(per_die, 0.05 * static_cast<double>(design_->num_instances()))
      << per_die << " exact factors per die";
  RecordProperty("exact_factors_per_die", std::to_string(per_die));
  RecordProperty("dies_raising_islands", raised);
}

TEST_F(CompensateFixture, MoreFlaggedStagesThanIslandsRaisesThemAll) {
  // Sensors on every DC/EX/WB flop endpoint at half the clock: all three
  // gating stages flag, and a plan with two islands raises both — it
  // used to throw from set_level(3).  detected_severity keeps the count
  // the sensors read.
  ASSERT_GE(plan_->num_islands(), 2);
  IslandPlan two = *plan_;
  two.cuts.resize(2);
  two.cell_count.resize(2);
  two.feasible.resize(2);
  RazorPlan everywhere;
  for (std::size_t k = 0; k < sta_->endpoints().size(); ++k) {
    const Endpoint& ep = sta_->endpoints()[k];
    if (ep.flop == kInvalidInst) continue;
    if (ep.stage == PipeStage::Decode || ep.stage == PipeStage::Execute ||
        ep.stage == PipeStage::WriteBack) {
      everywhere.endpoint_indices.push_back(k);
      ++everywhere.per_stage[static_cast<std::size_t>(ep.stage)];
    }
  }
  StaEngine eng(*sta_);
  eng.set_clock_period(sta_->options().clock_period_ns * 0.5);
  StaEngine ref_eng(eng);
  CompensationController ctrl(*design_, eng, *model_, two, everywhere);
  CompensationController ref(*design_, ref_eng, *model_, two, everywhere);
  Rng rng(1999);
  for (int c = 0; c < 3; ++c) {
    SCOPED_TRACE("chip " + std::to_string(c));
    const VirtualChip chip = fabricate_chip(*design_, *model_, worst_loc_, rng);
    CompensationOutcome out;
    ASSERT_NO_THROW(out = ctrl.compensate(chip));
    EXPECT_EQ(out.detected_severity, 3);
    EXPECT_EQ(out.islands_raised, 2);
    EXPECT_FALSE(out.escalated);
    ref.set_level(2);
    const StaResult want = ref_eng.analyze(ref.chip_factors(chip));
    EXPECT_EQ(out.wns_after, want.wns);
    EXPECT_FALSE(out.timing_met);
  }
}

TEST_F(CompensateFixture, ChipSizeMismatchRejected) {
  CompensationController ctrl(*design_, *sta_, *model_, *plan_, *razor_);
  VirtualChip bad;
  bad.lgate_nm.assign(3, 65.0);
  EXPECT_THROW(ctrl.compensate(bad), std::invalid_argument);
}

TEST(RazorUnit, ThresholdFiltersSensors) {
  // A fake MC result with known probabilities.
  Library lib = make_st65lp_like();
  Design d("razor_unit", lib);
  NetlistBuilder b(d);
  b.clock_input("clk");
  const NetId a = b.input("a");
  b.set_stage(PipeStage::Execute);
  const NetId q1 = b.dff(a);
  b.set_stage(PipeStage::Decode);
  const NetId q2 = b.dff(q1);
  b.output(q2);
  for (InstId i = 0; i < d.num_instances(); ++i) {
    d.instance(i).pos = {1.0, 1.0};
    d.instance(i).placed = true;
  }
  StaEngine sta(d, StaOptions{});
  McResult fake;
  fake.endpoint_crit_prob.assign(sta.endpoints().size(), 0.0);
  // Give only the first flop endpoint a violation probability.
  for (std::size_t k = 0; k < sta.endpoints().size(); ++k) {
    if (sta.endpoints()[k].flop != kInvalidInst) {
      fake.endpoint_crit_prob[k] = 0.4;
      break;
    }
  }
  RazorConfig cfg;
  cfg.crit_prob_threshold = 0.5;
  EXPECT_EQ(plan_razor_sensors(sta, fake, cfg).total(), 0u);
  cfg.crit_prob_threshold = 0.3;
  EXPECT_EQ(plan_razor_sensors(sta, fake, cfg).total(), 1u);
  const double added =
      apply_razor_plan(d, sta, plan_razor_sensors(sta, fake, cfg));
  EXPECT_GT(added, 0.0);
}

}  // namespace
}  // namespace vipvt
