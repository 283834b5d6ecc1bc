// Variation model tests: exposure-field polynomial scaling, the
// systematic gradient (slow at A, fast at D), random-component moments,
// delay-factor physics, and Monte-Carlo SSTA distribution properties.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "netlist/vex.hpp"
#include "placement/placer.hpp"
#include "util/simd/dispatch.hpp"
#include "variation/field.hpp"
#include "variation/mc_ssta.hpp"
#include "variation/model.hpp"
#include "yield/wafer.hpp"
#include "yield/yield.hpp"

namespace vipvt {
namespace {

TEST(ExposureField, ScaledToMaxDeviation) {
  CharParams cp;
  const ExposureField field = ExposureField::scaled_65nm(cp);
  double lo = 1e9, hi = -1e9;
  for (int i = 0; i <= 100; ++i) {
    for (int j = 0; j <= 100; ++j) {
      const double d = field.deviation_at(28.0 * i / 100, 28.0 * j / 100);
      lo = std::min(lo, d);
      hi = std::max(hi, d);
    }
  }
  EXPECT_NEAR(hi, 0.055, 1e-3);
  EXPECT_NEAR(lo, -0.055, 1e-3);
}

TEST(ExposureField, SlowAtOriginFastAtFarCorner) {
  CharParams cp;
  const ExposureField field = ExposureField::scaled_65nm(cp);
  // Longest gates (slowest) at the lower-left of the field.
  EXPECT_GT(field.lgate_at(0.0, 0.0), cp.lgate_nom * 1.04);
  EXPECT_LT(field.lgate_at(28.0, 28.0), cp.lgate_nom * 0.97);
  // Monotone along the diagonal.
  double prev = field.lgate_at(0.0, 0.0);
  for (double t = 2.0; t <= 28.0; t += 2.0) {
    const double cur = field.lgate_at(t, t);
    EXPECT_LT(cur, prev + 1e-9);
    prev = cur;
  }
}

TEST(ExposureField, ClampsOutsideField) {
  CharParams cp;
  const ExposureField field = ExposureField::scaled_65nm(cp);
  EXPECT_DOUBLE_EQ(field.lgate_at(-5.0, -5.0), field.lgate_at(0.0, 0.0));
  EXPECT_DOUBLE_EQ(field.lgate_at(99.0, 99.0), field.lgate_at(28.0, 28.0));
}

TEST(ExposureField, AsciiMapRenders) {
  CharParams cp;
  const ExposureField field = ExposureField::scaled_65nm(cp);
  const std::string map = field.ascii_map(20);
  EXPECT_EQ(std::count(map.begin(), map.end(), '\n'), 20);
}

TEST(ExposureField, RejectsDegenerate) {
  EXPECT_THROW(ExposureField(PolyCoeffs{}, 28.0, 65.0, 0.055),
               std::invalid_argument);
  PolyCoeffs ok;
  ok.c = 1.0;
  EXPECT_THROW(ExposureField(ok, -1.0, 65.0, 0.055), std::invalid_argument);
}

TEST(DieLocation, PointsOrderedAlongDiagonal) {
  const auto a = DieLocation::point('A');
  const auto b = DieLocation::point('B');
  const auto c = DieLocation::point('C');
  const auto d = DieLocation::point('D');
  EXPECT_LT(a.core_origin_mm.x, b.core_origin_mm.x);
  EXPECT_LT(b.core_origin_mm.x, c.core_origin_mm.x);
  EXPECT_LT(c.core_origin_mm.x, d.core_origin_mm.x);
  EXPECT_THROW(DieLocation::point('Z'), std::invalid_argument);
}

class ModelTest : public ::testing::Test {
 protected:
  CharParams cp_;
  ExposureField field_ = ExposureField::scaled_65nm(cp_);
  VariationModel model_{cp_, field_};
};

// VariationConfig validation: one test per rejected input.  Unchecked, a
// negative sigma swaps the clamp bounds (every fabricated gate gets the
// same offset) and a correlated fraction above 1 turns every Lgate into
// NaN.
VariationConfig valid_config() { return VariationConfig{}; }

TEST_F(ModelTest, ConfigRejectsNegativeSigmaFraction) {
  VariationConfig vc = valid_config();
  vc.three_sigma_random_frac = -0.01;
  EXPECT_THROW(VariationModel(cp_, field_, vc), std::invalid_argument);
  vc.three_sigma_random_frac = 0.0;  // a process with no random part is valid
  EXPECT_NO_THROW(VariationModel(cp_, field_, vc));
}

TEST_F(ModelTest, ConfigRejectsNonFiniteSigmaFraction) {
  VariationConfig vc = valid_config();
  vc.three_sigma_random_frac = std::nan("");
  EXPECT_THROW(VariationModel(cp_, field_, vc), std::invalid_argument);
  vc.three_sigma_random_frac = std::numeric_limits<double>::infinity();
  EXPECT_THROW(VariationModel(cp_, field_, vc), std::invalid_argument);
}

TEST_F(ModelTest, ConfigRejectsNonPositiveClampSigma) {
  VariationConfig vc = valid_config();
  vc.clamp_sigma = 0.0;
  EXPECT_THROW(VariationModel(cp_, field_, vc), std::invalid_argument);
  vc.clamp_sigma = -4.5;
  EXPECT_THROW(VariationModel(cp_, field_, vc), std::invalid_argument);
}

TEST_F(ModelTest, ConfigRejectsNonFiniteClampSigma) {
  VariationConfig vc = valid_config();
  vc.clamp_sigma = std::numeric_limits<double>::infinity();
  EXPECT_THROW(VariationModel(cp_, field_, vc), std::invalid_argument);
  vc.clamp_sigma = std::nan("");
  EXPECT_THROW(VariationModel(cp_, field_, vc), std::invalid_argument);
}

TEST_F(ModelTest, ConfigRejectsCorrelatedFractionAboveOne) {
  VariationConfig vc = valid_config();
  vc.correlated_fraction = 1.5;
  EXPECT_THROW(VariationModel(cp_, field_, vc), std::invalid_argument);
  vc.correlated_fraction = 1.0;  // fully correlated is the closed end
  EXPECT_NO_THROW(VariationModel(cp_, field_, vc));
}

TEST_F(ModelTest, ConfigRejectsNegativeOrNanCorrelatedFraction) {
  VariationConfig vc = valid_config();
  vc.correlated_fraction = -0.25;
  EXPECT_THROW(VariationModel(cp_, field_, vc), std::invalid_argument);
  vc.correlated_fraction = std::nan("");
  EXPECT_THROW(VariationModel(cp_, field_, vc), std::invalid_argument);
}

TEST_F(ModelTest, ConfigRejectsNonPositiveCorrelationLength) {
  VariationConfig vc = valid_config();
  vc.correlated_fraction = 0.5;
  vc.correlation_length_um = 0.0;
  EXPECT_THROW(VariationModel(cp_, field_, vc), std::invalid_argument);
  vc.correlation_length_um = -150.0;
  EXPECT_THROW(VariationModel(cp_, field_, vc), std::invalid_argument);
  vc.correlated_fraction = 0.0;  // unused without a correlated field
  EXPECT_NO_THROW(VariationModel(cp_, field_, vc));
}

TEST_F(ModelTest, RandomComponentMoments) {
  // 3*sigma_rnd / mu = 6.5 %.
  EXPECT_NEAR(model_.sigma_random_nm(), 0.065 / 3.0 * cp_.lgate_nom, 1e-9);
  Rng rng(4);
  RunningStats rs;
  const DieLocation loc = DieLocation::point('B');
  const Point pos{100.0, 100.0};
  for (int i = 0; i < 20000; ++i) {
    rs.add(model_.sample_lgate(pos, loc, rng));
  }
  EXPECT_NEAR(rs.mean(), model_.systematic_lgate(pos, loc), 0.05);
  EXPECT_NEAR(rs.stddev(), model_.sigma_random_nm(), 0.05);
}

TEST_F(ModelTest, DelayFactorIdentityAtNominal) {
  EXPECT_DOUBLE_EQ(model_.delay_factor(cp_.lgate_nom, kVddLow), 1.0);
  EXPECT_DOUBLE_EQ(model_.delay_factor(cp_.lgate_nom, kVddHigh), 1.0);
}

TEST_F(ModelTest, LongerGateSlower) {
  EXPECT_GT(model_.delay_factor(cp_.lgate_nom * 1.05, kVddLow), 1.05);
  EXPECT_LT(model_.delay_factor(cp_.lgate_nom * 0.95, kVddLow), 0.95);
}

TEST_F(ModelTest, HighVddLessSensitiveToLgate) {
  // Raising Vdd reduces the *relative* slowdown of a long gate (higher
  // overdrive): the compensation mechanism in one inequality.
  const double slow_low = model_.delay_factor(cp_.lgate_nom * 1.05, kVddLow);
  const double slow_high = model_.delay_factor(cp_.lgate_nom * 1.05, kVddHigh);
  EXPECT_LT(slow_high, slow_low);
}

TEST_F(ModelTest, WorstCoreLocationIsSlowest) {
  const Point pos{200.0, 200.0};
  const double a = model_.systematic_lgate(pos, DieLocation::point('A'));
  const double d = model_.systematic_lgate(pos, DieLocation::point('D'));
  EXPECT_GT(a, d);
}

class McFixture : public ::testing::Test {
 protected:
  McFixture() : design_(make_vex_design(lib_, VexConfig::tiny())) {
    fp_ = std::make_unique<Floorplan>(
        Floorplan::for_design(design_, FloorplanConfig{}));
    db_ = std::make_unique<PlacementDb>(*fp_);
    place_design(design_, *fp_, PlacerConfig{}, *db_);
    sta_ = std::make_unique<StaEngine>(design_, StaOptions{});
    // Slack-met at nominal.
    sta_->set_clock_period(sta_->min_period() * 1.01);
    field_ = std::make_unique<ExposureField>(
        ExposureField::scaled_65nm(lib_.char_params()));
    model_ = std::make_unique<VariationModel>(lib_.char_params(), *field_);
  }

  Library lib_ = make_st65lp_like();
  Design design_;
  std::unique_ptr<Floorplan> fp_;
  std::unique_ptr<PlacementDb> db_;
  std::unique_ptr<StaEngine> sta_;
  std::unique_ptr<ExposureField> field_;
  std::unique_ptr<VariationModel> model_;
};

TEST_F(McFixture, WorstLocationViolatesBestDoesNot) {
  MonteCarloSsta mc(design_, *sta_, *model_);
  McConfig cfg;
  cfg.samples = 150;
  const McResult at_a = mc.run(DieLocation::point('A'), cfg);
  const McResult at_d = mc.run(DieLocation::point('D'), cfg);
  EXPECT_GT(at_a.num_violating_stages(), 0);
  EXPECT_LE(at_d.num_violating_stages(), at_a.num_violating_stages());
  // Mean slack degrades toward A.
  const auto& ex_a = at_a.stage(PipeStage::Execute);
  const auto& ex_d = at_d.stage(PipeStage::Execute);
  ASSERT_TRUE(ex_a.present);
  ASSERT_TRUE(ex_d.present);
  EXPECT_LT(ex_a.fit.mean, ex_d.fit.mean);
}

TEST_F(McFixture, SeverityMonotoneAlongDiagonal) {
  MonteCarloSsta mc(design_, *sta_, *model_);
  McConfig cfg;
  cfg.samples = 100;
  int prev = 4;
  for (double t : {0.0, 0.3, 0.6, 0.9}) {
    DieLocation loc;
    loc.core_origin_mm = {t * 14.0, t * 14.0};
    const McResult res = mc.run(loc, cfg);
    EXPECT_LE(res.num_violating_stages(), prev);
    prev = res.num_violating_stages();
  }
}

TEST_F(McFixture, DistributionsFitNormals) {
  MonteCarloSsta mc(design_, *sta_, *model_);
  McConfig cfg;
  cfg.samples = 400;
  const McResult res = mc.run(DieLocation::point('A'), cfg);
  const auto& ex = res.stage(PipeStage::Execute);
  ASSERT_TRUE(ex.present);
  EXPECT_EQ(ex.samples.size(), 400u);
  EXPECT_GT(ex.fit.stddev, 0.0);
  // The paper fit stage distributions to normals at 95 % confidence; our
  // max-of-many-paths slack is normal-ish — require the fit not to be
  // wildly rejected (p above 1e-4) rather than strictly accepted.
  EXPECT_GT(ex.fit.p_value, 1e-4);
}

TEST_F(McFixture, EndpointCriticalityBounded) {
  MonteCarloSsta mc(design_, *sta_, *model_);
  McConfig cfg;
  cfg.samples = 80;
  const McResult res = mc.run(DieLocation::point('A'), cfg);
  double max_p = 0.0;
  for (double p : res.endpoint_crit_prob) {
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
    max_p = std::max(max_p, p);
  }
  EXPECT_GT(max_p, 0.0);  // someone violates at point A
}

TEST_F(McFixture, DeterministicForSeed) {
  MonteCarloSsta mc(design_, *sta_, *model_);
  McConfig cfg;
  cfg.samples = 50;
  const McResult r1 = mc.run(DieLocation::point('B'), cfg);
  const McResult r2 = mc.run(DieLocation::point('B'), cfg);
  const auto& s1 = r1.stage(PipeStage::Execute).samples;
  const auto& s2 = r2.stage(PipeStage::Execute).samples;
  ASSERT_EQ(s1.size(), s2.size());
  for (std::size_t i = 0; i < s1.size(); ++i) EXPECT_EQ(s1[i], s2[i]);
}

/// Asserts two McResults are bit-identical on every field they carry.
void expect_identical(const McResult& a, const McResult& b) {
  EXPECT_EQ(a.samples, b.samples);
  for (int s = 0; s < kNumPipeStages; ++s) {
    const auto& sa = a.stages[static_cast<std::size_t>(s)];
    const auto& sb = b.stages[static_cast<std::size_t>(s)];
    EXPECT_EQ(sa.present, sb.present) << "stage " << s;
    EXPECT_EQ(sa.min_slack, sb.min_slack) << "stage " << s;
    EXPECT_EQ(sa.max_slack, sb.max_slack) << "stage " << s;
    EXPECT_EQ(sa.fit.mean, sb.fit.mean) << "stage " << s;
    EXPECT_EQ(sa.fit.stddev, sb.fit.stddev) << "stage " << s;
    EXPECT_EQ(sa.fit.chi2, sb.fit.chi2) << "stage " << s;
    EXPECT_EQ(sa.fit.p_value, sb.fit.p_value) << "stage " << s;
    EXPECT_EQ(sa.fit.accepted, sb.fit.accepted) << "stage " << s;
    ASSERT_EQ(sa.samples.size(), sb.samples.size()) << "stage " << s;
    for (std::size_t i = 0; i < sa.samples.size(); ++i) {
      EXPECT_EQ(sa.samples[i], sb.samples[i]) << "stage " << s << " @" << i;
    }
  }
  ASSERT_EQ(a.endpoint_crit_prob.size(), b.endpoint_crit_prob.size());
  for (std::size_t k = 0; k < a.endpoint_crit_prob.size(); ++k) {
    EXPECT_EQ(a.endpoint_crit_prob[k], b.endpoint_crit_prob[k]) << "ep " << k;
  }
  ASSERT_EQ(a.endpoint_stage_crit.size(), b.endpoint_stage_crit.size());
  for (std::size_t k = 0; k < a.endpoint_stage_crit.size(); ++k) {
    EXPECT_EQ(a.endpoint_stage_crit[k], b.endpoint_stage_crit[k]) << "ep " << k;
  }
  ASSERT_EQ(a.min_period_samples.size(), b.min_period_samples.size());
  for (std::size_t k = 0; k < a.min_period_samples.size(); ++k) {
    EXPECT_EQ(a.min_period_samples[k], b.min_period_samples[k]) << "k " << k;
  }
}

/// The batch width is a pure execution-layout choice: one lane per pass
/// of the batched kernel (batch 1), the default width, and odd widths all
/// yield the same bits.
TEST_F(McFixture, BitIdenticalAcrossBatchWidths) {
  MonteCarloSsta mc(design_, *sta_, *model_);
  McConfig cfg;
  cfg.samples = 60;  // not a multiple of the batch width: ragged tail
  const McResult ref = mc.run(DieLocation::point('A'), cfg);  // batch 8
  // 4096 lies far above the budget: the lane buffers are sized by the
  // budget.
  for (int batch : {1, 7, 32, 4096}) {
    McConfig c = cfg;
    c.batch = batch;
    expect_identical(ref, mc.run(DieLocation::point('A'), c));
  }
}

// ---- the BatchedSimd draw profile -----------------------------------------

/// Within the BatchedSimd profile, the batch width is a pure
/// execution-layout choice, exactly as it is for Scalar: every lane's
/// bits derive from (seed, global sample index) alone.
TEST_F(McFixture, BatchedSimdProfileBitIdenticalAcrossBatchWidths) {
  MonteCarloSsta mc(design_, *sta_, *model_);
  McConfig cfg;
  cfg.samples = 60;  // not a multiple of the batch width: ragged tail
  cfg.profile = DrawProfile::BatchedSimd;
  const McResult ref = mc.run(DieLocation::point('A'), cfg);  // batch 8
  for (int batch : {1, 7, 32, 4096}) {
    McConfig c = cfg;
    c.batch = batch;
    expect_identical(ref, mc.run(DieLocation::point('A'), c));
  }
}

/// The two profiles draw from different streams (bit-different by
/// design) but estimate the same population: their stage-slack fits must
/// agree to sampling error.  8 standard errors = far beyond noise, still
/// tight enough to catch a biased table or a broken bulk generator.
TEST_F(McFixture, BatchedSimdProfileAgreesWithScalarStatistically) {
  MonteCarloSsta mc(design_, *sta_, *model_);
  McConfig cfg;
  cfg.samples = 400;
  const McResult scalar = mc.run(DieLocation::point('A'), cfg);
  cfg.profile = DrawProfile::BatchedSimd;
  const McResult batched = mc.run(DieLocation::point('A'), cfg);
  const int n = cfg.samples;
  for (int s = 0; s < kNumPipeStages; ++s) {
    const auto& sa = scalar.stages[static_cast<std::size_t>(s)];
    const auto& sb = batched.stages[static_cast<std::size_t>(s)];
    ASSERT_EQ(sa.present, sb.present) << "stage " << s;
    if (!sa.present) continue;
    const double sigma = std::max(sa.fit.stddev, sb.fit.stddev);
    EXPECT_NEAR(sa.fit.mean, sb.fit.mean,
                8.0 * std::max(sigma * std::sqrt(2.0 / n), 1e-12))
        << "stage " << s;
    ASSERT_GT(sa.fit.stddev, 0.0);
    ASSERT_GT(sb.fit.stddev, 0.0);
    EXPECT_LT(std::abs(std::log(sb.fit.stddev / sa.fit.stddev)),
              8.0 / std::sqrt(static_cast<double>(n - 1)))
        << "stage " << s;
  }
  // And at least one sample differs: the profiles are genuinely
  // different streams, not an aliased code path.
  const auto& ex_a = scalar.stage(PipeStage::Execute).samples;
  const auto& ex_b = batched.stage(PipeStage::Execute).samples;
  ASSERT_EQ(ex_a.size(), ex_b.size());
  bool any_diff = false;
  for (std::size_t i = 0; i < ex_a.size(); ++i) any_diff |= ex_a[i] != ex_b[i];
  EXPECT_TRUE(any_diff);
}

/// Profile id 1 (the retired libm Batched stream) and ids no engine knows
/// are refused before any sample is drawn, never served by another
/// stream; the error names the retired profile.
TEST_F(McFixture, RetiredAndUnknownDrawProfilesRejected) {
  MonteCarloSsta mc(design_, *sta_, *model_);
  for (const int id : {1, 3}) {
    for (const int samples : {0, 8}) {
      McConfig cfg;
      cfg.samples = samples;
      cfg.profile = static_cast<DrawProfile>(id);
      try {
        (void)mc.run(DieLocation::point('A'), cfg);
        ADD_FAILURE() << "profile id " << id << " accepted";
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("Batched"), std::string::npos)
            << e.what();
      }
    }
  }
}

/// draw_factors_batch's flag once picked the libm stream; false now
/// throws, and the default draws the BatchedSimd stream the engine runs.
TEST_F(McFixture, DrawFactorsBatchRejectsRetiredLibmStream) {
  const auto systematic =
      model_->systematic_lgates(design_, DieLocation::point('A'));
  const auto stencils = model_->field_stencils(design_);
  constexpr std::size_t kWidth = 4;
  VariationModel::DrawScratch scratch;
  std::vector<double> soa(design_.num_instances() * kWidth);
  try {
    model_->draw_factors_batch(design_, *sta_, systematic, stencils, 7, 0,
                               kWidth, soa, scratch, false);
    ADD_FAILURE() << "simd_normals = false accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("Batched"), std::string::npos)
        << e.what();
  }
  std::vector<double> explicit_soa(soa.size());
  model_->draw_factors_batch(design_, *sta_, systematic, stencils, 7, 0,
                             kWidth, soa, scratch);
  model_->draw_factors_batch(design_, *sta_, systematic, stencils, 7, 0,
                             kWidth, explicit_soa, scratch, true);
  EXPECT_EQ(soa, explicit_soa);
}

/// Bitwise equality of two factor vectors (memcmp needs non-null
/// pointers even for zero bytes, which an empty vector may not give).
bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * 8) == 0);
}

/// The batched draw against its two-phase reference, byte for byte on
/// every dispatch target: lane l of sample first_sample + l takes its
/// substream's normals_simd() — after CorrelatedField::bulk() when
/// correlated — then std::clamp and DelayFactorTables::eval_row.  Widths
/// on both sides of every register width, instance counts around the old
/// 128-pair block and odd ones, correlated_fraction 0 and 0.5, the
/// default clamp and a wide sigma whose clamp binds on half the draws,
/// and systematic Lgates at both table edges.
TEST_F(McFixture, BatchedDrawMatchesTwoPhaseReference) {
  constexpr std::uint64_t kSeed = 0xba7c4ULL;
  constexpr std::uint64_t kFirst = 1000003;
  struct ArchGuard {
    ~ArchGuard() { simd::reset_arch(); }
  } guard;
  for (const double corr : {0.0, 0.5}) {
    for (const bool binding : {false, true}) {
      VariationConfig vc;
      vc.correlated_fraction = corr;
      if (binding) {
        vc.three_sigma_random_frac = 0.3;
        vc.clamp_sigma = 0.7;
      }
      const VariationModel model(lib_.char_params(), *field_, vc);
      const DelayFactorTables& tbl = model.delay_factor_tables();
      const double clamp = vc.clamp_sigma * model.sigma_random_nm();
      const double sigma_ind = model.sigma_independent_nm();
      // 2585 instances: the design's rows, systematic map and stencils,
      // repeated past its end, with every 7th Lgate at a table edge.
      constexpr std::size_t kN = 2585;
      const std::vector<std::int32_t> design_rows =
          model.table_rows(design_, *sta_);
      const std::vector<double> design_sys =
          model.systematic_lgates(design_, DieLocation::point('A'));
      std::vector<CorrelatedField::Stencil> stencils;
      std::vector<std::int32_t> rows;
      std::vector<double> sys;
      for (std::size_t i = 0; i < kN; ++i) {
        const InstId src = static_cast<InstId>(i % design_.num_instances());
        rows.push_back(design_rows[src]);
        sys.push_back(i % 7 == 0 ? (i % 14 == 0 ? tbl.lo_nm() : tbl.hi_nm())
                                 : design_sys[src]);
        stencils.push_back(CorrelatedField::stencil_at(
            design_.instance(src).pos, vc.correlation_length_um,
            VariationModel::kCorrGrid));
      }
      for (const std::size_t width :
           {1u, 2u, 3u, 4u, 5u, 7u, 8u, 9u, 12u, 16u, 17u}) {
        for (const std::size_t n :
             {0u, 1u, 2u, 3u, 255u, 256u, 257u, 2585u}) {
          std::vector<double> want(n * width), z(n);
          for (std::size_t l = 0; l < width; ++l) {
            Rng rng(substream_seed(kSeed, kFirst + l));
            CorrelatedField fld;
            if (corr > 0.0) {
              fld = CorrelatedField::bulk(vc.correlation_length_um,
                                          VariationModel::kCorrGrid,
                                          model.sigma_correlated_nm(), rng);
            }
            rng.normals_simd(z);
            for (std::size_t i = 0; i < n; ++i) {
              const double v = corr > 0.0
                                   ? fld.at(stencils[i]) + sigma_ind * z[i]
                                   : model.sigma_random_nm() * z[i];
              want[i * width + l] =
                  tbl.eval_row(tbl.row_data(rows[i]),
                               sys[i] + std::clamp(v, -clamp, clamp));
            }
          }
          for (const simd::Arch a : simd::available_archs()) {
            ASSERT_TRUE(simd::set_arch(a));
            VariationModel::DrawScratch scratch;
            std::vector<double> got(n * width);
            model.draw_batch(std::span(rows).first(n), sys, stencils, kSeed,
                             kFirst, width, got, scratch);
            EXPECT_TRUE(same_bits(got, want))
                << simd::arch_name(a) << " corr " << corr << " binding "
                << binding << " width " << width << " n " << n;
          }
        }
      }
    }
  }
}

// ---- bound-pruned Monte-Carlo (DESIGN.md §22) -----------------------------

/// Models of the cone tests: the default, a 1.5x-sigma one and a
/// correlated one (half the random variance in the within-die field).
std::vector<VariationConfig> cone_configs() {
  VariationConfig stress;
  stress.three_sigma_random_frac *= 1.5;
  VariationConfig corr;
  corr.correlated_fraction = 0.5;
  return {VariationConfig{}, stress, corr};
}

// Every factor either profile draws lies inside factor_bounds: the exact
// Scalar factors (host libm) and the BatchedSimd table factors, at both
// supply corners, for systematic maps at A and D and one past the table
// edge (whose instances must come out unbounded).
TEST_F(McFixture, ConeFactorBoundsContainEveryDraw) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const VariationConfig& vc : cone_configs()) {
    const VariationModel model(lib_.char_params(), *field_, vc);
    const auto stencils = model.field_stencils(design_);
    for (const int corner : {kVddLow, kVddHigh}) {
      StaEngine eng(*sta_);
      eng.compute_base(std::vector<int>(8, corner));
      const std::vector<std::int32_t> rows = model.table_rows(design_, eng);
      for (const char loc : {'A', 'D', 'E'}) {
        std::vector<double> sys =
            loc == 'E' ? std::vector<double>(design_.num_instances(),
                                             model.delay_factor_tables().lo_nm())
                       : model.systematic_lgates(design_,
                                                 DieLocation::point(loc));
        std::vector<double> bounds;
        model.factor_bounds(rows, sys, bounds);
        std::size_t bounded = 0, outside = 0;
        const auto check = [&](std::size_t i, double f) {
          if (!std::isfinite(bounds[2 * i])) return;
          if (!(bounds[2 * i] <= f && f <= bounds[2 * i + 1])) ++outside;
        };
        for (std::size_t i = 0; i < design_.num_instances(); ++i) {
          if (std::isfinite(bounds[2 * i])) {
            ++bounded;
            EXPECT_LT(bounds[2 * i], bounds[2 * i + 1]);
          } else {
            EXPECT_EQ(bounds[2 * i], -kInf);
            EXPECT_EQ(bounds[2 * i + 1], kInf);
          }
        }
        if (loc == 'E') {
          EXPECT_EQ(bounded, 0u) << "a table-edge map is unbracketable";
          continue;
        }
        EXPECT_EQ(bounded, design_.num_instances());
        std::vector<double> f;
        for (std::uint64_t k = 0; k < 24; ++k) {
          Rng rng(substream_seed(0xb0dULL, k));
          model.draw_factors(design_, eng, sys, stencils, rng, f);
          for (std::size_t i = 0; i < f.size(); ++i) check(i, f[i]);
        }
        constexpr std::size_t kW = 16;
        VariationModel::DrawScratch scratch;
        std::vector<double> soa(design_.num_instances() * kW);
        model.draw_factors_batch(design_, eng, sys, stencils, 0xb0dULL, 0, kW,
                                 soa, scratch, true);
        for (std::size_t i = 0; i < design_.num_instances(); ++i) {
          for (std::size_t l = 0; l < kW; ++l) check(i, soa[i * kW + l]);
        }
        EXPECT_EQ(outside, 0u) << "corner " << corner << " loc " << loc
                               << " sigma " << vc.three_sigma_random_frac
                               << " corr " << vc.correlated_fraction;
      }
    }
  }
}

// A draw over pair runs writes exactly the rows of those runs, with the
// bits a full draw gives them, and leaves every other row alone.
TEST_F(McFixture, ConePairRunDrawMatchesFullDraw) {
  for (const double corr : {0.0, 0.5}) {
    VariationConfig vc;
    vc.correlated_fraction = corr;
    const VariationModel model(lib_.char_params(), *field_, vc);
    const auto stencils = model.field_stencils(design_);
    const std::vector<std::int32_t> rows = model.table_rows(design_, *sta_);
    const std::vector<double> sys =
        model.systematic_lgates(design_, DieLocation::point('B'));
    const std::size_t n = design_.num_instances();
    Rng pick(0x5e1ecULL);
    std::vector<std::uint32_t> live;
    for (std::uint32_t i = 0; i < n; ++i) {
      if (pick.uniform() < 0.6 || i + 1 == n) live.push_back(i);
    }
    const auto runs = VariationModel::pair_runs(live);
    std::vector<std::uint8_t> in_run(n, 0);
    for (const auto& r : runs) {
      for (std::size_t i = 2 * r.first; i < std::min<std::size_t>(n, 2 * (r.first + r.count)); ++i) {
        in_run[i] = 1;
      }
    }
    for (const std::uint32_t i : live) EXPECT_EQ(in_run[i], 1) << i;
    for (const std::size_t width : {1u, 3u, 8u}) {
      VariationModel::DrawScratch scratch;
      std::vector<double> full(n * width), got(n * width, 42.0);
      model.draw_batch(rows, sys, stencils, 77, 5, width, full, scratch);
      model.draw_batch(rows, sys, stencils, 77, 5, width, got, scratch, runs);
      std::size_t mismatched = 0;
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t l = 0; l < width; ++l) {
          const double want = in_run[i] != 0 ? full[i * width + l] : 42.0;
          mismatched += std::memcmp(&got[i * width + l], &want, 8) != 0;
        }
      }
      EXPECT_EQ(mismatched, 0u) << "corr " << corr << " width " << width;
    }
  }
}

/// One full-graph sample of the pruned-run reference: stage WNS, min
/// period and every endpoint's slack.
struct ReferenceSample {
  std::array<double, kNumPipeStages> stage_wns{};
  double min_period = 0.0;
  std::vector<double> slack;
};

/// The unpruned reference of a run: every instance drawn (draw_factors or
/// draw_factors_batch), the whole graph propagated (analyze_batch_soa) and
/// every endpoint tallied.
std::vector<ReferenceSample> unpruned_reference(
    const Design& design, const StaEngine& sta, const VariationModel& model,
    std::span<const double> sys, const McConfig& cfg, std::size_t samples) {
  const auto stencils = model.field_stencils(design);
  const std::size_t n = design.num_instances();
  std::vector<ReferenceSample> out(samples);
  std::vector<double> f(n);
  VariationModel::DrawScratch scratch;
  std::vector<StaResult> res(1);
  for (std::size_t k = 0; k < samples; ++k) {
    if (cfg.profile == DrawProfile::Scalar) {
      Rng rng(substream_seed(cfg.seed, k));
      model.draw_factors(design, sta, sys, stencils, rng, f);
    } else {
      model.draw_factors_batch(design, sta, sys, stencils, cfg.seed, k, 1, f,
                               scratch, true);
    }
    sta.analyze_batch_soa(f, 1, std::span(res));
    out[k] = {res[0].stage_wns, res[0].min_period_ns, res[0].endpoint_slack};
  }
  return out;
}

/// A pruned McResult against the reference's first result.samples
/// samples, field by field, the tallies over every endpoint.
void expect_matches_reference(const McResult& got,
                              const std::vector<ReferenceSample>& ref,
                              const StaEngine& sta) {
  const auto n = static_cast<std::size_t>(got.samples);
  ASSERT_LE(n, ref.size());
  ASSERT_EQ(got.min_period_samples.size(), n);
  for (std::size_t k = 0; k < n; ++k) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.min_period_samples[k]),
              std::bit_cast<std::uint64_t>(ref[k].min_period))
        << "sample " << k;
  }
  for (std::size_t s = 0; s < kNumPipeStages; ++s) {
    std::vector<double> want;
    for (std::size_t k = 0; k < n; ++k) {
      if (std::isfinite(ref[k].stage_wns[s])) want.push_back(ref[k].stage_wns[s]);
    }
    EXPECT_EQ(got.stages[s].samples, want) << "stage " << s;
  }
  const auto& eps = sta.endpoints();
  const double inv_n = 1.0 / static_cast<double>(n);
  for (std::size_t e = 0; e < eps.size(); ++e) {
    std::uint32_t crit = 0, stage_crit = 0;
    for (std::size_t k = 0; k < n; ++k) {
      const double slack = ref[k].slack[e];
      if (!std::isfinite(slack)) continue;
      if (slack < 0.0) ++crit;
      if (slack <= ref[k].stage_wns[static_cast<std::size_t>(eps[e].stage)] +
                       1e-12) {
        ++stage_crit;
      }
    }
    EXPECT_EQ(got.endpoint_crit_prob[e], static_cast<double>(crit) * inv_n)
        << "endpoint " << e;
    EXPECT_EQ(got.endpoint_stage_crit[e], stage_crit) << "endpoint " << e;
  }
}

// The pruned engine against the unpruned reference, byte for byte: both
// profiles, widths {1, 3, 8, 16, 4096}, adaptive off and on,
// correlated_fraction {0, 0.5}, every dispatch target; plus the same run
// over a caller-built cone and through a caller's workspace.
TEST_F(McFixture, ConePrunedRunMatchesFullReference) {
  struct ArchGuard {
    ~ArchGuard() { simd::reset_arch(); }
  } guard;
  constexpr int kSamples = 40;
  std::size_t runs = 0;
  for (const double corr : {0.0, 0.5}) {
    VariationConfig vc;
    vc.correlated_fraction = corr;
    const VariationModel model(lib_.char_params(), *field_, vc);
    const std::vector<double> sys =
        model.systematic_lgates(design_, DieLocation::point('A'));
    const MonteCarloSsta mc(design_, *sta_, model);
    StaEngine probe(*sta_);
    const TimingCone cone = MonteCarloSsta(design_, probe, model).cone(sys);
    EXPECT_LT(cone.endpoints.size(), sta_->endpoints().size());
    EXPECT_LT(cone.arcs.size(), sta_->arcs().size());
    for (const DrawProfile profile :
         {DrawProfile::Scalar, DrawProfile::BatchedSimd}) {
      McConfig base;
      base.samples = kSamples;
      base.seed = 0xc0de5ULL;
      base.profile = profile;
      const std::vector<ReferenceSample> ref = unpruned_reference(
          design_, *sta_, model, sys, base, kSamples);
      for (const simd::Arch a : simd::available_archs()) {
        ASSERT_TRUE(simd::set_arch(a));
        for (const int batch : {1, 3, 8, 16, 4096}) {
          for (const bool adaptive : {false, true}) {
            McConfig cfg = base;
            cfg.batch = batch;
            if (adaptive) {
              cfg.adaptive.enabled = true;
              cfg.adaptive.min_samples = 8;
              cfg.adaptive.max_samples = kSamples;
              cfg.adaptive.check_every_batches = 1;
            }
            SCOPED_TRACE(std::string(simd::arch_name(a)) + " corr " +
                         std::to_string(corr) + " profile " +
                         std::to_string(static_cast<int>(profile)) +
                         " batch " + std::to_string(batch) + " adaptive " +
                         std::to_string(adaptive));
            const McResult serial = mc.run_with_systematic(sys, cfg);
            expect_matches_reference(serial, ref, *sta_);
            expect_identical(serial, mc.run_with_systematic(sys, cfg, &cone));
            StaEngine own(*sta_);
            McWorkspace ws;
            const MonteCarloSsta on_own(design_, own, model);
            expect_identical(serial,
                             on_own.run_with_systematic(sys, cfg, &cone, &ws));
            expect_identical(serial,  // the workspace carries no state
                             on_own.run_with_systematic(sys, cfg, &cone, &ws));
            runs += 4;
          }
        }
      }
    }
  }
  EXPECT_GT(runs, 0u);
}

// On the default wafer, reticle slot 0 sits at the exposure field's slow
// corner: sys + c lands in the factor tables' last knot intervals, which
// no bracket reaches.  Every slot's instances still get finite bounds,
// holding both profiles' factors at both ends of their clamp range at
// both supply corners, and a pruned slot-0 run matches the unpruned
// reference byte for byte.
TEST_F(McFixture, FactorBoundsFiniteOnEveryDefaultWaferSlot) {
  const WaferModel wafer{WaferConfig{}};
  const auto side = static_cast<std::size_t>(wafer.dies_per_field_side());
  std::vector<std::vector<double>> maps(side * side);
  for (const WaferDie& d : wafer.dies()) {
    auto& map = maps[YieldAnalyzer::reticle_slot(wafer, d)];
    if (map.empty()) map = model_->systematic_lgates(design_, d.location);
  }
  const DelayFactorTables& tables = model_->delay_factor_tables();
  const double c = model_->config().clamp_sigma * model_->sigma_random_nm();
  std::size_t unbracketable = 0;
  for (const int corner : {kVddLow, kVddHigh}) {
    StaEngine eng(*sta_);
    eng.compute_base(std::vector<int>(8, corner));
    const std::vector<std::int32_t> rows = model_->table_rows(design_, eng);
    for (std::size_t s = 0; s < maps.size(); ++s) {
      ASSERT_FALSE(maps[s].empty());
      std::vector<double> bounds;
      model_->factor_bounds(rows, maps[s], bounds);
      std::size_t outside = 0, unbounded = 0;
      for (std::size_t i = 0; i < design_.num_instances(); ++i) {
        if (!(std::isfinite(bounds[2 * i]) && std::isfinite(bounds[2 * i + 1]))) {
          ++unbounded;
          continue;
        }
        for (const double lgate : {maps[s][i] + -c, maps[s][i] + c}) {
          unbracketable += tables.bracket_knot(lgate) < 0;
          const int r = rows[i];
          for (const double f :
               {model_->delay_factor(lgate, DelayFactorTables::row_corner(r),
                                     DelayFactorTables::row_vth(r)),
                tables.eval_row(tables.row_data(r), lgate)}) {
            outside += !(bounds[2 * i] <= f && f <= bounds[2 * i + 1]);
          }
        }
      }
      EXPECT_EQ(unbounded, 0u) << "slot " << s << " corner " << corner;
      EXPECT_EQ(outside, 0u) << "slot " << s << " corner " << corner;
    }
  }
  EXPECT_GT(unbracketable, 0u);

  const std::vector<double>& sys = maps[0];
  const MonteCarloSsta mc(design_, *sta_, *model_);
  StaEngine probe(*sta_);
  const TimingCone cone = MonteCarloSsta(design_, probe, *model_).cone(sys);
  EXPECT_LT(cone.endpoints.size(), sta_->endpoints().size());
  EXPECT_LT(cone.instances.size(), design_.num_instances());
  for (const DrawProfile profile :
       {DrawProfile::Scalar, DrawProfile::BatchedSimd}) {
    McConfig cfg;
    cfg.samples = 48;
    cfg.seed = 0x510eULL;
    cfg.profile = profile;
    cfg.batch = 8;
    SCOPED_TRACE("profile " + std::to_string(static_cast<int>(profile)));
    expect_matches_reference(
        mc.run_with_systematic(sys, cfg),
        unpruned_reference(design_, *sta_, *model_, sys, cfg, 48), *sta_);
  }
}

// An instance whose clamp range leaves the factor tables is unbounded, so
// the cone sweep meets +inf delay bounds (DESIGN.md §22 (1), (2)): at 2x
// sigma, every 13th instance of the point-A map sits at the tables' top
// edge, where its draws leave them.  The pruned run must still match the
// unpruned reference byte for byte.
TEST_F(McFixture, ConePrunedRunMatchesFullReferenceWithUnboundedInstances) {
  VariationConfig vc;
  vc.three_sigma_random_frac *= 2.0;
  const VariationModel model(lib_.char_params(), *field_, vc);
  std::vector<double> sys =
      model.systematic_lgates(design_, DieLocation::point('A'));
  for (std::size_t i = 0; i < sys.size(); i += 13) {
    sys[i] = model.delay_factor_tables().hi_nm();
  }
  std::vector<double> bounds;
  model.factor_bounds(model.table_rows(design_, *sta_), sys, bounds);
  const auto unbounded = std::count_if(
      bounds.begin(), bounds.end(), [](double b) { return !std::isfinite(b); });
  EXPECT_EQ(static_cast<std::size_t>(unbounded), 2 * ((sys.size() + 12) / 13));
  const MonteCarloSsta mc(design_, *sta_, model);
  for (const DrawProfile profile :
       {DrawProfile::Scalar, DrawProfile::BatchedSimd}) {
    McConfig cfg;
    cfg.samples = 200;
    cfg.seed = 0x2519ULL;
    cfg.profile = profile;
    cfg.batch = 8;
    SCOPED_TRACE("profile " + std::to_string(static_cast<int>(profile)));
    expect_matches_reference(
        mc.run_with_systematic(sys, cfg),
        unpruned_reference(design_, *sta_, model, sys, cfg, 200), *sta_);
  }
}

// ---- delay-factor interpolation tables ------------------------------------

TEST_F(ModelTest, DelayFactorTablesBoundTheirError) {
  const DelayFactorTables& tables = model_.delay_factor_tables();
  ASSERT_TRUE(tables.built());
  // The builder measured its own max relative error on a refinement
  // grid; the bound must be tiny against the 6.5 % process sigma being
  // modeled...
  EXPECT_LT(tables.max_rel_error(), 1e-6);
  EXPECT_GT(tables.max_rel_error(), 0.0);
  // ...and must actually HOLD against the exact pow-based quotient on a
  // probe grid unrelated to the builder's own.
  const double lo = tables.lo_nm();
  const double hi = tables.hi_nm();
  EXPECT_LT(lo, cp_.lgate_nom);
  EXPECT_GT(hi, cp_.lgate_nom);
  double measured = 0.0;
  for (int corner : {kVddLow, kVddHigh}) {
    for (int v = 0; v < kNumVthClasses; ++v) {
      const auto vth = static_cast<VthClass>(v);
      for (int i = 0; i <= 1237; ++i) {
        const double l = lo + (hi - lo) * i / 1237.0;
        const double exact = model_.delay_factor(l, corner, vth);
        const double approx = tables.eval(l, corner, vth);
        measured = std::max(measured, std::abs(approx - exact) / exact);
      }
    }
  }
  EXPECT_LE(measured, tables.max_rel_error() * 1.0001);
}

TEST_F(ModelTest, DelayFactorTablesClampOutsideRange) {
  const DelayFactorTables& tables = model_.delay_factor_tables();
  const double below = tables.eval(tables.lo_nm() - 5.0, kVddLow,
                                   VthClass::Svt);
  const double above = tables.eval(tables.hi_nm() + 5.0, kVddLow,
                                   VthClass::Svt);
  EXPECT_TRUE(std::isfinite(below));
  EXPECT_TRUE(std::isfinite(above));
  EXPECT_LT(below, above);  // still monotone through the clamp

  // Far outside the range, and at ±inf, both helpers extrapolate the edge
  // segment j: c[2j] + c[2j+1] * (lgate - knot_j), where the knot offset
  // vanishes in rounding at these magnitudes.  NaN stays NaN.
  const double inf = std::numeric_limits<double>::infinity();
  const int last = tables.intervals() - 1;
  for (int r = 0; r < DelayFactorTables::kRows; ++r) {
    const double* rd = tables.row_data(r);
    for (const double lg : {-1e300, -inf, 1e300, inf}) {
      const int j = lg < 0.0 ? 0 : last;
      const double want = rd[2 * j] + rd[2 * j + 1] * lg;
      double slope = 0.0;
      EXPECT_EQ(tables.eval_row(rd, lg), want) << "row " << r << " at " << lg;
      EXPECT_EQ(tables.eval_row_slope(rd, lg, &slope), want)
          << "row " << r << " at " << lg;
      EXPECT_EQ(slope, rd[2 * j + 1]) << "row " << r << " at " << lg;
    }
    const double nan = std::numeric_limits<double>::quiet_NaN();
    double slope = 0.0;
    EXPECT_TRUE(std::isnan(tables.eval_row(rd, nan))) << "row " << r;
    EXPECT_TRUE(std::isnan(tables.eval_row_slope(rd, nan, &slope)))
        << "row " << r;
  }
}

TEST_F(ModelTest, DelayFactorBracketsContainTheExactFactor) {
  // The lazily exact compensation (DESIGN.md §21) trusts every bracket to
  // contain the exact pow/exp quotient.  Probe every row on a grid 64x
  // finer than the knots, at every knot +/- 1 ulp, and at both range
  // ends; every bracketable probe must be contained, and the brackets
  // must be tight enough to decide anything.
  const DelayFactorTables& tables = model_.delay_factor_tables();
  const int intervals = tables.intervals();
  const double lo = tables.lo_nm();
  const double hi = tables.hi_nm();
  const double step = (hi - lo) / intervals;
  std::vector<double> probes;
  for (int g = 0; g <= 64 * intervals; ++g) {
    probes.push_back(lo + (hi - lo) * g / (64.0 * intervals));
  }
  for (int k = 0; k <= intervals; ++k) {
    const double knot = lo + static_cast<double>(k) * step;
    probes.push_back(std::nextafter(knot, -1.0));
    probes.push_back(knot);
    probes.push_back(std::nextafter(knot, 1e9));
  }
  probes.push_back(lo);
  probes.push_back(hi);
  for (int corner : {kVddLow, kVddHigh}) {
    for (int v = 0; v < kNumVthClasses; ++v) {
      const auto vth = static_cast<VthClass>(v);
      const int r = DelayFactorTables::row(corner, vth);
      std::size_t bracketed = 0;
      double widest = 0.0;
      for (const double l : probes) {
        const int j = tables.bracket_knot(l);
        if (j < 0) continue;
        ASSERT_GE(j, 1);
        ASSERT_LE(j, intervals - 3);
        const DelayFactorTables::Bracket b = tables.bracket(r, j);
        const double exact = model_.delay_factor(l, corner, vth);
        ASSERT_LE(b.lo, exact) << "row " << r << " at " << l;
        ASSERT_GE(b.hi, exact) << "row " << r << " at " << l;
        widest = std::max(widest, b.hi / b.lo - 1.0);
        ++bracketed;
      }
      // All but the first and last two segments are bracketable.
      EXPECT_GE(bracketed, 64u * static_cast<std::size_t>(intervals - 3))
          << "row " << r;
      EXPECT_LT(widest, 0.01) << "row " << r;
    }
  }
  EXPECT_EQ(tables.bracket_knot(lo), -1);
  EXPECT_EQ(tables.bracket_knot(hi), -1);
}

TEST_F(ModelTest, DelayFactorBracketsSendOutOfRangeLgatesToExactPath) {
  // No bracket without knots on both sides: the first and the last two
  // segments, anything outside the table, +/-inf and NaN all return -1.
  const DelayFactorTables& tables = model_.delay_factor_tables();
  const double lo = tables.lo_nm();
  const double hi = tables.hi_nm();
  const double step = (hi - lo) / tables.intervals();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double l :
       {lo + 0.5 * step, hi - 1.5 * step, hi - 0.5 * step, lo - 1.0,
        hi + 1.0, -1e300, 1e300, -inf, inf,
        std::numeric_limits<double>::quiet_NaN()}) {
    EXPECT_EQ(tables.bracket_knot(l), -1) << "at " << l;
  }
  EXPECT_EQ(tables.bracket_knot(lo + 1.5 * step), 1);
  EXPECT_EQ(tables.bracket_knot(hi - 2.5 * step), tables.intervals() - 3);
}

// ---- correlated-field stencils --------------------------------------------

TEST_F(McFixture, StencilDrawBitIdenticalToPointDraw) {
  // With a correlated within-die component active, the stencil-hoisted
  // scalar draw must reproduce the direct at(Point) draw bit-for-bit.
  VariationConfig vc;
  vc.correlated_fraction = 0.8;
  const VariationModel model(lib_.char_params(), *field_, vc);
  const auto systematic =
      model.systematic_lgates(design_, DieLocation::point('B'));
  const auto stencils = model.field_stencils(design_);
  ASSERT_EQ(stencils.size(), design_.num_instances());
  std::vector<double> direct, hoisted;
  Rng r1(123), r2(123);
  model.draw_factors(design_, *sta_, systematic, r1, direct);
  model.draw_factors(design_, *sta_, systematic, stencils, r2, hoisted);
  ASSERT_EQ(direct.size(), hoisted.size());
  for (std::size_t i = 0; i < direct.size(); ++i) {
    EXPECT_EQ(direct[i], hoisted[i]) << "inst " << i;
  }
  // Both consumed the same stream.
  EXPECT_EQ(r1.next(), r2.next());
}

TEST_F(McFixture, BatchedSimdProfileDeterministicWithCorrelatedField) {
  // The correlated bulk field draw is part of the lane's substream: the
  // profile's width invariance must survive it.
  VariationConfig vc;
  vc.correlated_fraction = 0.5;
  const VariationModel model(lib_.char_params(), *field_, vc);
  MonteCarloSsta mc(design_, *sta_, model);
  McConfig cfg;
  cfg.samples = 36;
  cfg.profile = DrawProfile::BatchedSimd;
  const McResult ref = mc.run(DieLocation::point('A'), cfg);
  for (int batch : {3, 16}) {
    McConfig c = cfg;
    c.batch = batch;
    expect_identical(ref, mc.run(DieLocation::point('A'), c));
  }
}

// ---- adaptive sequential sampling (DESIGN.md §14) --------------------------

TEST_F(McFixture, AdaptivePolicyValidation) {
  MonteCarloSsta mc(design_, *sta_, *model_);
  McConfig cfg;
  cfg.adaptive.enabled = true;
  auto run = [&](auto mutate) {
    McConfig c = cfg;
    mutate(c.adaptive);
    return mc.run(DieLocation::point('D'), c);
  };
  EXPECT_THROW(run([](AdaptivePolicy& p) { p.min_samples = 0; }),
               std::invalid_argument);
  EXPECT_THROW(run([](AdaptivePolicy& p) {
                 p.min_samples = 10;
                 p.max_samples = 9;
               }),
               std::invalid_argument);
  EXPECT_THROW(run([](AdaptivePolicy& p) { p.check_every_batches = 0; }),
               std::invalid_argument);
  EXPECT_THROW(run([](AdaptivePolicy& p) { p.confidence = 1.0; }),
               std::invalid_argument);
  EXPECT_THROW(run([](AdaptivePolicy& p) { p.confidence = 0.0; }),
               std::invalid_argument);
  // A disabled policy is inert config: bogus fields must not bite.
  cfg.adaptive.enabled = false;
  cfg.adaptive.min_samples = -7;
  cfg.samples = 10;
  EXPECT_NO_THROW(mc.run(DieLocation::point('D'), cfg));
}

/// The tentpole contract, fuzzed: for random seeds and random policies,
/// an adaptive run that stops at N is bit-identical to a fixed run with
/// samples = N.  Both draw profiles.
TEST_F(McFixture, AdaptiveStopBitIdenticalToFixedAtNFuzz) {
  MonteCarloSsta mc(design_, *sta_, *model_);
  const auto systematic =
      model_->systematic_lgates(design_, DieLocation::point('A'));

  // Pilot run: scale the fuzzed CI targets off the real stage sigmas so
  // the policies stop all over [min, max] instead of at one end.
  McConfig pilot;
  pilot.samples = 48;
  double sigma = 0.0;
  for (const auto& sd : mc.run_with_systematic(systematic, pilot).stages) {
    if (sd.present) sigma = std::max(sigma, sd.fit.stddev);
  }
  ASSERT_GT(sigma, 0.0);

  Rng fuzz(0xada9717e);
  for (int iter = 0; iter < 6; ++iter) {
    McConfig cfg;
    cfg.seed = fuzz.next();
    cfg.batch = 1 + static_cast<int>(fuzz.below(9));
    cfg.profile = iter % 2 ? DrawProfile::BatchedSimd : DrawProfile::Scalar;
    cfg.adaptive.enabled = true;
    cfg.adaptive.min_samples = 8 + static_cast<int>(fuzz.below(25));
    cfg.adaptive.max_samples = 120 + static_cast<int>(fuzz.below(81));
    cfg.adaptive.check_every_batches = 1 + static_cast<int>(fuzz.below(4));
    const double frac = fuzz.uniform(0.08, 0.55);
    cfg.adaptive.sigma_half_width_ns = frac * sigma;
    cfg.adaptive.mean_half_width_ns = 2.0 * frac * sigma;

    const McResult adaptive = mc.run_with_systematic(systematic, cfg);
    const int n = adaptive.samples;
    if (adaptive.stopping_reason == McStop::Converged) {
      EXPECT_GE(n, cfg.adaptive.min_samples) << "iter " << iter;
      EXPECT_LE(n, cfg.adaptive.max_samples) << "iter " << iter;
    } else {
      EXPECT_EQ(adaptive.stopping_reason, McStop::MaxSamples);
      EXPECT_EQ(n, cfg.adaptive.max_samples) << "iter " << iter;
    }
    ASSERT_FALSE(adaptive.convergence.empty());
    EXPECT_EQ(adaptive.convergence.back().samples, n);
    EXPECT_EQ(adaptive.convergence.back().converged,
              adaptive.stopping_reason == McStop::Converged);

    // Fixed-at-N equivalence.
    McConfig fixed = cfg;
    fixed.adaptive = AdaptivePolicy{};
    fixed.samples = n;
    const McResult f = mc.run_with_systematic(systematic, fixed);
    EXPECT_EQ(f.stopping_reason, McStop::FixedBudget);
    EXPECT_TRUE(f.convergence.empty());
    expect_identical(adaptive, f);
  }
}

/// Stopping-rule properties: never before min_samples, always by
/// max_samples, checkpoint-grid quantization only, and tightening the
/// targets never stops EARLIER (monotone non-decreasing N).
TEST_F(McFixture, AdaptiveConvergenceProperties) {
  MonteCarloSsta mc(design_, *sta_, *model_);
  const auto systematic =
      model_->systematic_lgates(design_, DieLocation::point('A'));
  McConfig cfg;
  cfg.adaptive.enabled = true;
  cfg.adaptive.min_samples = 40;
  cfg.adaptive.max_samples = 160;
  cfg.adaptive.check_every_batches = 2;  // 16-sample checkpoint grid

  // Infinitely loose targets: converged at the first checkpoint at or
  // after min_samples — never a sample before it.
  cfg.adaptive.mean_half_width_ns = 1e9;
  cfg.adaptive.sigma_half_width_ns = 1e9;
  const McResult loose = mc.run_with_systematic(systematic, cfg);
  EXPECT_EQ(loose.stopping_reason, McStop::Converged);
  EXPECT_GE(loose.samples, cfg.adaptive.min_samples);
  EXPECT_LT(loose.samples,
            cfg.adaptive.min_samples + cfg.adaptive.check_every_batches *
                                           cfg.batch);

  // Unreachable (zero) targets: runs the full cap and says so.
  cfg.adaptive.mean_half_width_ns = 0.0;
  cfg.adaptive.sigma_half_width_ns = 0.0;
  const McResult capped = mc.run_with_systematic(systematic, cfg);
  EXPECT_EQ(capped.stopping_reason, McStop::MaxSamples);
  EXPECT_EQ(capped.samples, cfg.adaptive.max_samples);
  ASSERT_FALSE(capped.convergence.empty());
  EXPECT_FALSE(capped.convergence.back().converged);
  int prev_round = 0;
  for (const McRound& r : capped.convergence) {
    EXPECT_GT(r.samples, prev_round);
    EXPECT_GT(r.worst_sigma_half_width_ns, 0.0);
    prev_round = r.samples;
  }
  EXPECT_EQ(prev_round, cfg.adaptive.max_samples);

  // Monotonicity: the per-round half-width trajectory is target-
  // independent, so the first-crossing N can only grow as targets shrink.
  const double sigma = capped.stage(PipeStage::Execute).fit.stddev;
  ASSERT_GT(sigma, 0.0);
  cfg.adaptive.min_samples = 16;
  int prev_n = 0;
  for (double frac : {0.8, 0.4, 0.2, 0.1, 0.05}) {
    cfg.adaptive.sigma_half_width_ns = frac * sigma;
    cfg.adaptive.mean_half_width_ns = 2.0 * frac * sigma;
    const McResult r = mc.run_with_systematic(systematic, cfg);
    EXPECT_GE(r.samples, prev_n) << "frac " << frac;
    EXPECT_GE(r.samples, cfg.adaptive.min_samples);
    EXPECT_LE(r.samples, cfg.adaptive.max_samples);
    prev_n = r.samples;
  }
}

/// A deliberately wide-sigma stage (double the random Lgate spread) must
/// hold the stopping rule back: at the same absolute CI target the wide
/// model draws strictly more samples than the default one.
TEST_F(McFixture, AdaptiveWideSigmaStageDrawsMoreSamples) {
  VariationConfig vc;
  vc.three_sigma_random_frac = 0.13;  // ~2x the default 6.5 %
  const VariationModel wide_model(lib_.char_params(), *field_, vc);
  MonteCarloSsta base(design_, *sta_, *model_);
  MonteCarloSsta wide(design_, *sta_, wide_model);

  McConfig pilot;
  pilot.samples = 48;
  const double sigma =
      base.run(DieLocation::point('A'), pilot).stage(PipeStage::Execute)
          .fit.stddev;
  ASSERT_GT(sigma, 0.0);

  McConfig cfg;
  cfg.adaptive.enabled = true;
  cfg.adaptive.min_samples = 8;
  cfg.adaptive.max_samples = 320;
  cfg.adaptive.check_every_batches = 1;  // finest checkpoint grid
  cfg.adaptive.sigma_half_width_ns = 0.25 * sigma;  // ~30 samples at 1x
  cfg.adaptive.mean_half_width_ns = 1e9;            // sigma target binds
  const McResult r_base = base.run(DieLocation::point('A'), cfg);
  const McResult r_wide = wide.run(DieLocation::point('A'), cfg);
  EXPECT_EQ(r_base.stopping_reason, McStop::Converged);
  EXPECT_LT(r_base.samples, cfg.adaptive.max_samples);
  EXPECT_GT(r_wide.samples, r_base.samples);
}

/// run_with_systematic against the map run() derives internally must be
/// a pure refactoring seam: bit-identical results.
TEST_F(McFixture, RunWithSystematicMatchesRun) {
  MonteCarloSsta mc(design_, *sta_, *model_);
  McConfig cfg;
  cfg.samples = 40;
  const DieLocation loc = DieLocation::point('C');
  const auto systematic = model_->systematic_lgates(design_, loc);
  expect_identical(mc.run(loc, cfg), mc.run_with_systematic(systematic, cfg));
  cfg.profile = DrawProfile::BatchedSimd;
  expect_identical(mc.run(loc, cfg), mc.run_with_systematic(systematic, cfg));
}

/// A map shorter than the design is refused whatever the budget, a zero
/// budget included, instead of yielding an empty result.
TEST_F(McFixture, ShortSystematicMapRejectedAtEveryBudget) {
  const MonteCarloSsta mc(design_, *sta_, *model_);
  const std::vector<double> sys =
      model_->systematic_lgates(design_, DieLocation::point('A'));
  const auto short_map = std::span(sys).first(sys.size() - 1);
  for (const int samples : {0, 8}) {
    McConfig cfg;
    cfg.samples = samples;
    EXPECT_THROW(mc.run_with_systematic(short_map, cfg), std::invalid_argument)
        << "samples " << samples;
  }
}

/// One workspace carried through runs of other profiles, widths, budgets
/// and die locations (so other cones) leaves no trace: every run equals
/// a fresh run without a workspace, bit for bit.  The last run's model
/// draws a correlated field, which fills the draw scratch's offsets.
TEST_F(McFixture, WorkspaceCarriedAcrossConfigsMatchesFreshRuns) {
  VariationConfig vc;
  vc.correlated_fraction = 0.5;
  const VariationModel correlated(lib_.char_params(), *field_, vc);
  struct Step {
    DrawProfile profile;
    int batch;
    bool adaptive;
    char point;
    const VariationModel* model;
  };
  const Step steps[] = {
      {DrawProfile::Scalar, 16, false, 'A', model_.get()},
      {DrawProfile::BatchedSimd, 3, false, 'D', model_.get()},
      {DrawProfile::Scalar, 1, false, 'B', model_.get()},
      {DrawProfile::BatchedSimd, 8, true, 'C', model_.get()},
      {DrawProfile::BatchedSimd, 5, false, 'A', &correlated},
  };
  McWorkspace ws;
  for (const Step& st : steps) {
    SCOPED_TRACE(std::string("point ") + st.point + " batch " +
                 std::to_string(st.batch));
    const MonteCarloSsta mc(design_, *sta_, *st.model);
    const std::vector<double> sys =
        st.model->systematic_lgates(design_, DieLocation::point(st.point));
    McConfig cfg;
    cfg.samples = 40;
    cfg.profile = st.profile;
    cfg.batch = st.batch;
    if (st.adaptive) {
      cfg.adaptive.enabled = true;
      cfg.adaptive.min_samples = 16;
      cfg.adaptive.max_samples = 64;
      cfg.adaptive.check_every_batches = 1;
    }
    const McResult fresh = mc.run_with_systematic(sys, cfg);
    const McResult reused = mc.run_with_systematic(sys, cfg, nullptr, &ws);
    expect_identical(fresh, reused);
    EXPECT_EQ(fresh.stopping_reason, reused.stopping_reason);
    ASSERT_EQ(fresh.convergence.size(), reused.convergence.size());
    for (std::size_t r = 0; r < fresh.convergence.size(); ++r) {
      EXPECT_EQ(fresh.convergence[r].samples, reused.convergence[r].samples);
      EXPECT_EQ(fresh.convergence[r].worst_mean_half_width_ns,
                reused.convergence[r].worst_mean_half_width_ns);
      EXPECT_EQ(fresh.convergence[r].worst_sigma_half_width_ns,
                reused.convergence[r].worst_sigma_half_width_ns);
    }
  }
}

// ---- the Scalar draw table (DESIGN.md §10) ---------------------------------

/// A table-backed Scalar run reads every factor the drawn run computes:
/// one table per model serves all-low, raised-prefix and all-high corner
/// states, with and without a caller cone, at batch widths 1 and 8, for
/// the i.i.d. model and a correlated one (which draws its field first).
TEST_F(McFixture, DrawTableRunMatchesDrawnRun) {
  VariationConfig vc;
  vc.correlated_fraction = 0.5;
  const VariationModel correlated(lib_.char_params(), *field_, vc);
  const std::size_t n = design_.num_instances();
  for (const VariationModel* model :
       {static_cast<const VariationModel*>(model_.get()), &correlated}) {
    const MonteCarloSsta mc(design_, *sta_, *model);
    std::vector<double> sys =
        model->systematic_lgates(design_, DieLocation::point('A'));
    McConfig cfg;
    cfg.samples = 20;  // a ragged tail at width 8
    const DrawTable table(design_, *model, sys, cfg.seed, cfg.samples);
    for (const int state : {0, 1, 2}) {  // all low, raised prefix, all high
      for (InstId i = 0; i < n; ++i) {
        design_.instance(i).domain = state == 1 && i < n / 3 ? 1 : kDomainBase;
      }
      sta_->compute_base(std::vector<int>{state == 2 ? kVddHigh : kVddLow,
                                          kVddHigh});
      const TimingCone cone = mc.cone(sys);
      for (const TimingCone* c : {static_cast<const TimingCone*>(nullptr),
                                  &cone}) {
        for (const int batch : {1, 8}) {
          SCOPED_TRACE("correlated " + std::to_string(model != model_.get()) +
                       " state " + std::to_string(state) + " cone " +
                       std::to_string(c != nullptr) + " batch " +
                       std::to_string(batch));
          cfg.batch = batch;
          expect_identical(
              mc.run_with_systematic(sys, cfg, c),
              mc.run_with_systematic(sys, cfg, c, nullptr, &table));
        }
      }
    }
  }
  for (InstId i = 0; i < n; ++i) design_.instance(i).domain = kDomainBase;
  sta_->compute_base_all_low();
}

/// A table is refused by every run it does not hold the draws of: another
/// seed, budget, map, model or profile.
TEST_F(McFixture, DrawTableRefusesAnotherRun) {
  const MonteCarloSsta mc(design_, *sta_, *model_);
  const std::vector<double> sys =
      model_->systematic_lgates(design_, DieLocation::point('A'));
  McConfig cfg;
  cfg.samples = 16;
  const DrawTable table(design_, *model_, sys, cfg.seed, cfg.samples);
  EXPECT_NO_THROW(mc.run_with_systematic(sys, cfg, nullptr, nullptr, &table));
  const auto refused = [&](const McConfig& c, std::span<const double> map,
                           const MonteCarloSsta& engine) {
    EXPECT_THROW(engine.run_with_systematic(map, c, nullptr, nullptr, &table),
                 std::invalid_argument);
  };
  McConfig other = cfg;
  other.seed = cfg.seed + 1;
  refused(other, sys, mc);
  for (const int samples : {0, 15, 17}) {
    other = cfg;
    other.samples = samples;
    refused(other, sys, mc);
  }
  other = cfg;
  other.profile = DrawProfile::BatchedSimd;
  refused(other, sys, mc);
  refused(cfg, model_->systematic_lgates(design_, DieLocation::point('B')), mc);
  std::vector<double> nudged = sys;
  nudged.back() = std::nextafter(nudged.back(), 0.0);
  refused(cfg, nudged, mc);
  const VariationModel same_config(lib_.char_params(), *field_);
  refused(cfg, sys, MonteCarloSsta(design_, *sta_, same_config));
  EXPECT_THROW(DrawTable(design_, *model_, std::vector<double>(sys.size() - 1),
                         cfg.seed, cfg.samples),
               std::invalid_argument);
}

}  // namespace
}  // namespace vipvt
