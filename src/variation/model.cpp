#include "variation/model.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "util/simd/dispatch.hpp"

namespace vipvt {

CorrelatedField::CorrelatedField(double pitch_um, int grid, double sigma_nm,
                                 Rng& rng)
    : pitch_um_(pitch_um), grid_(grid) {
  values_.resize(static_cast<std::size_t>(grid + 1) * (grid + 1));
  for (auto& v : values_) v = rng.normal(0.0, sigma_nm);
}

CorrelatedField CorrelatedField::bulk(double pitch_um, int grid,
                                      double sigma_nm, Rng& rng) {
  CorrelatedField f;
  f.pitch_um_ = pitch_um;
  f.grid_ = grid;
  f.values_.resize(static_cast<std::size_t>(grid + 1) * (grid + 1));
  rng.normals_simd(f.values_);
  for (auto& v : f.values_) v *= sigma_nm;
  return f;
}

CorrelatedField::Stencil CorrelatedField::stencil_at(Point pos_um,
                                                     double pitch_um,
                                                     int grid) {
  const double gx = std::clamp(pos_um.x / pitch_um, 0.0,
                               static_cast<double>(grid) - 1e-9);
  const double gy = std::clamp(pos_um.y / pitch_um, 0.0,
                               static_cast<double>(grid) - 1e-9);
  const auto x0 = static_cast<std::size_t>(gx);
  const auto y0 = static_cast<std::size_t>(gy);
  const double fx = gx - static_cast<double>(x0);
  const double fy = gy - static_cast<double>(y0);
  const auto stride = static_cast<std::size_t>(grid + 1);
  Stencil s;
  s.idx[0] = static_cast<std::uint32_t>(y0 * stride + x0);
  s.idx[1] = static_cast<std::uint32_t>(y0 * stride + x0 + 1);
  s.idx[2] = static_cast<std::uint32_t>((y0 + 1) * stride + x0);
  s.idx[3] = static_cast<std::uint32_t>((y0 + 1) * stride + x0 + 1);
  s.w[0] = (1 - fx) * (1 - fy);
  s.w[1] = fx * (1 - fy);
  s.w[2] = (1 - fx) * fy;
  s.w[3] = fx * fy;
  // Bilinear blending of i.i.d. nodes shrinks the variance between nodes;
  // the norm renormalizes so the marginal sigma is position-independent.
  // Stored un-divided (at(Stencil) divides) so the stencil path keeps the
  // exact operation order of the historical direct evaluation.
  s.norm = std::sqrt(s.w[0] * s.w[0] + s.w[1] * s.w[1] + s.w[2] * s.w[2] +
                     s.w[3] * s.w[3]);
  return s;
}

double CorrelatedField::at(Point pos_um) const {
  if (!active()) return 0.0;
  return at(stencil_at(pos_um, pitch_um_, grid_));
}

namespace {

/// The config's documented domain (model.hpp).  A negative sigma would
/// swap the clamp bounds and a correlated fraction above 1 turns the
/// independent sigma into NaN, so both fail here, not in a draw.
const VariationConfig& validated(const VariationConfig& cfg) {
  const auto fail = [](const char* what) {
    throw std::invalid_argument(std::string("VariationConfig: ") + what);
  };
  if (!std::isfinite(cfg.three_sigma_random_frac) ||
      cfg.three_sigma_random_frac < 0.0) {
    fail("three_sigma_random_frac must be finite and >= 0");
  }
  if (!std::isfinite(cfg.clamp_sigma) || !(cfg.clamp_sigma > 0.0)) {
    fail("clamp_sigma must be finite and > 0");
  }
  if (!(cfg.correlated_fraction >= 0.0 && cfg.correlated_fraction <= 1.0)) {
    fail("correlated_fraction must lie in [0, 1]");
  }
  if (cfg.correlated_fraction > 0.0 && !(cfg.correlation_length_um > 0.0)) {
    fail("correlation_length_um must be > 0 for a correlated field");
  }
  return cfg;
}

}  // namespace

VariationModel::VariationModel(const CharParams& cp, const ExposureField& field,
                               const VariationConfig& cfg)
    : cp_(cp), field_(&field), cfg_(validated(cfg)),
      sigma_rnd_(cfg.three_sigma_random_frac / 3.0 * cp.lgate_nom),
      nominal_raw_leakage_(cp_.raw_leakage(cp_.lgate_nom, cp_.vdd_low)) {
  for (int corner : {kVddLow, kVddHigh}) {
    for (int v = 0; v < kNumVthClasses; ++v) {
      nominal_raw_delay_[static_cast<std::size_t>(corner)]
                        [static_cast<std::size_t>(v)] =
          cp_.raw_delay(cp_.lgate_nom, vdd_of_corner(corner),
                        cp_.vth0_of(static_cast<VthClass>(v)));
    }
  }
  // Table range = everything a clamped draw can produce: systematic
  // field extremes +/- clamp_sigma random deviations.  eval() clamps, so
  // rounding at the extremes cannot read out of range.
  const double dev = field.max_dev_frac() * cp.lgate_nom;
  const double clamp = cfg_.clamp_sigma * sigma_rnd_;
  tables_ = DelayFactorTables(cp_, cp.lgate_nom - dev - clamp,
                              cp.lgate_nom + dev + clamp);
}

double VariationModel::sigma_correlated_nm() const {
  return sigma_rnd_ * std::sqrt(cfg_.correlated_fraction);
}

double VariationModel::sigma_independent_nm() const {
  return sigma_rnd_ * std::sqrt(1.0 - cfg_.correlated_fraction);
}

CorrelatedField VariationModel::draw_field(Rng& rng) const {
  if (cfg_.correlated_fraction <= 0.0) return {};
  return CorrelatedField(cfg_.correlation_length_um, kCorrGrid,
                         sigma_correlated_nm(), rng);
}

double VariationModel::systematic_lgate(Point cell_pos_um,
                                        const DieLocation& loc) const {
  const Point f = loc.field_mm(cell_pos_um);
  return field_->lgate_at(f.x, f.y);
}

double VariationModel::sample_lgate(Point cell_pos_um, const DieLocation& loc,
                                    Rng& rng,
                                    const CorrelatedField* field) const {
  return systematic_lgate(cell_pos_um, loc) +
         random_lgate_dev(cell_pos_um, rng, field);
}

double VariationModel::random_lgate_dev(Point cell_pos_um, Rng& rng,
                                        const CorrelatedField* field) const {
  double eps;
  if (field != nullptr && field->active()) {
    eps = field->at(cell_pos_um) + rng.normal(0.0, sigma_independent_nm());
  } else {
    eps = rng.normal(0.0, sigma_rnd_);
  }
  return std::clamp(eps, -cfg_.clamp_sigma * sigma_rnd_,
                    cfg_.clamp_sigma * sigma_rnd_);
}

void VariationModel::random_lgate_devs(Rng& rng, std::span<double> out) const {
  // random_lgate_dev's uncorrelated branch, gate by gate: normal(0, s) is
  // 0.0 + s * normal(), then the same clamp.
  rng.normals_polar(out);
  const double clamp = cfg_.clamp_sigma * sigma_rnd_;
  for (double& x : out) x = std::clamp(0.0 + sigma_rnd_ * x, -clamp, clamp);
}

double VariationModel::leakage_factor(double lgate_nm, int corner) const {
  // Same quotient as CharParams::leakage_factor, with the nominal
  // denominator read from the constructor-time cache.
  return cp_.raw_leakage(lgate_nm, vdd_of_corner(corner)) /
         nominal_raw_leakage_;
}

std::vector<double>& VariationModel::draw_factors(
    const Design& design, const StaEngine& sta, const DieLocation& loc,
    Rng& rng, std::vector<double>& factors) const {
  const std::vector<double> systematic = systematic_lgates(design, loc);
  return draw_factors(design, sta, systematic, rng, factors);
}

std::vector<double> VariationModel::systematic_lgates(
    const Design& design, const DieLocation& loc) const {
  std::vector<double> lgate(design.num_instances());
  for (InstId i = 0; i < design.num_instances(); ++i) {
    const Instance& inst = design.instance(i);
    if (!inst.placed) {
      throw std::logic_error("systematic_lgates: unplaced instance " +
                             inst.name);
    }
    lgate[i] = systematic_lgate(inst.pos, loc);
  }
  return lgate;
}

std::vector<double>& VariationModel::draw_factors(
    const Design& design, const StaEngine& sta,
    std::span<const double> systematic_lgate_nm, Rng& rng,
    std::vector<double>& factors) const {
  return draw_factors(design, sta, systematic_lgate_nm, {}, rng, factors);
}

std::vector<CorrelatedField::Stencil> VariationModel::field_stencils(
    const Design& design) const {
  if (cfg_.correlated_fraction <= 0.0) return {};
  std::vector<CorrelatedField::Stencil> stencils(design.num_instances());
  for (InstId i = 0; i < design.num_instances(); ++i) {
    stencils[i] = CorrelatedField::stencil_at(
        design.instance(i).pos, cfg_.correlation_length_um, kCorrGrid);
  }
  return stencils;
}

std::vector<double>& VariationModel::draw_factors(
    const Design& design, const StaEngine& sta,
    std::span<const double> systematic_lgate_nm,
    std::span<const CorrelatedField::Stencil> stencils, Rng& rng,
    std::vector<double>& factors, std::span<const std::uint8_t> live) const {
  if (systematic_lgate_nm.size() < design.num_instances()) {
    throw std::invalid_argument("draw_factors: short systematic map");
  }
  if (!live.empty() && live.size() < design.num_instances()) {
    throw std::invalid_argument("draw_factors: short live mask");
  }
  factors.resize(design.num_instances());
  const CorrelatedField field = draw_field(rng);
  const bool correlated = field.active();
  const bool use_stencils =
      correlated && stencils.size() >= design.num_instances();
  const double sigma_ind = sigma_independent_nm();
  const double clamp = cfg_.clamp_sigma * sigma_rnd_;
  for (InstId i = 0; i < design.num_instances(); ++i) {
    // Mirrors sample_lgate() draw-for-draw (same RNG consumption, same
    // clamp), with the systematic term read from the precomputed map and
    // the field read through the precomputed stencil when available
    // (at(Stencil) is bit-identical to at(Point)).
    double eps;
    if (correlated) {
      const double fld = use_stencils ? field.at(stencils[i])
                                      : field.at(design.instance(i).pos);
      eps = fld + rng.normal(0.0, sigma_ind);
    } else {
      eps = rng.normal(0.0, sigma_rnd_);
    }
    if (!live.empty() && live[i] == 0) continue;  // drawn, never read
    eps = std::clamp(eps, -clamp, clamp);
    factors[i] = delay_factor(systematic_lgate_nm[i] + eps,
                              sta.inst_corner(i), design.cell_of(i).vth);
  }
  return factors;
}

void VariationModel::factor_bounds(std::span<const std::int32_t> rows,
                                   std::span<const double> systematic_lgate_nm,
                                   std::vector<double>& bounds) const {
  const std::size_t n = rows.size();
  if (systematic_lgate_nm.size() < n) {
    throw std::invalid_argument("factor_bounds: short systematic map");
  }
  // The draws' own clamp expression and Lgate sums: fl(sys + d) is
  // monotone in d, so every drawn Lgate lies in [fl(sys - c), fl(sys + c)]
  // and its factor between the two ends' brackets (DESIGN.md §21, §22).
  // An end the brackets cannot reach, in the table's last or first knot
  // intervals, bounds by its own factors: both the exact and the table
  // factor increase with Lgate, each to within a few ulp, so the smaller
  // (larger) of the two at the end, widened by the brackets' margin,
  // bounds every factor a draw above (below) it can take.
  const double clamp = cfg_.clamp_sigma * sigma_rnd_;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kMargin = DelayFactorTables::kBracketMargin;
  const auto end_bound = [&](int r, double lgate, bool upper) {
    const int j = tables_.bracket_knot(lgate);
    if (j >= 0) {
      const DelayFactorTables::Bracket b = tables_.bracket(r, j);
      return upper ? b.hi : b.lo;
    }
    const double table = tables_.eval_row(tables_.row_data(r), lgate);
    const double exact = delay_factor(lgate, DelayFactorTables::row_corner(r),
                                      DelayFactorTables::row_vth(r));
    return upper ? std::max(table, exact) * (1.0 + kMargin)
                 : std::min(table, exact) * (1.0 - kMargin);
  };
  bounds.resize(2 * n);
  for (std::size_t i = 0; i < n; ++i) {
    const double lo = systematic_lgate_nm[i] + -clamp;
    const double hi = systematic_lgate_nm[i] + clamp;
    if (!(tables_.lo_nm() <= lo && hi <= tables_.hi_nm())) {
      bounds[2 * i] = -kInf;
      bounds[2 * i + 1] = kInf;
      continue;
    }
    bounds[2 * i] = end_bound(rows[i], lo, false);
    bounds[2 * i + 1] = end_bound(rows[i], hi, true);
  }
}

std::vector<VariationModel::PairRun> VariationModel::pair_runs(
    std::span<const std::uint32_t> instances) {
  std::vector<PairRun> runs;
  for (const std::uint32_t i : instances) {
    const std::uint32_t p = i / 2;
    if (!runs.empty() && runs.back().first + runs.back().count > p) continue;
    if (!runs.empty() && runs.back().first + runs.back().count == p) {
      ++runs.back().count;
    } else {
      runs.push_back({p, 1});
    }
  }
  return runs;
}

void VariationModel::draw_factors_batch(
    const Design& design, const StaEngine& sta,
    std::span<const double> systematic_lgate_nm,
    std::span<const CorrelatedField::Stencil> stencils, std::uint64_t seed,
    std::uint64_t first_sample, std::size_t width,
    std::span<double> factor_soa, DrawScratch& scratch,
    bool simd_normals) const {
  if (!simd_normals) {
    throw std::invalid_argument(
        "draw_factors_batch: simd_normals = false selected the retired "
        "Batched draw profile (id 1); only the BatchedSimd stream remains");
  }
  scratch.rows = table_rows(design, sta);
  draw_batch(scratch.rows, systematic_lgate_nm, stencils, seed, first_sample,
             width, factor_soa, scratch);
}

std::vector<std::int32_t> VariationModel::table_rows(
    const Design& design, const StaEngine& sta) const {
  std::vector<std::int32_t> rows(design.num_instances());
  for (InstId i = 0; i < rows.size(); ++i) {
    rows[i] = static_cast<std::int32_t>(
        DelayFactorTables::row(sta.inst_corner(i), design.cell_of(i).vth));
  }
  return rows;
}

void VariationModel::draw_batch(
    std::span<const std::int32_t> rows,
    std::span<const double> systematic_lgate_nm,
    std::span<const CorrelatedField::Stencil> stencils, std::uint64_t seed,
    std::uint64_t first_sample, std::size_t width,
    std::span<double> factor_soa, DrawScratch& scratch,
    std::span<const PairRun> runs) const {
  const std::size_t n = rows.size();
  const bool correlated = cfg_.correlated_fraction > 0.0;
  if (systematic_lgate_nm.size() < n) {
    throw std::invalid_argument("draw_factors_batch: short systematic map");
  }
  if (correlated && stencils.size() < n) {
    throw std::invalid_argument("draw_factors_batch: short stencil span");
  }
  if (factor_soa.size() < n * width) {
    throw std::invalid_argument("draw_factors_batch: short factor buffer");
  }
  if (!runs.empty() && 2 * (std::size_t{runs.back().first} +
                            runs.back().count) > n + 1) {
    throw std::invalid_argument("draw_batch: pair run past the instances");
  }
  const PairRun all{0, static_cast<std::uint32_t>((n + 1) / 2)};
  if (runs.empty()) runs = std::span<const PairRun>(&all, 1);
  // Lane l owns the substream of global sample first_sample + l, so its
  // bits are a function of the sample index alone — never of width or
  // batch boundaries.  A correlated lane draws its field first and passes
  // the field values as the kernel's offset; its keys are the two draws
  // normals_simd() would take after the field.
  scratch.keys.resize(2 * width);
  if (correlated && scratch.offset.size() < n * width) {
    scratch.offset.resize(n * width);
  }
  for (std::size_t lane = 0; lane < width; ++lane) {
    Rng rng(substream_seed(seed, first_sample + lane));
    if (correlated) {
      const CorrelatedField field = CorrelatedField::bulk(
          cfg_.correlation_length_um, kCorrGrid, sigma_correlated_nm(), rng);
      double* col = scratch.offset.data() + lane;  // instance i at i * width
      for (const PairRun& r : runs) {
        const std::size_t end = std::min(n, 2 * std::size_t{r.first + r.count});
        for (std::size_t i = 2 * std::size_t{r.first}; i < end; ++i) {
          col[i * width] = field.at(stencils[i]);
        }
      }
    }
    scratch.keys[2 * lane] = rng.next();
    scratch.keys[2 * lane + 1] = rng.next();
  }
  const simd::Kernels& k = simd::active_kernels();
  const double sigma = correlated ? sigma_independent_nm() : sigma_rnd_;
  const double clamp = cfg_.clamp_sigma * sigma_rnd_;
  for (const PairRun& r : runs) {
    const std::size_t i0 = 2 * std::size_t{r.first};
    const std::size_t count = std::min(n, 2 * std::size_t{r.first + r.count}) - i0;
    k.draw_factors(tables_.kernel_table(), rows.data() + i0,
                   systematic_lgate_nm.data() + i0, scratch.keys.data(),
                   correlated ? scratch.offset.data() + i0 * width : nullptr,
                   sigma, clamp, factor_soa.data() + i0 * width, count, width,
                   r.first);
  }
}

}  // namespace vipvt
