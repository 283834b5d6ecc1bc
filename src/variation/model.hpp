#pragma once
// Per-gate process variation model (paper Eq. 2):
//
//   Lgate(x, y) = f(x, y) + epsilon
//
// with f the systematic across-field polynomial (ExposureField) and
// epsilon an i.i.d. zero-mean Gaussian with 3*sigma/mu = 6.5 % (random
// component); total budget 3*sigma_tot/mu = 9 % per the ITRS-derived
// 65 nm control limits.  The Lgate sample maps to a per-gate delay
// multiplier through the alpha-power law with DIBL (Eqs. 3-4), evaluated
// at the supply voltage of the gate's island.

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "liberty/physics.hpp"
#include "netlist/design.hpp"
#include "timing/sta.hpp"
#include "util/aligned.hpp"
#include "util/rng.hpp"
#include "variation/field.hpp"
#include "variation/tables.hpp"

namespace vipvt {

/// VariationModel's constructor rejects (std::invalid_argument) a
/// non-finite or negative three_sigma_random_frac, a non-finite or
/// non-positive clamp_sigma, a correlated_fraction outside [0, 1], and a
/// non-positive correlation_length_um when correlated_fraction > 0.
struct VariationConfig {
  double three_sigma_random_frac = 0.065;
  // Lgate samples are clamped to +/- clamp_sigma random deviations to
  // keep the alpha-power law in its valid overdrive range.
  double clamp_sigma = 4.5;
  /// Fraction of the random VARIANCE that is spatially correlated
  /// within the die (0 = the paper's i.i.d. model; > 0 follows the
  /// grid-correlated within-die models of Chang/Sapatnekar and
  /// Friedberg et al. from the paper's related work).
  double correlated_fraction = 0.0;
  /// Correlation length of the within-die component [um].
  double correlation_length_um = 150.0;
};

/// One Monte-Carlo draw of the spatially-correlated within-die component:
/// a Gaussian grid, bilinearly interpolated at cell positions.
class CorrelatedField {
 public:
  CorrelatedField() = default;  ///< inactive (i.i.d. model)
  CorrelatedField(double pitch_um, int grid, double sigma_nm, Rng& rng);

  /// Counter-driven bulk draw of the node grid (Rng::normals_simd instead
  /// of per-node polar normals) — the BatchedSimd profile's field source.
  static CorrelatedField bulk(double pitch_um, int grid, double sigma_nm,
                              Rng& rng);

  bool active() const { return !values_.empty(); }

  /// Precomputed bilinear interpolation site for a fixed cell position:
  /// node indices, raw weights and the sqrt weight normalization of
  /// at(Point), hoisted out of the per-gate draw loop.  Positions are
  /// sample-invariant — only node values change between draws — so a
  /// Monte-Carlo run computes stencils once and reuses them for every
  /// sample (VariationModel::field_stencils).
  struct Stencil {
    std::uint32_t idx[4]{};
    double w[4]{};
    double norm = 1.0;
  };
  static Stencil stencil_at(Point pos_um, double pitch_um, int grid);

  /// Correlated Lgate deviation [nm] at a core-local position [um].
  double at(Point pos_um) const;

  /// Stencil evaluation.  Evaluates exactly the expression at(Point)
  /// evaluates, in the same order, so the hoisted path is bit-identical
  /// to the direct one.
  double at(const Stencil& s) const {
    if (!active()) return 0.0;
    const double interp = values_[s.idx[0]] * s.w[0] +
                          values_[s.idx[1]] * s.w[1] +
                          values_[s.idx[2]] * s.w[2] +
                          values_[s.idx[3]] * s.w[3];
    return interp / s.norm;
  }

 private:
  double pitch_um_ = 1.0;
  int grid_ = 0;
  std::vector<double> values_;  // (grid+1)^2 node values
};

class VariationModel {
 public:
  VariationModel(const CharParams& cp, const ExposureField& field,
                 const VariationConfig& cfg = {});

  const ExposureField& field() const { return *field_; }
  const CharParams& char_params() const { return cp_; }
  const VariationConfig& config() const { return cfg_; }
  double sigma_random_nm() const { return sigma_rnd_; }

  /// Systematic Lgate [nm] for a cell of a core at `loc`.
  double systematic_lgate(Point cell_pos_um, const DieLocation& loc) const;

  /// Draw one Lgate sample (systematic + random) for a cell.  When a
  /// correlated field is supplied (and configured), the random part is
  /// split between the shared field and an independent residual.
  double sample_lgate(Point cell_pos_um, const DieLocation& loc, Rng& rng,
                      const CorrelatedField* field = nullptr) const;

  /// The random half of sample_lgate(): the clamped deviation [nm] it
  /// adds to the systematic Lgate, drawing exactly what it draws.  Lets a
  /// caller holding a precomputed systematic map (systematic_lgates)
  /// reproduce sample_lgate() bit for bit as map[i] + random_lgate_dev().
  double random_lgate_dev(Point cell_pos_um, Rng& rng,
                          const CorrelatedField* field = nullptr) const;

  /// random_lgate_dev() without a correlated field, for out.size() gates
  /// at once: out[i] is bit-identical to the i-th of out.size() successive
  /// random_lgate_dev(pos, rng) calls, and rng ends where they leave it
  /// (the normals come from Rng::normals_polar).
  void random_lgate_devs(Rng& rng, std::span<double> out) const;

  /// Draw the per-sample correlated within-die component (inactive field
  /// when correlated_fraction == 0).
  CorrelatedField draw_field(Rng& rng) const;

  /// Standard deviations of the split [nm].
  double sigma_correlated_nm() const;
  double sigma_independent_nm() const;

  /// Delay multiplier for a gate with this Lgate at the given supply
  /// corner, relative to nominal Lgate at that same corner and Vth class.
  /// Relative to the *same* corner/class so it composes with StaEngine
  /// base delays, which already include corner and class scaling.
  double delay_factor(double lgate_nm, int corner,
                      VthClass vth = VthClass::Svt) const {
    return delay_factor(cp_.lgate_terms(lgate_nm), corner, vth);
  }
  /// Same factor from the gate's precomputed Lgate terms
  /// (CharParams::lgate_terms): bit-identical to the overload above, with
  /// one pow() instead of two plus an exp().  Both are inline so the
  /// per-gate Monte-Carlo loops keep the terms in registers.
  double delay_factor(const CharParams::LgateTerms& t, int corner,
                      VthClass vth) const {
    // Same quotient as CharParams::delay_factor, with the nominal
    // denominator read from the constructor-time cache.
    const std::size_t c = corner == kVddHigh ? 1 : 0;
    return cp_.raw_delay(t, vdd_of_corner(corner), cp_.vth0_of(vth)) /
           nominal_raw_delay_[c][static_cast<std::size_t>(vth)];
  }

  /// Leakage multiplier at the given corner, relative to nominal Lgate
  /// at the low corner (absolute corner effect included: the power
  /// engine applies this directly on low-Vdd reference leakage).
  double leakage_factor(double lgate_nm, int corner) const;

  double vdd_of_corner(int corner) const {
    return corner == kVddHigh ? cp_.vdd_high : cp_.vdd_low;
  }

  /// Fill `factors` (size = instances) with one Monte-Carlo draw for the
  /// whole design; corners per instance come from the STA engine's last
  /// compute_base().  Returns the same vector by reference for chaining.
  std::vector<double>& draw_factors(const Design& design, const StaEngine& sta,
                                    const DieLocation& loc, Rng& rng,
                                    std::vector<double>& factors) const;

  /// The sample-invariant half of a draw: the systematic exposure-field
  /// polynomial evaluated at every placed instance of a core at `loc`.
  /// Monte-Carlo runs evaluate this once per (die, location) and then
  /// draw thousands of samples against it; re-evaluating it per sample
  /// (what the DieLocation draw_factors overload does) is pure waste —
  /// it costs five multiplies and a clamp per gate per sample.
  std::vector<double> systematic_lgates(const Design& design,
                                        const DieLocation& loc) const;

  /// Hot-path draw against a precomputed systematic map (one entry per
  /// instance, from systematic_lgates()).  Consumes the same RNG stream
  /// and produces bit-identical factors to the DieLocation overload.
  std::vector<double>& draw_factors(const Design& design, const StaEngine& sta,
                                    std::span<const double> systematic_lgate_nm,
                                    Rng& rng,
                                    std::vector<double>& factors) const;

  /// Node-grid resolution of the within-die correlated field: 24 pitches
  /// of one correlation length cover dies up to ~24 correlation lengths
  /// across; larger positions clamp to the edge.
  static constexpr int kCorrGrid = 24;

  /// Per-(corner, Vth class) delay-factor interpolation tables over the
  /// reachable Lgate range (systematic field extremes +/- the random
  /// clamp), built once at construction.  The batched draw profile reads
  /// factors from these instead of evaluating the alpha-power quotient
  /// per gate per sample; max_rel_error() is the measured bound.
  const DelayFactorTables& delay_factor_tables() const { return tables_; }

  /// Sample-invariant correlated-field stencils for every placed instance
  /// (empty when correlated_fraction == 0).  Hoists CorrelatedField::at's
  /// index/weight/sqrt work out of the per-gate per-sample loop.
  std::vector<CorrelatedField::Stencil> field_stencils(
      const Design& design) const;

  /// Scalar draw with precomputed stencils: bit-identical to the span
  /// overload above (which delegates here with an empty stencil span and
  /// falls back to direct at(Point) evaluation).  A non-empty `live` (one
  /// flag per instance) skips the delay_factor of every instance whose
  /// flag is 0 and leaves its factors[i] as it was; the RNG draws stay
  /// the same, so the live factors keep their bits (DESIGN.md §22).
  std::vector<double>& draw_factors(
      const Design& design, const StaEngine& sta,
      std::span<const double> systematic_lgate_nm,
      std::span<const CorrelatedField::Stencil> stencils, Rng& rng,
      std::vector<double>& factors,
      std::span<const std::uint8_t> live = {}) const;

  /// Bounds on every delay factor a clamped draw can produce against
  /// `systematic_lgate_nm` under the table rows `rows` (DESIGN.md §22):
  /// bounds[2i] = bracket(rows[i], knot(sys - clamp)).lo and bounds[2i + 1]
  /// = bracket(rows[i], knot(sys + clamp)).hi.  Both profiles clamp every
  /// random deviation to +/- clamp_sigma * sigma_rnd and the factor is
  /// increasing in Lgate, so the exact (Scalar) factor and the table
  /// (BatchedSimd) factor both lie inside.  An end inside the table but
  /// too near its edge to bracket bounds by the smaller (lower end) or
  /// larger (upper end) of the table and exact factors at that end,
  /// widened by DelayFactorTables::kBracketMargin.  An instance with an
  /// end outside the table, or NaN, gets [-inf, +inf].
  void factor_bounds(std::span<const std::int32_t> rows,
                     std::span<const double> systematic_lgate_nm,
                     std::vector<double>& bounds) const;

  /// A run of consecutive Box–Muller pairs (pair p draws instances 2p and
  /// 2p + 1) for a pruned batched draw.
  struct PairRun {
    std::uint32_t first = 0;
    std::uint32_t count = 0;
  };
  /// The pair runs that cover `instances` (ascending instance ids).
  static std::vector<PairRun> pair_runs(
      std::span<const std::uint32_t> instances);

  /// Reusable buffers of the batched draw, kept across batches by the
  /// caller (a Monte-Carlo run keeps them in its McWorkspace) to avoid
  /// per-batch allocation: keys holds each lane's two counter keys;
  /// offset holds the correlated lanes' field values, instance-major
  /// [instances x width] like the factors, 64-byte aligned
  /// (util/aligned.hpp); rows caches the per-instance table row of
  /// draw_factors_batch.
  struct DrawScratch {
    std::vector<std::uint64_t> keys;
    AlignedVec<double> offset;
    std::vector<std::int32_t> rows;
  };

  /// BatchedSimd draw profile: fill `factor_soa` — instance-major,
  /// factor_soa[i * width + lane] — with `width` independent whole-design
  /// draws in one pass.  Lane `l` owns the RNG substream of global sample
  /// first_sample + l (substream_seed, same keying as the scalar path),
  /// draws its normals through the counter-keyed Box–Muller stream of
  /// Rng::normals_simd (the arch-invariant stream of DESIGN.md §17) and
  /// maps Lgate to delay factor through the interpolation tables.  Every
  /// lane's bits are a function of (seed, global sample index) alone —
  /// never of width or batch boundaries — which is the profile's
  /// determinism contract.
  /// NOTE: this is a different (statistically equivalent) stream than the
  /// scalar path's polar normals; the two profiles do not produce
  /// bit-identical samples by design.  Equivalent to table_rows() into
  /// scratch.rows, then draw_batch().
  ///
  /// `simd_normals` must be true: false selected the retired libm
  /// Batched stream and now throws std::invalid_argument.
  void draw_factors_batch(const Design& design, const StaEngine& sta,
                          std::span<const double> systematic_lgate_nm,
                          std::span<const CorrelatedField::Stencil> stencils,
                          std::uint64_t seed, std::uint64_t first_sample,
                          std::size_t width, std::span<double> factor_soa,
                          DrawScratch& scratch,
                          bool simd_normals = true) const;

  /// The table row (DelayFactorTables::row) of every instance under the
  /// engine's current corners: sample-invariant, so a Monte-Carlo run
  /// builds it once, not once per batch (DESIGN.md §11).
  std::vector<std::int32_t> table_rows(const Design& design,
                                       const StaEngine& sta) const;

  /// The batched draw for rows.size() instances against precomputed
  /// table rows: one fused dispatched kernel (DESIGN.md §11, §17) takes
  /// each lane's counter keys to delay factors.  Lane l's instance i is
  /// bit-identical to the two-phase computation: z = element i of the
  /// lane generator's normals_simd() — after CorrelatedField::bulk() when
  /// correlated_fraction > 0 — then d = std::clamp(sigma_rnd * z) (or
  /// std::clamp(field.at(stencils[i]) + sigma_independent * z)), then
  /// DelayFactorTables::eval_row(rows[i], systematic[i] + d).
  /// A non-empty `runs` draws only those pairs' instances (DESIGN.md
  /// §22): counter keying makes each the same bits as in a full draw, and
  /// the other factor_soa rows are left as they were.
  void draw_batch(std::span<const std::int32_t> rows,
                  std::span<const double> systematic_lgate_nm,
                  std::span<const CorrelatedField::Stencil> stencils,
                  std::uint64_t seed, std::uint64_t first_sample,
                  std::size_t width, std::span<double> factor_soa,
                  DrawScratch& scratch,
                  std::span<const PairRun> runs = {}) const;

 private:
  CharParams cp_;
  const ExposureField* field_;
  VariationConfig cfg_;
  double sigma_rnd_;  // nm
  /// raw_delay at nominal Lgate per (corner, Vth class): the
  /// denominator of every delay_factor(), hoisted out of the per-gate
  /// per-sample loop (it halves the pow() count of a Monte-Carlo draw;
  /// the quotient is bitwise unchanged since the operands are).
  std::array<std::array<double, kNumVthClasses>, 2> nominal_raw_delay_{};
  /// raw_leakage at nominal Lgate and the low supply: the constant
  /// denominator of every leakage_factor(), hoisted the same way (one
  /// exp() per call instead of two; the quotient is bitwise unchanged).
  double nominal_raw_leakage_;
  DelayFactorTables tables_;
};

}  // namespace vipvt
