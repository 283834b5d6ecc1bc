#pragma once
// Stage-level timing macromodels — the hierarchical STA tier (DESIGN.md
// §19).  Each pipeline stage is characterized ONCE per (netlist, corner
// state, sigma model) into a compact interface model: the canonical form
// of the stage's worst (arrival + setup) — the same linearization the
// flat canonical engine (ssta/canonical.hpp, DESIGN.md §16) propagates —
// tabulated over the systematic-field die basis.  Per-die evaluation
// then interpolates the tabulated forms instead of propagating the full
// gate graph: O(knots + stages) per die against O(edges) for a flat
// canonical pass.
//
// The die basis.  The exposure-field deviation is an exact quadratic
// P(x, y) over field position, so for a die whose core sits at field
// origin o, every instance's fractional deviation decomposes EXACTLY as
//
//   dev_i = B0 + B1 * px_i + B2 * py_i + q_i
//
// with px/py the core-local instance position [mm], q_i = a px^2 +
// b py^2 + e px py the die-INDEPENDENT curvature residual (quadratic
// coefficients are shift-invariant), and (B0, B1, B2) = (P(o), dP/dx(o),
// dP/dy(o)) the only die-dependent scalars.  Characterization sweeps B0
// knots across the field's deviation range (the dominant axis — the die
// offset) and takes central differences in B1/B2 (the within-die
// gradient, small because the core is ~100 um in a 28 mm field);
// evaluation recovers (B0, B1, B2) from a die's systematic map by an
// exact precomputed least-squares fit and interpolates.
//
// min_period is NOT accumulated endpoint-by-endpoint like the flat pass:
// it is derived by Clark-merging the stored per-stage forms in stage
// order, so it is a pure function of the stage rows.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "netlist/design.hpp"
#include "ssta/canonical.hpp"
#include "timing/sta.hpp"
#include "variation/model.hpp"

namespace vipvt {

/// Shape knobs of a stage macromodel characterization.  Part of the
/// macro-tier cache key: two libraries characterized from the same
/// (netlist, corner state, sigma model) with equal MacroConfig are
/// bit-identical (fingerprint()).
struct MacroConfig {
  /// Sample points along the B0 (die offset) axis, spanning
  /// [-max_dev_frac, +max_dev_frac].  Piecewise-linear in between.
  int knots = 9;
  /// Central-difference step for the B1/B2 gradient sensitivities
  /// [fractional deviation per mm].
  double grad_step = 0.0025;
};

/// Per-stage canonical interface models for one (netlist, corner state,
/// sigma model), characterized from a StaEngine's current base delays.
/// A library never changes after construction: another corner state or
/// MacroConfig is another library (YieldAnalyzer::macro_library).
class StageMacroLibrary {
 public:
  /// Characterizes once, at `sta`'s current corner state.  Throws
  /// std::invalid_argument for knots < 2 or a grad_step that is not a
  /// finite positive number.
  StageMacroLibrary(const Design& design, const StaEngine& sta,
                    const VariationModel& model, const MacroConfig& cfg = {});

  /// Evaluates the macromodel for one die's systematic map (same span as
  /// CanonicalSsta::run).  No graph propagation — basis fit plus knot
  /// interpolation.
  CanonicalResult evaluate(std::span<const double> systematic_lgate_nm) const;

  const MacroConfig& config() const { return cfg_; }

  /// Hexfloat dump of every stored row (plus knots and fit matrix):
  /// bit-equality of two libraries' fingerprints is the characterization
  /// determinism contract tests and bench gates compare.
  std::string fingerprint() const;

  /// Characterization passes run (5 basis variants x knots).
  std::uint64_t passes() const { return passes_; }

 private:
  // One canonical accumulator form: worst (arrival + setup) of a stage,
  // mean + independent variance + correlated-global sensitivities.
  struct Form {
    double mean = 0.0;
    double var_ind = 0.0;
    bool present = false;
    std::vector<double> sens;  // num_globals_, empty when iid
  };

  // Basis variants per knot: center, +/- grad_step in B1, +/- in B2.
  static constexpr int kVariants = 5;
  static constexpr std::size_t kAccs = kNumPipeStages + 1;  // last = min_period

  std::size_t form_index(int variant, int knot, std::size_t acc) const {
    return (static_cast<std::size_t>(variant) * knot_b0_.size() +
            static_cast<std::size_t>(knot)) *
               kAccs +
           acc;
  }

  void read_engine_state(const StaEngine& sta);
  void build_cones();
  // Propagates one (variant, knot) pass over the edges inside some
  // stage's fan-in cone, storing that pass's stage forms.
  void run_pass(int variant, int knot);
  void derive_min_period();
  std::vector<double> variant_map(int variant, int knot) const;

  const Design* design_;
  const VariationModel* model_;
  MacroConfig cfg_;
  double clock_ns_ = 0.0;

  // Structural graph copy (edge order = analyze()'s relaxation order)
  // with the engine's per-edge base delays.
  struct Edge {
    std::uint32_t from = 0;
    std::uint32_t to = 0;
    InstId inst = kInvalidInst;
    double base = 0.0;
    std::uint8_t mask = 0;  // stage-cone membership bits
  };
  std::vector<Edge> edges_;
  std::vector<std::uint32_t> launch_nodes_;
  std::vector<InstId> launch_insts_;
  std::vector<double> launch_bases_;
  std::vector<std::uint8_t> launch_mask_;
  struct End {
    std::uint32_t node = 0;
    std::uint8_t stage = 0;
    double setup = 0.0;
  };
  std::vector<End> endpoints_;
  std::size_t num_nodes_ = 0;

  // Die-basis loadings: core-local positions [mm], curvature residual
  // q_i, knot offsets, and the precomputed 3x3 least-squares solve.
  std::vector<double> pos_x_mm_, pos_y_mm_, curv_q_;
  std::vector<double> knot_b0_;
  double fit_inv_[3][3] = {};
  bool fit_has_gradient_ = false;

  // Per-instance corner/Vth table rows at the current corner state and
  // the per-pass linearization scratch.
  std::vector<std::int32_t> inst_row_;
  mutable std::vector<double> inst_value_, inst_slope_;
  mutable std::vector<double> mean_, var_ind_, sens_, cand_sens_;

  // Correlated within-die globals, dense-remapped as in CanonicalSsta.
  std::vector<CorrelatedField::Stencil> stencils_;
  std::size_t num_globals_ = 0;

  std::vector<Form> forms_;  // [variant][knot][acc]
  std::uint64_t passes_ = 0;
};

}  // namespace vipvt
