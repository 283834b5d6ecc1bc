#pragma once
// Monte-Carlo statistical static timing analysis: the design-time
// pre-characterization engine of the methodology.  For each sample it
// draws a per-gate Lgate map (systematic + random), converts it to delay
// multipliers, and re-runs the annotated STA — the in-code equivalent of
// the paper's "parse the SDF, perturb gate delays, re-import into
// PrimeTime" loop.  Outputs: per-pipeline-stage critical-path slack
// distributions (fitted to normals with a chi-squared test, as in
// Fig. 3), per-endpoint criticality statistics (for Razor sensor
// planning), and the max-delay distribution.

#include <array>
#include <cstdint>
#include <vector>

#include "util/stats.hpp"
#include "variation/model.hpp"

namespace vipvt {

/// Versioned draw profiles.  A profile fixes the exact bit-stream of the
/// per-sample factor draw; results are comparable across machines and
/// releases only within a profile.  Ids are stable: id 1 (the libm
/// "Batched" profile) is retired, and MonteCarloSsta::run rejects it, like
/// any id it does not know, with std::invalid_argument rather than run
/// another stream in its place (DESIGN.md §17).
enum class DrawProfile : int {
  /// The seed path: per-gate polar normals + exact alpha-power quotient
  /// per gate per sample.  Stays bit-identical to the original
  /// implementation forever — the reproducibility anchor.
  Scalar = 0,
  /// The vectorized engine: counter-driven Box-Muller bulk normals whose
  /// log/sin/cos run through the SIMD kernel layer's own vector math
  /// (Rng::normals_simd, DESIGN.md §17) + delay-factor interpolation
  /// tables (VariationModel::draw_factors_batch), writing the propagation
  /// kernel's SoA layout directly.  Its own determinism contract:
  /// bit-identical for any batch width, but a DIFFERENT (statistically
  /// equivalent) stream than Scalar.  Its NORMAL STREAM is identical
  /// across ISAs, compilers and build flags, because every dispatch
  /// target instantiates the same kernel body with FMA contraction
  /// disabled.  Its McResult is not: the factor-table knots (pow) still
  /// come from the host libm, whose FMA and non-FMA builds differ in the
  /// last bit on some inputs.
  BatchedSimd = 2,
};

/// Opt-in adaptive sequential sampling (DESIGN.md §14): instead of a
/// fixed sample budget, the engine draws in deterministic rounds of
/// `check_every_batches` whole batches and stops once EVERY present
/// pipeline stage's fitted moments are pinned down — the Student-t CI
/// half-width on µ and the χ²-interval half-width on σ (src/util/stats)
/// both at or below their targets at `confidence`.  Because sample k's
/// randomness derives from substream_seed(seed, k) alone, an adaptive
/// run that stops at N samples is BIT-IDENTICAL (on every sampling-
/// derived McResult field) to a fixed run with samples = N.  The stopping
/// N itself is a pure function of (seed, policy, batch width) — round
/// boundaries land on whole batches, so the batch width quantizes the
/// checkpoint grid.
struct AdaptivePolicy {
  bool enabled = false;
  /// Target CI half-width on each present stage's fitted mean [ns].
  double mean_half_width_ns = 2e-3;
  /// Target CI half-width on each present stage's fitted stddev [ns].
  double sigma_half_width_ns = 2e-3;
  /// Confidence level of both intervals (µ via Student-t, σ via χ²).
  double confidence = 0.95;
  /// Never stop before this many samples, even if converged …
  int min_samples = 64;
  /// … and always stop here (replaces McConfig::samples as the budget).
  int max_samples = 4096;
  /// Convergence-check cadence, in whole batches per round.
  int check_every_batches = 4;
};

struct McConfig {
  int samples = 500;  ///< fixed budget; ignored when adaptive.enabled
  std::uint64_t seed = 0x55aa55aa;
  double confidence = 0.95;  ///< for the normality test
  /// Samples propagated per pass of the batched kernel over the run's
  /// timing cone (StaEngine::analyze_batch / analyze_batch_soa; width 1
  /// runs one lane through it).  Any width yields a bit-identical
  /// McResult — the batch is a pure layout optimization (asserted in
  /// tests/test_variation.cpp).
  int batch = 8;
  /// Which draw engine generates the factors (see DrawProfile).  The
  /// default keeps every existing caller bit-identical to seed.
  DrawProfile profile = DrawProfile::Scalar;
  /// Opt-in sequential sampling; disabled keeps the fixed-budget path
  /// byte-for-byte unchanged (DESIGN.md §14).
  AdaptivePolicy adaptive{};
};

/// Distribution of one pipeline stage's worst slack across MC samples.
struct StageSlackDist {
  PipeStage stage = PipeStage::Other;
  bool present = false;          ///< stage has endpoints
  NormalFit fit;                 ///< fitted normal over slack samples
  double min_slack = 0.0;
  double max_slack = 0.0;
  std::vector<double> samples;   ///< raw slack samples [ns]

  /// Paper's violation criterion: the 3-sigma point of the slack
  /// distribution is negative.
  double three_sigma_slack() const { return fit.mean - 3.0 * fit.stddev; }
  bool violates() const { return present && three_sigma_slack() < 0.0; }
};

/// Why a Monte-Carlo run ended (DESIGN.md §14).
enum class McStop : std::uint8_t {
  FixedBudget = 0,  ///< ran the fixed cfg.samples budget (adaptive off)
  Converged,        ///< every present stage met both CI targets
  MaxSamples,       ///< hit AdaptivePolicy::max_samples unconverged
};
const char* mc_stop_name(McStop reason);

/// One adaptive round's convergence snapshot: the worst (largest) CI
/// half-widths across present stages after `samples` total draws.
struct McRound {
  int samples = 0;
  double worst_mean_half_width_ns = 0.0;
  double worst_sigma_half_width_ns = 0.0;
  bool converged = false;  ///< both targets met by every present stage
};

struct McResult {
  std::array<StageSlackDist, kNumPipeStages> stages;
  std::vector<double> endpoint_crit_prob;  ///< P(endpoint slack < 0)
  std::vector<std::uint32_t> endpoint_stage_crit;  ///< times it set stage WNS
  std::vector<double> min_period_samples;  ///< achievable Tclk per sample
  int samples = 0;  ///< samples actually drawn (the stopping N if adaptive)
  /// Stopping metadata.  Mode-specific BY DEFINITION: an adaptive run and
  /// its equivalent fixed run agree on every sampling-derived field above
  /// but differ here (Converged/MaxSamples + history vs FixedBudget).
  McStop stopping_reason = McStop::FixedBudget;
  std::vector<McRound> convergence;  ///< per-round history (adaptive only)

  const StageSlackDist& stage(PipeStage s) const {
    return stages[static_cast<std::size_t>(s)];
  }
  /// Worst (most negative) 3-sigma slack across violating stages.
  double worst_three_sigma_slack() const;
  /// Number of violating stages among DC/EX/WB (the scenario severity).
  int num_violating_stages() const;
};

/// Every buffer a Monte-Carlo run reuses from batch to batch — Scalar
/// factor lanes, draw scratch, per-lane results and per-endpoint tallies
/// — kept by a caller that runs many runs in a row (each wafer worker
/// keeps one), so no run reallocates them (DESIGN.md §22).  The
/// BatchedSimd SoA factor arena is not among them: each run allocates its
/// own, because a long-lived one fragments the allocator's per-thread
/// heaps (measured: +6 MB peak RSS on a four-thread wafer run).
struct McWorkspace {
  std::vector<std::vector<double>> factors;  ///< Scalar profile lanes
  VariationModel::DrawScratch scratch;
  std::vector<StaResult> results;
  std::vector<std::uint32_t> crit;        ///< samples with slack < 0
  std::vector<std::uint32_t> stage_crit;  ///< samples setting stage WNS
};

class MonteCarloSsta {
 public:
  /// Sampling never mutates the engine (analyze() is const apart from
  /// its per-engine scratchpad, which every run and a run's cone write),
  /// so a const reference suffices.  NOTE: the scratchpad means two
  /// threads must not sample through the SAME engine concurrently — give
  /// each worker its own copy (StaEngine is cheaply copyable precisely
  /// for this).
  MonteCarloSsta(const Design& design, const StaEngine& sta,
                 const VariationModel& model);

  /// Runs `cfg.samples` draws for a core at `loc`.  The STA engine's
  /// current base delays (supply corners) are used as-is — call
  /// StaEngine::compute_base first when analyzing an island configuration.
  ///
  /// The run is one serial loop on this engine; parallelism belongs to
  /// the callers, one die per worker (DESIGN.md §9).  Sample k's
  /// randomness derives from substream_seed(cfg.seed, k) — a function of
  /// the sample index alone — so the result is BIT-IDENTICAL for any
  /// batch width.  Samples are drawn against a per-run precomputed
  /// systematic-Lgate map and propagated `cfg.batch` lanes at a time
  /// through the batched kernel over the run's timing cone (DESIGN.md
  /// §22), a width of 1 included.
  ///
  /// With cfg.adaptive.enabled the budget becomes sequential: rounds of
  /// whole batches are drawn until the per-stage CI targets are met
  /// (DESIGN.md §14), and the result is bit-identical to a fixed run
  /// with samples = the stopping N.  Throws std::invalid_argument for a
  /// degenerate policy (min/max/cadence < 1, max < min, confidence
  /// outside (0,1)) and for a draw profile other than Scalar or
  /// BatchedSimd.
  McResult run(const DieLocation& loc, const McConfig& cfg) const;

  /// Same run against a caller-provided systematic Lgate map (one entry
  /// per instance, from VariationModel::systematic_lgates).  This is the
  /// wafer path: all dies in a reticle slot share the map, so the
  /// YieldAnalyzer computes it once per slot instead of once per die.
  /// Bit-identical to run(loc, ...) when the map equals the one loc
  /// would produce.  Throws std::invalid_argument for a map shorter than
  /// the design's instance count, whatever the budget.
  ///
  /// Every run draws, propagates and tallies only the timing cone of its
  /// systematic map (DESIGN.md §22): `cone` when given — it must be
  /// cone(systematic) on an engine with this engine's bases and clock —
  /// else one built here.  The run samples on the engine itself, whose
  /// scratch it writes (no other thread may use the engine meanwhile),
  /// through `ws` when given: a caller running many runs in a row (a
  /// wafer worker) keeps its buffers there.  No McResult bit depends on
  /// the cone or the workspace.
  McResult run_with_systematic(std::span<const double> systematic,
                               const McConfig& cfg,
                               const TimingCone* cone = nullptr,
                               McWorkspace* ws = nullptr) const;

  /// The timing cone of `systematic` under the engine's current bases
  /// and clock: StaEngine::build_cone over VariationModel::factor_bounds
  /// (DESIGN.md §22).  Writes the engine's scratch.
  TimingCone cone(std::span<const double> systematic) const;

 private:
  const Design* design_;
  const StaEngine* sta_;
  const VariationModel* model_;
};

}  // namespace vipvt
