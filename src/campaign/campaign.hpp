#pragma once
// Wafer-campaign runtime: from one fast deterministic wafer to FLEETS of
// them.  A campaign is a declarative parameter sweep — netlist variants
// × wafer geometries × variation-sigma scales × compensation-policy
// mixes × per-die MC budgets, each cell fabricated as `wafers_per_cell`
// virtual wafers — expanded into per-wafer-shard jobs and scheduled onto
// the existing deterministic ThreadPool (DESIGN.md §15).  This is the
// experimental regime of the related work (policy portfolios compared
// across many MC campaigns: Neiroukh & Song arXiv:0710.4713, Zhang et
// al. arXiv:1705.04990) run at "virtual fab" scale.
//
// The three contracts, in order of importance:
//
//  1. *Determinism one level up.*  Every die's random stream derives
//     from (campaign seed, cell index, wafer index, die id) through
//     nested splitmix64 substreams — never from the schedule.  Shard
//     results reduce through partition-invariant accumulators
//     (YieldAggregate: exact integer tallies + ExactMoments), so the
//     final CampaignReport is BIT-identical for any shard size and any
//     thread count, and its serialized form byte-identical (hard-gated
//     in bench/campaign_sweep and CI).
//
//  2. *Streaming, O(1) in dies.*  A shard worker folds each die into
//     its aggregate and discards the outcome; completed shard records
//     are appended to an NDJSON stream in job order (consumers can
//     `tail -f` a running campaign).  Live state is bounded by the
//     out-of-order reorder window (~pool size), never by die count.
//
//  3. *Checkpoint == stream.*  The NDJSON stream carries the exact
//     reducer state of every completed shard (bit-pattern doubles,
//     128-bit integer sums), so resuming after a kill replays the
//     stream's complete-record prefix and re-runs only the remaining
//     jobs — a resumed campaign's report AND stream are byte-identical
//     to an uninterrupted run's.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "yield/wafer.hpp"
#include "yield/yield.hpp"

namespace vipvt {

class Flow;

// PolicyMix — the compensation-policy axis value — moved to
// vi/policy.hpp (pulled in through yield/yield.hpp) when it grew the
// design-side sizing/buffering knobs of the portfolio (DESIGN.md §18).
// The campaign compiles each (variant, mix) pair once via
// compile_policy_mix and runs every wafer of that cell on the compiled
// netlist.

/// Declarative sweep specification.  The cell grid is the cartesian
/// product of the five axes, in fixed nesting order (outermost first):
/// variant, wafer_grid, sigma_scale, policy, mc_samples — cell indices
/// are dense in that order and independent of sharding/threads, which
/// makes them stable keys for seeds, reports and checkpoints.
struct CampaignSpec {
  /// Netlist-variant axis: names registered with
  /// CampaignRunner::add_variant.  Empty = all registered variants, in
  /// registration order.
  std::vector<std::string> variants;
  /// Wafer-geometry axis (diameter / field / die size per cell).
  std::vector<WaferConfig> wafer_grids{WaferConfig{}};
  /// Variation-severity axis: scales the variant model's
  /// three_sigma_random_frac (1.0 = the characterized process).
  std::vector<double> sigma_scales{1.0};
  /// Compensation-policy axis.
  std::vector<PolicyMix> policies{PolicyMix{}};
  /// Per-die MC sampling axis: the fixed per-die budget, or — when
  /// base.mc.adaptive.enabled — the adaptive max_samples cap.
  std::vector<int> mc_samples{48};
  /// Virtual wafers fabricated per cell (distinct wafer seeds).
  int wafers_per_cell = 1;
  /// Dies per shard job.  Pure scheduling granularity: ANY value yields
  /// the identical campaign report (the determinism contract); it only
  /// trades scheduling overhead against load balance and checkpoint
  /// resolution.
  int shard_dies = 64;
  std::uint64_t seed = 0xca4fa167'5eed0001ULL;
  /// Template for each cell's YieldConfig: mc.samples (or adaptive cap),
  /// allow_escalation / allow_chip_wide_fallback and seed are overridden
  /// per cell/wafer; everything else (draw profile, batch width,
  /// adaptive CI targets, speed percentile, ...) is taken from here.
  YieldConfig base{};
};

/// Substream seeding tree (the checkpoint/resume backbone): the die
/// stream of die d on wafer w of cell c is a pure function of
/// (campaign seed, c, w, d) — resuming a campaign re-derives identical
/// streams for the remaining jobs regardless of what already ran.
constexpr std::uint64_t campaign_wafer_seed(std::uint64_t campaign_seed,
                                            std::uint64_t cell,
                                            std::uint64_t wafer) noexcept {
  return substream_seed(substream_seed(campaign_seed, cell), wafer);
}

/// The per-die RNG seed the wafer path derives internally
/// (YieldAnalyzer::analyze_die_with seeds Rng{substream_seed(cfg.seed,
/// die_id)} with cfg.seed = campaign_wafer_seed(...)).  Exposed so the
/// cross-wafer decorrelation property is testable against the REAL
/// seeding path (tests/test_util_rng.cpp).
constexpr std::uint64_t campaign_die_seed(std::uint64_t campaign_seed,
                                          std::uint64_t cell,
                                          std::uint64_t wafer,
                                          std::uint64_t die) noexcept {
  return substream_seed(campaign_wafer_seed(campaign_seed, cell, wafer), die);
}

/// One expanded cell of the sweep grid.
struct CampaignCell {
  std::uint32_t index = 0;  ///< dense cell id (seeding/report key)
  // Axis indices into the spec vectors.
  std::uint32_t variant = 0;
  std::uint32_t wafer_grid = 0;
  std::uint32_t sigma = 0;
  std::uint32_t policy = 0;
  std::uint32_t samples = 0;
  /// Fully resolved per-cell config, except seed (set per wafer job).
  YieldConfig config{};
};

/// Merged result of one cell: every wafer of the cell reduced into one
/// partition-invariant aggregate, plus what the cell's policy mix did to
/// the netlist (identical for every wafer of the cell — compiled once
/// per (variant, mix), DESIGN.md §18).
struct CellResult {
  CampaignCell cell;
  YieldAggregate agg;
  PortfolioStats portfolio{};
};

struct CampaignReport {
  CampaignSpec spec;
  std::vector<std::string> variant_names;  ///< resolved variant axis
  std::vector<CellResult> cells;           ///< cell-index order
  /// Jobs folded in (== all jobs for a completed campaign; fewer after a
  /// stop_after_jobs checkpoint run).
  std::uint64_t jobs_done = 0;
  std::uint64_t jobs_total = 0;
  bool complete() const { return jobs_done == jobs_total; }

  std::uint64_t total_dies() const;
  std::uint64_t shipped_dies() const;
  double parametric_yield() const;
};

/// Schedule-dependent observability (wall-clock shape, reorder-window
/// high-water marks).  Deliberately OUTSIDE CampaignReport so the
/// byte-compared artifact never carries schedule-dependent bytes.
struct CampaignRunStats {
  std::size_t jobs_total = 0;
  std::size_t jobs_resumed = 0;  ///< loaded from the checkpoint prefix
  std::size_t jobs_run = 0;      ///< executed this run
  /// High-water mark of completed-but-not-yet-emitted shard aggregates
  /// (the reorder buffer): the campaign's entire transient state is
  /// peak_pending_shards aggregates + one CellResult per cell — O(1) in
  /// dies.
  std::size_t peak_pending_shards = 0;
  std::size_t records_emitted = 0;
};

struct CampaignRunOptions {
  /// nullptr runs serially; any pool produces the identical report.  The
  /// pool runs the planner's criticality dies and per-cell screens, then
  /// the shard jobs — one phase after another, never nested, so run()
  /// must not itself be called from a job on this pool.
  ThreadPool* pool = nullptr;
  /// NDJSON stream & checkpoint file (one and the same).  Empty =
  /// neither streaming nor checkpointing.
  std::string stream_path{};
  /// Resume from stream_path's complete-record prefix (requires a
  /// matching spec digest; throws std::runtime_error otherwise).  When
  /// the file does not exist, starts fresh.
  bool resume = false;
  /// Stop (checkpoint) once this many jobs are complete IN TOTAL
  /// (including resumed ones); 0 = run to completion.  The deliberate
  /// "kill point" used by the resume gates.
  std::size_t stop_after_jobs = 0;
  /// Live-tail hook: called with each NDJSON record line, in job order,
  /// under the emit lock (keep it cheap).
  std::function<void(const std::string&)> on_record{};
  CampaignRunStats* stats = nullptr;  ///< optional out-param
};

class CampaignRunner {
 public:
  /// Register a netlist variant by name.  All references must outlive
  /// the runner (the Flow overload requires plan_sensors() +
  /// simulate_activity(), like YieldAnalyzer::from_flow).
  void add_variant(std::string name, const Flow& flow);
  void add_variant(std::string name, const Design& design,
                   const StaEngine& sta, const VariationModel& model,
                   const IslandPlan& plan, const RazorPlan& sensors,
                   const ActivityDb& activity, double clock_freq_ghz);

  std::size_t num_variants() const { return variants_.size(); }

  /// Expand the spec's dense cell grid (also validates it: unknown
  /// variant names, empty axes, non-positive counts, non-positive or
  /// non-finite sigma scales all throw std::invalid_argument).  run()
  /// uses this same expansion.
  std::vector<CampaignCell> expand(const CampaignSpec& spec) const;

  /// Total shard jobs the spec expands to (cells × wafers × shards).
  std::size_t num_jobs(const CampaignSpec& spec) const;

  /// Spec fingerprint embedded in stream headers: resuming requires the
  /// digests to match, so a checkpoint can never silently continue a
  /// DIFFERENT campaign.
  std::uint64_t spec_digest(const CampaignSpec& spec) const;

  /// Run (or resume) the campaign.  See the file header for the
  /// determinism / streaming / checkpoint contracts.
  CampaignReport run(const CampaignSpec& spec,
                     const CampaignRunOptions& opts = {}) const;

 private:
  struct Variant {
    std::string name;
    const Design* design;
    const StaEngine* sta;
    const VariationModel* model;
    const IslandPlan* plan;
    const RazorPlan* sensors;
    const ActivityDb* activity;
    double clock_freq_ghz;
  };
  struct Plan;  // full expansion (netlists, models, analyzers, jobs)
  /// The spec's variant axis as indices into variants_ (throws
  /// std::invalid_argument on an unknown name).
  std::vector<std::uint32_t> variant_axis(const CampaignSpec& spec) const;
  /// Expands and prepares `spec`; `pool` (optional) runs the planner's
  /// two pooled phases — criticality dies, then per-cell screens that
  /// warm each analyzer's memo.
  void build_plan(const CampaignSpec& spec, ThreadPool* pool,
                  Plan& plan) const;

  std::vector<Variant> variants_;
};

}  // namespace vipvt
