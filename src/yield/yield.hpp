#pragma once
// Wafer-scale yield analysis: the "virtual fab".  Where the paper
// evaluates compensation at four hand-picked die locations (A-D on the
// exposure-field diagonal), this subsystem fabricates EVERY die of a
// wafer and asks the production questions: parametric yield, per-policy
// power distributions, speed binning, island-activation statistics.
//
// Per die, deterministically keyed by the die id (substream_seed):
//
//   1. Monte-Carlo SSTA at the die's field location, all-low supply —
//      the die's *population* timing statistics (severity per the
//      3-sigma criterion, achievable-fmax distribution for speed bins).
//      Runs on the batched analyze_batch kernel (YieldConfig::mc.batch
//      lanes per graph traversal); dies are already spread across the
//      pool, so per-die sampling stays on the worker's own thread.
//   2. Fabricate one virtual chip (concrete per-gate Lgate map) — this
//      wafer's actual silicon at that location.
//   3. Post-silicon tuning-policy selection, reusing the
//      CompensationController test flow: read Razor sensors at all-low,
//      raise nested islands 1..k with escalation; if even all islands
//      fail, fall back to chip-wide high Vdd; if that fails too, the die
//      is discarded (parametric yield loss).
//   4. Power breakdown under the selected supply assignment at the die's
//      location.
//
// The per-die work is embarrassingly parallel; analyze() runs it on a
// ThreadPool with per-worker StaEngine clones and produces BIT-IDENTICAL
// reports for any thread count (asserted in tests/test_yield.cpp) —
// aggregation happens serially in die-id order after the parallel loop.
// What does not depend on a die — each supply state's base delays, and
// a die's power per (location, supply state) — is computed once per
// analyzer and shared read-only by every worker (DESIGN.md §20).  So is
// what a reticle slot's dies share: the analyzer's memo is the one
// holder of the slot maps, tier screens and slot cones per wafer
// geometry, read by analyze() workers and campaign shards alike (§22).

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "power/power.hpp"
#include "ssta/macromodel.hpp"
#include "util/parallel.hpp"
#include "util/stats.hpp"
#include "variation/mc_ssta.hpp"
#include "vi/compensate.hpp"
#include "vi/islands.hpp"
#include "vi/policy.hpp"
#include "vi/razor.hpp"
#include "yield/wafer.hpp"

namespace vipvt {

class Flow;

/// Post-silicon tuning decision for one die, in escalation order.
enum class TuningPolicy : std::uint8_t {
  AllLow = 0,     ///< meets timing uncompensated
  NestedIslands,  ///< islands 1..k raised (k in DieOutcome::islands_raised)
  ChipWideHigh,   ///< whole chip at high Vdd (the paper's baseline)
  Discard,        ///< fails timing even chip-wide: parametric yield loss
};
inline constexpr int kNumTuningPolicies = 4;
const char* tuning_policy_name(TuningPolicy p);
/// One-character wafer-map glyph: '0'..'9' islands raised, 'H' chip-wide
/// high, 'X' discard.
char tuning_policy_glyph(TuningPolicy p, int islands_raised);

/// Which tier decided a die's population statistics (DESIGN.md §16/§19).
enum class TriageTier : std::uint8_t {
  Off = 0,     ///< triage disabled: the die ran the full MC path
  Analytical,  ///< canonical-SSTA margin cleared the band; MC skipped
  McFallback,  ///< margin inside the band; adaptive MC ran unchanged
  Macro,       ///< stage-macromodel margin cleared the band; MC skipped
};
const char* triage_tier_name(TriageTier t);

/// How a die's population statistics are evaluated (DESIGN.md §19):
/// Flat runs per-die MC on the full gate graph; Triage screens reticle
/// slots with one flat canonical pass each (§16); Macro screens them by
/// interpolating pre-characterized stage macromodels — no per-slot graph
/// propagation at all.  Triage and Macro share the TriageConfig band and
/// fall back to the identical MC path on undecided slots.
enum class EvalTier : std::uint8_t {
  Flat = 0,
  Triage,
  Macro,
};
const char* eval_tier_name(EvalTier t);

/// Analytical canonical-SSTA triage (DESIGN.md §16): before paying a
/// die's MC budget, one canonical-form pass produces per-stage
/// mean/sigma analytically.  A die whose every gating stage sits more
/// than a confidence band away from the 3-sigma yield cliff takes the
/// analytical verdict and skips MC entirely; boundary dies fall back to
/// the configured MC unchanged.  The band is calibrated from the §14 CI
/// machinery: what an n-sample MC run could plausibly disagree with the
/// analytic moments by, at `confidence`, plus an absolute model-error
/// allowance for the linearization/Clark approximations.
struct TriageConfig {
  bool enabled = false;
  /// Confidence level of the CI half-widths the band is built from (the
  /// stated error rate of the analytic verdict is 1 - confidence); must
  /// lie in (0, 1) on every tier.
  double confidence = 0.95;
  /// Multiplier on the CI-derived part of the band (>1 = stricter
  /// triage: fewer dies decided analytically).  Must be finite and >= 0,
  /// like model_error_ns; YieldConfig::validate() rejects anything else.
  double band_scale = 1.0;
  /// Absolute allowance [ns] for canonical-model bias (table
  /// linearization, Clark's normal approximation, the dropped sample
  /// clamp) added on top of the scaled CI band.
  double model_error_ns = 0.002;
};

struct YieldConfig {
  /// Per-die Monte-Carlo SSTA; mc.seed is ignored (derived per die from
  /// `seed` so results never depend on scheduling).  mc.batch picks the
  /// analyze_batch width of the per-die hot loop (any width, same bits).
  /// mc.adaptive turns every die's run into a sequential-sampling one
  /// (DESIGN.md §14): each die draws only until its own stage fits
  /// converge, so easy dies stop at min_samples while marginal dies run
  /// toward max_samples — per-die budgets, wafer-level savings
  /// (YieldAggregate::mc_sample_savings()).
  McConfig mc{.samples = 48, .seed = 0, .confidence = 0.95};
  std::uint64_t seed = 0x5afe57a7eULL;
  /// Speed bin metric: the die's achievable clock is this percentile of
  /// its MC min-period distribution (conservative binning).  Must lie in
  /// (0, 1); validate() rejects anything else.
  double speed_percentile = 0.95;
  std::size_t speed_bins = 8;
  bool allow_escalation = true;
  bool allow_chip_wide_fallback = true;
  /// Analytical triage tier (off by default: bit-identical to the
  /// pre-triage flow).  With triage on, a die's non-MC outputs (policy,
  /// wns, power) are STILL bit-identical to a triage-off run — the
  /// analytic screen replaces only the MC population statistics
  /// (mc_severity, fmax) on dies it decides, and consumes the same RNG
  /// stream positions so fabrication stays aligned.
  TriageConfig triage{};
  /// Evaluation tier (DESIGN.md §19).  Flat honors the legacy
  /// triage.enabled flag (effective_tier()); Macro screens slots through
  /// the stage macromodel with the same band/fallback contract as
  /// Triage, including the RNG-position guarantee above.
  EvalTier tier = EvalTier::Flat;
  /// Macromodel characterization knobs (used when the effective tier is
  /// Macro); part of the analyzer's library cache key.
  MacroConfig macro{};

  /// Resolves the legacy triage.enabled flag: an explicit tier wins,
  /// otherwise triage.enabled selects Triage.
  EvalTier effective_tier() const {
    if (tier == EvalTier::Flat && triage.enabled) return EvalTier::Triage;
    return tier;
  }

  /// Throws std::invalid_argument naming the field when speed_percentile
  /// or triage.confidence is NaN or outside (0, 1), when a fixed
  /// (non-adaptive) mc.samples is below 1, or when triage.band_scale or
  /// triage.model_error_ns is NaN, infinite or negative — on every tier.
  /// Every YieldAnalyzer entry point that takes a YieldConfig, and
  /// CampaignRunner::expand, calls it before any die or screen runs.
  void validate() const;
};

struct DieOutcome {
  int die_id = 0;
  int mc_severity = 0;        ///< violating stages per 3-sigma MC criterion
  int mc_samples = 0;         ///< MC samples drawn (< budget when adaptive)
  McStop mc_stop = McStop::FixedBudget;  ///< why the die's MC run ended
  int detected_severity = 0;  ///< stages the Razor sensors flagged
  int islands_raised = 0;     ///< for AllLow/NestedIslands policies
  TuningPolicy policy = TuningPolicy::Discard;
  bool timing_met = false;
  bool escalated = false;         ///< needed more islands than detected
  bool missed_violation = false;  ///< violating endpoint without a sensor
  double wns_all_low_ns = 0.0;
  double wns_final_ns = 0.0;
  double fmax_ghz = 0.0;  ///< 1 / speed-percentile min period (all-low)
  double total_mw = 0.0;  ///< under the selected policy, at this die
  double leakage_mw = 0.0;
  /// Triage accounting (DESIGN.md §16).  Off when triage is disabled;
  /// Analytical dies report mc_samples == 0 and carry the analytic
  /// severity/fmax; McFallback dies ran the full MC path.  margin/band
  /// are the binding gating stage's analytic |3-sigma slack| and the
  /// confidence band it was compared against (0/0 when triage is off).
  TriageTier triage_tier = TriageTier::Off;
  double triage_margin_ns = 0.0;
  double triage_band_ns = 0.0;
};

/// Analytic verdict of one reticle slot (all dies of a slot share the
/// systematic map, hence the same analytic moments): the per-slot output
/// of YieldAnalyzer::tier_screen.
struct SlotTriage {
  bool decided = false;  ///< every gating stage cleared the band
  int severity = 0;      ///< analytic violating-stage count (3-sigma)
  double margin_ns = 0.0;  ///< binding gating-stage |3-sigma slack|
  double band_ns = 0.0;    ///< that stage's confidence band
  double fmax_ghz = 0.0;   ///< analytic speed-percentile fmax
};

/// The worst-case per-die MC sample budget of a config: max_samples when
/// adaptive sampling is on, the fixed mc.samples otherwise (never
/// negative).  YieldAggregate::add charges every die's budget through
/// this one definition.
int per_die_mc_budget(const McConfig& mc);

/// Partition-invariant mergeable aggregate over die outcomes: the one
/// die reducer, of the wafer report (YieldReport::agg) and of the
/// campaign layer's streams (DESIGN.md §9, §15).  Holds ONLY
/// O(1)-in-dies state — exact integer tallies plus ExactMoments — so a
/// shard worker can reduce its dies as it goes and discard every
/// per-die result.  add() and merge() commute and associate exactly:
/// aggregating dies one-by-one, or in shards of ANY size merged in any
/// order, produces bit-identical state (this is what makes the campaign
/// report byte-identical across shard sizes and thread counts).  Speed
/// bins are deliberately absent: their edges depend on the global fmax
/// extrema, which no one-pass partition-invariant reducer can bin
/// against — campaign consumers derive bins from the fmax moments or
/// from per-die CSVs.
struct YieldAggregate {
  std::uint64_t dies = 0;
  std::array<std::uint64_t, kNumTuningPolicies> policy_count{};
  /// Histogram of islands_raised over island-compensated dies (index 0 =
  /// all-low); size num_islands()+1, fixed at construction by
  /// analyze_shard (merge() rejects mismatched sizes).
  std::vector<std::uint64_t> island_activation;
  std::uint64_t timing_met = 0;
  std::uint64_t escalated = 0;
  std::uint64_t missed_violation = 0;
  std::uint64_t mc_severity_sum = 0;
  std::uint64_t mc_samples_drawn = 0;
  std::uint64_t mc_samples_budget = 0;
  std::uint64_t mc_converged_dies = 0;
  /// Tier tallies (DESIGN.md §16/§19): dies decided analytically, dies
  /// decided by the stage macromodel, dies that fell back to MC.  All 0
  /// on the flat tier.
  std::uint64_t triage_analytical = 0;
  std::uint64_t triage_mc_fallback = 0;
  std::uint64_t triage_macro = 0;
  ExactMoments fmax_ghz;  ///< over shipped dies with fmax > 0
  ExactMoments wns_all_low_ns;  ///< over all dies
  ExactMoments wns_final_ns;    ///< over all dies
  std::array<ExactMoments, kNumTuningPolicies> power_mw;
  std::array<ExactMoments, kNumTuningPolicies> leakage_mw;

  /// Fold one die in.  `num_islands` sizes/clamps the activation
  /// histogram; `per_die_budget` is per_die_mc_budget(cfg.mc).
  void add(const DieOutcome& d, int num_islands, int per_die_budget);
  /// Exact reduction; throws std::invalid_argument when the activation
  /// histograms disagree in size (aggregates from different island
  /// plans).
  void merge(const YieldAggregate& other);

  /// Whole-state equality, ExactMoments compared bitwise.
  bool operator==(const YieldAggregate&) const = default;

  std::uint64_t count(TuningPolicy p) const {
    return policy_count[static_cast<std::size_t>(p)];
  }
  std::uint64_t shipped_dies() const {
    return dies - count(TuningPolicy::Discard);
  }
  /// Fraction of dies that ship under SOME policy (the classic
  /// parametric-yield number).
  double parametric_yield() const {
    return dies == 0 ? 0.0
                     : static_cast<double>(shipped_dies()) /
                           static_cast<double>(dies);
  }
  /// Fraction of the worst-case MC sample budget (mc_samples_budget) the
  /// dies never drew.  Adaptive dies that converge early save; so does
  /// every screen-decided die, which draws none of its budget — so a
  /// fixed-budget triage or macro wafer reads its decided fraction, and
  /// only a fixed-budget flat wafer reads 0.
  double mc_sample_savings() const {
    return mc_samples_budget == 0
               ? 0.0
               : 1.0 - static_cast<double>(mc_samples_drawn) /
                           static_cast<double>(mc_samples_budget);
  }
  /// Fraction of dies a screen decided without MC — analytical (§16)
  /// plus macromodel (§19) verdicts (0 on the flat tier).
  double triage_fraction() const {
    return dies == 0 ? 0.0
                     : static_cast<double>(triage_analytical + triage_macro) /
                           static_cast<double>(dies);
  }
};

struct YieldReport {
  WaferConfig wafer{};
  YieldConfig config{};
  std::vector<DieOutcome> dies;  ///< die-id order (== WaferModel::dies())

  /// Every die folded through YieldAggregate::add in die-id order after
  /// the per-die loop: the reducer analyze_shard and the campaign use, so
  /// a wafer run and any merged shard partition hold equal aggregates.
  YieldAggregate agg;
  /// Speed-bin histogram over shipped-die fmax: bin i spans
  /// [lo + i*step, lo + (i+1)*step).
  std::vector<std::size_t> speed_bin_count;
  double speed_bin_lo_ghz = 0.0;
  double speed_bin_step_ghz = 0.0;
  /// Which compensation-policy mix produced this wafer's netlist and
  /// what it did (DESIGN.md §18) — the default "vi-only" stats when the
  /// analyzer runs on an untransformed design.
  PortfolioStats portfolio{};

  std::size_t total_dies() const { return dies.size(); }
  /// Glyph string indexed by die id, for WaferModel::ascii_map().
  std::string policy_glyphs() const;
};

class YieldAnalyzer {
 public:
  /// All references must outlive the analyzer.  `sta` must hold the
  /// final netlist (islands assigned, shifters inserted, Razor flops
  /// applied) — the same precondition as CompensationController; it is
  /// only ever COPIED (one clone per worker), never mutated.
  YieldAnalyzer(const Design& design, const StaEngine& sta,
                const VariationModel& model, const IslandPlan& plan,
                const RazorPlan& sensors, const ActivityDb& activity,
                double clock_freq_ghz);

  /// Convenience: borrow everything from a Flow that has run
  /// plan_sensors() and simulate_activity() (throws otherwise — checked
  /// via the Flow's cheap state queries).
  static YieldAnalyzer from_flow(const Flow& flow);

  /// Attach the compile_policy_mix stats of the netlist this analyzer
  /// was built over (DESIGN.md §18); stamped into every report's
  /// `portfolio` field.  Purely descriptive — per-die analysis never
  /// reads it, so the default (vi-only) stamp changes no bits.
  void set_portfolio(PortfolioStats stats) { portfolio_ = std::move(stats); }

  /// Analyze every die of the wafer.  `pool == nullptr` runs serially;
  /// any pool produces the identical report.
  YieldReport analyze(const WaferModel& wafer, const YieldConfig& cfg = {},
                      ThreadPool* pool = nullptr) const;

  /// A controller over `engine` — a copy of the engine this analyzer was
  /// built with — that restores its level and chip-wide bases from the
  /// analyzer's shared snapshots instead of computing its own (DESIGN.md
  /// §20).  What analyze() workers and campaign shards run on.
  CompensationController controller(StaEngine& engine) const;

  /// Single-die analysis on a caller-owned engine clone (the parallel
  /// loop's body; exposed for tests and custom drivers).  Leaves the
  /// engine's base delays at the die's final corner assignment.  The
  /// cache-free reference: it builds a fresh controller (own level
  /// bases), the die's systematic map, its screen verdict (the wafer
  /// screen's per-slot rule over that one map) and its power on every
  /// call.
  DieOutcome analyze_die(StaEngine& engine, const WaferDie& die,
                         const YieldConfig& cfg) const;

  /// Worker-grade single-die analysis: `ctrl` must be a controller over
  /// `engine` and persists across dies (its level bases are computed once
  /// per controller, or once per analyzer for controller() ones);
  /// `systematic` is the die's systematic Lgate map — shared by all dies
  /// of the same reticle slot, and read by both fabrication and power, so
  /// it must hold exactly VariationModel::systematic_lgates at
  /// die.location (as reticle_slot_maps does).  The die's power comes
  /// from the analyzer's power cache, keyed by (die.location, supply
  /// state).  Bit-identical to analyze_die().
  /// `triage` is the die's reticle-slot screen entry (nullptr = no
  /// screen, every die runs MC); a decided entry replaces the MC pass
  /// with the analytic verdict while consuming the same RNG positions,
  /// so fabrication/compensation/power are bit-identical either way.
  DieOutcome analyze_die_with(StaEngine& engine, CompensationController& ctrl,
                              const WaferDie& die, const YieldConfig& cfg,
                              std::span<const double> systematic,
                              const SlotTriage* triage = nullptr) const;

  /// The analytic screen of every reticle slot for cfg.effective_tier()
  /// (size side², indexed by reticle_slot; empty on the flat tier).  The
  /// triage tier runs one canonical pass per slot at the level-0 corners
  /// (DESIGN.md §16); the macro tier evaluates the cached stage
  /// macromodel instead (§19).  Slots with no die keep a default
  /// (undecided) entry.  A pure function of (analyzer, wafer geometry,
  /// cfg), independent of thread/shard partitioning; this is a copy of
  /// the analyzer's memoized screen (§22), the one analyze() and
  /// analyze_shard() read, keyed by wafer geometry, the clock, the tier
  /// and every cfg field the screen reads.  `slot_maps`, when non-empty,
  /// must equal reticle_slot_maps(wafer) value for value (a copy, or
  /// another analyzer's over the same netlist); any other maps throw
  /// std::invalid_argument.
  std::vector<SlotTriage> tier_screen(
      const WaferModel& wafer, const YieldConfig& cfg,
      std::span<const std::vector<double>> slot_maps = {}) const;

  /// The lazily characterized stage-macromodel library for cfg.macro
  /// (characterized once per analyzer at the all-low corner state;
  /// re-characterized only when cfg.macro changes — the macro-tier cache
  /// the campaign layer keys per (variant, policy, sigma) analyzer
  /// slot).  Thread-safe; the returned reference lives as long as the
  /// analyzer and the key stays unchanged.
  const StageMacroLibrary& macro_library(const MacroConfig& cfg) const;

  /// Dense reticle-slot index of a die: die_iy * dies_per_field_side +
  /// die_ix.  All dies of a slot share one systematic Lgate map.
  static std::size_t reticle_slot(const WaferModel& wafer, const WaferDie& die);

  /// The systematic Lgate map of every reticle slot (size side²,
  /// indexed by reticle_slot): a copy of the analyzer's memoized maps
  /// (DESIGN.md §22), built once per wafer geometry.
  std::vector<std::vector<double>> reticle_slot_maps(
      const WaferModel& wafer) const;

  /// Shard-ranged analysis: run dies [die_begin, die_end) of the wafer
  /// on caller-owned worker state and reduce them straight into a
  /// mergeable YieldAggregate — no per-die outcome is retained, which is
  /// what keeps a streaming campaign O(1) in dies.  Like analyze(), the
  /// shard reads the slot maps, the tier screen and the slot cones from
  /// the analyzer's memo (DESIGN.md §22), so every shard of a wafer
  /// shares one copy of each.  Per-die bits are identical to
  /// analyze_die(), so aggregating any partition of [0, num_dies) and
  /// merging reproduces a full analyze() run's YieldReport::agg exactly.
  YieldAggregate analyze_shard(StaEngine& engine,
                               CompensationController& ctrl,
                               const WaferModel& wafer, const YieldConfig& cfg,
                               std::size_t die_begin,
                               std::size_t die_end) const;

 private:
  /// A die's power under one supply state.
  struct DiePower {
    double total_mw = 0.0;
    double leakage_mw = 0.0;
  };
  /// Power-cache key: the bit patterns of the die location's chip and
  /// core origins, then the supply state (islands raised 0..n, n + 1
  /// chip-wide high, n + 2 Discard).
  using PowerKey = std::array<std::uint64_t, 5>;

  /// analyze_die_with's body; `cached_power` = false computes the die's
  /// power instead of reading the analyzer's power cache.  MC samples on
  /// `engine` itself, through `ws` when given, over `cone` (the die's
  /// slot cone) or, when null, one built for the die.
  DieOutcome analyze_die_impl(StaEngine& engine, CompensationController& ctrl,
                              const WaferDie& die, const YieldConfig& cfg,
                              std::span<const double> systematic,
                              const SlotTriage* triage, bool cached_power,
                              const TimingCone* cone = nullptr,
                              McWorkspace* ws = nullptr) const;

  /// Per-analyzer memo of one wafer geometry (DESIGN.md §22): the slot
  /// maps; the tier screens by ScreenKey (every cfg field a screen reads,
  /// then the clock); each slot's level-0 timing cone by the bits of the
  /// clock it was proven at, built the first time a die of the slot runs
  /// MC.  The clock is the only part of a cone's proof that can change:
  /// the level-0 bases are built once per analyzer (level_bases_) and the
  /// endpoint setups are the design's.  Entries never move or change once
  /// built.
  using ScreenKey = std::array<std::uint64_t, 9>;
  struct SlotMemo {
    std::vector<std::vector<double>> maps;
    std::map<ScreenKey, std::vector<SlotTriage>> screens;
    std::map<std::uint64_t, std::vector<std::unique_ptr<const TimingCone>>>
        cones;
  };
  /// The memo entry of `wafer`'s geometry, created on first use.
  SlotMemo& slot_memo(const WaferModel& wafer) const;
  /// The memoized tier screen of cfg (empty on the flat tier).
  const std::vector<SlotTriage>& memo_screen(SlotMemo& memo,
                                             const YieldConfig& cfg) const;
  /// Per slot: its level-0 cone when a die of it runs MC under `screen`
  /// (every mapped slot when the screen is empty), else nullptr.
  std::vector<const TimingCone*> memo_cones(
      SlotMemo& memo, std::span<const SlotTriage> screen) const;
  /// What every die of one wafer reads from the memo under one cfg.
  struct MemoView {
    const WaferModel& wafer;
    const YieldConfig& cfg;
    const SlotMemo& memo;
    const std::vector<SlotTriage>& screen;
    std::vector<const TimingCone*> cones;
  };
  /// The prologue analyze() and analyze_shard() share: the geometry's
  /// memo entry, then cfg's screen, then the cones of the slots that
  /// run MC under it.
  MemoView memo_view(const WaferModel& wafer, const YieldConfig& cfg) const;
  /// Die `i` of the view's wafer on one worker's state.
  DieOutcome memo_die(const MemoView& view, std::size_t i, StaEngine& engine,
                      CompensationController& ctrl, McWorkspace& ws) const;
  /// The tier screen of cfg over `maps` (DESIGN.md §16, §19): one
  /// verdict per map, in order, default for an empty map; empty on the
  /// flat tier.
  std::vector<SlotTriage> build_screen(
      std::span<const std::vector<double>> maps, const YieldConfig& cfg) const;
  /// reticle_slot_maps' computation, without the memo.
  std::vector<std::vector<double>> compute_slot_maps(
      const WaferModel& wafer) const;
  /// PowerEngine::compute for supply `state` at `loc`.
  DiePower die_power(const DieLocation& loc, std::span<const double> systematic,
                     int state) const;
  /// die_power through the analyzer's power cache.
  DiePower cached_die_power(const DieLocation& loc,
                            std::span<const double> systematic,
                            int state) const;
  /// The shared margin-vs-band decision applied to analytic stage
  /// moments from either tier (§16 canonical pass or §19 macromodel).
  SlotTriage slot_verdict(const CanonicalResult& res,
                          const YieldConfig& cfg) const;

  const Design* design_;
  const StaEngine* sta_;
  const VariationModel* model_;
  const IslandPlan* plan_;
  const RazorPlan* sensors_;
  const ActivityDb* activity_;
  /// Shared across all workers: PowerEngine::compute is pure, and the
  /// per-net capacitance it precomputes never varies per die.
  PowerEngine power_;
  double clock_freq_ghz_;
  PortfolioStats portfolio_{};
  /// Lazy per-analyzer macromodel cache (DESIGN.md §19): characterized
  /// at the all-low corner state on first macro_library() call, reused
  /// until the MacroConfig key changes.
  mutable std::mutex macro_mutex_;
  mutable std::unique_ptr<StageMacroLibrary> macro_lib_;
  mutable MacroConfig macro_key_{};
  /// Every supply state's base-delay snapshot, built once per analyzer
  /// on first use and shared by every controller() (DESIGN.md §20).
  mutable LevelBases level_bases_;
  /// Slot maps, screens and cones by wafer geometry (WaferConfig bits).
  mutable std::mutex memo_mutex_;
  mutable std::map<std::array<std::uint64_t, 4>, std::unique_ptr<SlotMemo>>
      memo_;  ///< memo_mutex_
  /// Die power for the analyzer's lifetime, by (location, supply state):
  /// design, activity, model and clock are fixed per analyzer, so an
  /// entry never goes stale (DESIGN.md §20).
  mutable std::mutex power_mutex_;
  mutable std::map<PowerKey, DiePower> power_cache_;  ///< power_mutex_
};

}  // namespace vipvt
