#pragma once
// Compensation-policy portfolio (DESIGN.md §18): sizing and buffering as
// first-class knobs alongside voltage-island escalation.
//
// The paper compensates a failing die only by raising voltage islands
// (CompensationController).  The related work names two more levers that
// attack the same yield cliff from the design side: statistical gate
// sizing on MC-critical paths (Neiroukh & Song, arXiv:0710.4713) and
// sampling-based buffer insertion driven by MC criticality tallies
// (Zhang et al., arXiv:1705.04990).  A PolicyMix selects any combination
// of the three; each combination is one power/area/yield point of the
// portfolio Pareto (bench/policy_portfolio).
//
// Division of labour: sizing and buffering are DESIGN-TIME transforms —
// they are compiled ONCE per (netlist variant, policy mix) into a new
// Design + StaEngine + ActivityDb (compile_policy_mix), and every die of
// every wafer under that mix is then fabricated and compensated on the
// transformed netlist through the unchanged per-die flow.  VI escalation
// stays the POST-SILICON lever, applied per die by the controller as
// before.  This keeps the determinism contract trivial to state: a mix
// changes the netlist the per-die RNG walks, never the walk itself, so
// per-die draw counts depend only on the (transformed) instance list and
// reports stay bit-identical for any thread/shard count.
//
// Zero-displacement ECO rule: neither transform moves an instance or
// re-runs the placer.  Upsizing swaps a cell within its (function, Vth)
// drive family — footprint growth is absorbed as ECO slack, like the
// dual-Vth power-recovery pass.  Inserted buffers sit AT the driver's
// placement point, inherit its domain/stage/unit, and are only legal on
// non-clock, non-primary-output nets whose sinks all share the driver's
// voltage domain (a repeater must never create an unshifted low->high
// crossing).  Consequently island plans and Razor sensor plans built for
// the baseline netlist remain valid on the transformed one: flop count,
// flop order and domain structure are preserved, and a rebuilt
// StaEngine enumerates the same endpoints in the same order.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "netlist/buffering.hpp"
#include "netlist/design.hpp"
#include "netlist/sizing.hpp"
#include "power/power.hpp"
#include "timing/sta.hpp"
#include "util/parallel.hpp"
#include "variation/model.hpp"

namespace vipvt {

/// One value of the compensation-policy axis: which post-silicon and
/// design-side levers the virtual fab may pull for a wafer's dies.  The
/// first three fields predate the portfolio and keep their order so
/// existing PolicyMix{"name", esc, fallback} aggregate initializers stay
/// valid; the appended knobs default to the pure-VI (pre-portfolio)
/// behaviour.
struct PolicyMix {
  std::string name = "full";
  bool allow_escalation = true;
  bool allow_chip_wide_fallback = true;
  /// Design-side statistical upsizing of MC-critical gates
  /// (upsize_critical, src/netlist/sizing).
  CriticalSizingConfig sizing{};
  /// Design-side buffer insertion on MC-critical nets
  /// (buffer_critical_nets, src/netlist/buffering).
  CriticalBufferConfig buffering{};
  /// MC budget of the criticality measurement both transforms select
  /// gates from (instance_criticality); the seed is its own substream
  /// root, deliberately disjoint from every die/wafer seed so enabling a
  /// transform can never shift a die's fabrication stream.
  int crit_samples = 32;
  std::uint64_t crit_seed = 0xc817'ca11'5eed'0001ULL;

  /// True when the mix rewrites the netlist (compile produces an owned
  /// Design); false = pure VI policy running on the baseline references.
  bool transforms_design() const {
    return sizing.enabled || buffering.enabled;
  }
};

/// What a compiled mix did to the netlist — carried through YieldReport
/// (CSV `policy_mix` column, JSON `portfolio` object), CellResult and
/// bench/policy_portfolio's Pareto table.
struct PortfolioStats {
  std::string mix = "vi-only";
  bool sizing = false;
  bool buffering = false;
  std::uint64_t gates_upsized = 0;
  std::uint64_t buffers_inserted = 0;
  std::uint64_t nets_buffered = 0;
  /// Samples of the criticality measurement (0 for untransformed mixes).
  int crit_samples = 0;
  double area_um2 = 0.0;        ///< transformed-netlist std-cell area
  double area_delta_um2 = 0.0;  ///< area cost vs the baseline netlist
};

/// Per-instance criticality under variation at the all-low supply:
/// crit[i] = fraction of `samples` fabricated dies (at `loc`, seeded
/// substream_seed(seed, k)) in which instance i sits on a failing path
/// (per-instance worst slack < 0 via StaEngine::instance_slack).  A pure
/// function of its arguments — thread count and caller state never enter
/// — so two compiles of the same mix select identical gates.  With a
/// `pool` the virtual dies run on it (one engine copy per worker); the
/// per-instance fail tallies are integers, so their sum, and every bit
/// of the result, is the same for any pool.  Must not be called from a
/// job running on `pool` (a pool job waiting on its own pool deadlocks).
std::vector<double> instance_criticality(const Design& design,
                                         const StaEngine& sta,
                                         const VariationModel& model,
                                         const DieLocation& loc, int samples,
                                         std::uint64_t seed,
                                         ThreadPool* pool = nullptr);

/// One compiled (netlist variant, policy mix) pair.  For transforming
/// mixes it OWNS the rewritten Design, a StaEngine rebuilt over it (same
/// StaOptions as the baseline engine, bases at all-low — its analyzers
/// build their level snapshots exactly as on the baseline), and an
/// ActivityDb extended so every inserted buffer leg toggles at its
/// source net's rate.  For pure-VI mixes all three pointers are null
/// and the *_or() accessors resolve to the baseline references — which
/// is what makes portfolio-on bit-identity for untouched mixes
/// structural rather than asserted.
struct CompiledPolicy {
  PortfolioStats stats;
  std::unique_ptr<Design> design;
  std::unique_ptr<StaEngine> sta;
  std::unique_ptr<ActivityDb> activity;

  bool transformed() const { return design != nullptr; }
  const Design& design_or(const Design& base) const {
    return design ? *design : base;
  }
  const StaEngine& sta_or(const StaEngine& base) const {
    return sta ? *sta : base;
  }
  const ActivityDb& activity_or(const ActivityDb& base) const {
    return activity ? *activity : base;
  }
};

/// Compile a mix against a baseline netlist: measure criticality at the
/// worst-case die location (point A — the exposure field's slow corner,
/// where the yield cliff lives), apply the enabled transforms in fixed
/// order (sizing, then buffering), validate the result structurally
/// (Design::check) and rebuild the timing/power views.  The baseline
/// references must outlive the returned object.  Criticality is measured
/// on the CHARACTERIZED process (the model passed in), so a campaign's
/// sigma axis shares one compiled netlist per (variant, mix).  `pool`
/// (optional) runs the criticality measurement; same result for any pool.
CompiledPolicy compile_policy_mix(const PolicyMix& mix, const Design& base,
                                  const StaEngine& base_sta,
                                  const VariationModel& model,
                                  const ActivityDb& base_activity,
                                  ThreadPool* pool = nullptr);

}  // namespace vipvt
