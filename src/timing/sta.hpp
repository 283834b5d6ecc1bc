#pragma once
// Static timing analysis engine.
//
// Two-phase design mirroring the paper's PrimeTime/SDF flow:
//
//  1. compute_base(): full delay calculation — slew propagation in
//     topological order, NLDM table lookups per cell arc at each
//     instance's supply corner, Elmore-style wire delays from placement.
//     This produces the "annotated SDF" — a base delay per timing edge.
//
//  2. analyze(factors): fast forward propagation that scales every cell
//     arc by its instance's variation factor (Lgate/Vdd dependent) and
//     returns arrival/slack per endpoint, grouped per pipeline stage.
//     This is the inner loop of Monte-Carlo SSTA, so it allocates nothing
//     and touches each edge once.
//
// Clock is ideal (zero skew), as in the paper's single-clock VEX setup.

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "netlist/design.hpp"
#include "placement/placer.hpp"
#include "util/aligned.hpp"
#include "util/simd/kernels.hpp"

namespace vipvt {

struct StaOptions {
  double clock_period_ns = 3.9;  ///< ~256 MHz, the paper's fmax
  double default_input_slew_ns = 0.02;
  double primary_output_load_pf = 0.003;
};

/// One timing endpoint: a flop D pin or a primary output.
struct Endpoint {
  InstId flop = kInvalidInst;     ///< invalid => primary output
  NetId net = kInvalidNet;        ///< net feeding the endpoint
  PipeStage stage = PipeStage::Other;
  std::uint32_t node = 0;         ///< internal graph node (for backtrace)
};

struct StaResult {
  double clock_period_ns = 0.0;
  double wns = std::numeric_limits<double>::infinity();  ///< worst slack
  double tns = 0.0;                                      ///< total negative
  /// Minimum achievable clock period: max over constrained endpoints of
  /// (arrival + setup), i.e. clock_period_ns - slack.  Computed in the
  /// same endpoint pass that produces the slacks, so consumers
  /// (StaEngine::min_period, the Monte-Carlo speed-bin metric) never
  /// rescan the endpoint list.
  double min_period_ns = 0.0;
  std::array<double, kNumPipeStages> stage_wns{};        ///< per stage
  std::vector<double> endpoint_slack;  ///< aligned with StaEngine::endpoints()

  double stage_worst(PipeStage s) const {
    return stage_wns[static_cast<std::size_t>(s)];
  }
};

/// The part of the timing graph a bounded-factor analysis can need
/// (DESIGN.md §22).  StaEngine::build_cone proves the other endpoints
/// dead: under every delay factor inside the bounds it was given, a dead
/// endpoint's slack is >= 0 and above its stage's worst slack + 1e-12, so
/// it can set no stage WNS, no min period and no Monte-Carlo criticality
/// tally.  The cone keeps the live endpoints and their reverse closure in
/// the engine's folded propagation graph: every node that reaches a live
/// endpoint, every arc into such a node and every launch at one.  Every
/// in-arc of a live node is live, so the propagation over the cone
/// reproduces each live node's arrival bit for bit, and each live arc
/// keeps its full-graph first-writer flag.
struct TimingCone {
  std::vector<std::uint32_t> endpoints;  ///< live endpoint indices, ascending
  /// Instances whose factor a live arc or launch reads, ascending: the
  /// only factors a cone analysis uses.
  std::vector<std::uint32_t> instances;
  /// Live arcs in the graph's order (StaEngine::arcs()); they read the
  /// engine's current base delays.  first_write is aligned with them.
  std::vector<simd::RelaxArc> arcs;
  std::vector<std::uint8_t> first_write;
  std::vector<std::uint32_t> launches;      ///< live launch indices
  std::vector<std::uint32_t> neg_inf_rows;  ///< live rows no arc first-writes
  /// The graph the cone indexes: the one every copy of the building engine
  /// shares (held, so its address is never reused).
  std::shared_ptr<const void> graph;
  /// The clock the dead endpoints were proven at.
  double clock_period_ns = 0.0;
};

/// A traced critical path element.
struct PathStep {
  InstId inst = kInvalidInst;  ///< invalid for port nodes
  std::string pin_name;
  double arrival_ns = 0.0;
  double incr_ns = 0.0;
};

class StaEngine {
 public:
  /// The design must be fully placed (wire delays come from net HPWL).
  StaEngine(const Design& design, const StaOptions& opts);

  /// The engine is cheaply copyable, and copying is the supported way to
  /// run analyses on multiple threads: analyze() is const but writes the
  /// per-engine scalar scratchpad (arrival_ / pred_edge_), the batch
  /// entry points write the SoA scratch (arrival_soa_ / factor_soa_), and
  /// compute_base() / restore_bases() rewrite the base delays — so
  /// concurrent use of ONE engine races on every entry point, const or
  /// not.  A copy carries the source's base delays,
  /// snapshots-compatible graph order, and options (no recomputation), its
  /// own scratch (the SoA arenas start empty), and shares the source's
  /// immutable graph structure.
  /// The referenced Design must outlive every copy and stay unmodified
  /// while copies are in flight.
  StaEngine(const StaEngine&) = default;
  StaEngine& operator=(const StaEngine&) = default;
  StaEngine(StaEngine&&) = default;
  StaEngine& operator=(StaEngine&&) = default;

  const Design& design() const { return *design_; }
  const StaOptions& options() const { return opts_; }
  void set_clock_period(double ns) { opts_.clock_period_ns = ns; }

  /// Recomputes base (nominal) delays with the given supply corner per
  /// voltage domain (index = DomainId, value = VddCorner).  Domains not
  /// covered default to the low corner.  Every supply state's bases come
  /// from one full call; the compensation flow builds each state once per
  /// analyzer and restores it from a snapshot (DESIGN.md §12, §20).
  void compute_base(std::span<const int> domain_corner);
  /// Convenience: everything at the low corner.
  void compute_base_all_low() { compute_base({}); }

  /// Supply corner assigned to an instance in the last compute_base().
  int inst_corner(InstId id) const { return inst_corner_.at(id); }

  /// Fast annotated analysis.  `inst_factor` scales every cell arc of
  /// instance i by inst_factor[i]; pass {} for the nominal (all-ones) run.
  StaResult analyze(std::span<const double> inst_factor = {}) const;

  /// Batched annotated analysis: results[b] is bit-identical to
  /// analyze(inst_factor[b]) for every lane b (an empty lane vector means
  /// nominal).  Arrival times are laid out structure-of-arrays —
  /// arrival[node][lane] — so one pass over the timing graph propagates
  /// all lanes: edge metadata is fetched once per edge instead of once
  /// per edge per sample, and the per-lane inner loop is a contiguous
  /// vectorizable max-plus update.  This is the Monte-Carlo SSTA hot
  /// kernel.  No-trace mode: pred-edge bookkeeping is skipped entirely,
  /// so trace_from_last_analysis() must not be used after this call.
  void analyze_batch(std::span<const std::vector<double>> inst_factor,
                     std::span<StaResult> results) const;

  /// Batched analysis over factors already laid out structure-of-arrays
  /// (factor_soa[i * width + b], one row per instance) — the lane handoff
  /// from VariationModel::draw_factors_batch, which writes this layout
  /// directly so no per-batch transpose runs between draw and
  /// propagation.  results[b] is bit-identical to analyze() on lane b's
  /// factors (same kernel as analyze_batch, minus the packing).
  void analyze_batch_soa(std::span<const double> factor_soa, std::size_t width,
                         std::span<StaResult> results) const;

  /// The cone of the engine's current bases and clock (DESIGN.md §22)
  /// under per-instance factor bounds bounds[2i] <= f_i <= bounds[2i + 1]
  /// (an instance with a non-finite bound is unbounded).  One two-lane
  /// sweep bounds every arrival; endpoint k is dead when its lower slack
  /// bound is >= 0 and > fl(U + 1e-12), with U the least upper slack
  /// bound in k's stage.  Writes the scalar and batch scratch, like
  /// analyze_lazy().  Throws std::invalid_argument on short bounds.
  TimingCone build_cone(std::span<const double> bounds) const;

  /// analyze_batch_soa / analyze_batch over a cone of this engine: the
  /// cone's arcs, launches and endpoints only, reading only the factors
  /// of cone.instances.  Every results[b] field but endpoint_slack is
  /// bit-identical to the full analysis; endpoint_slack holds the exact
  /// slack at each live endpoint and NaN at the dead ones.  The cone must
  /// come from build_cone on this engine, or a copy, with the current
  /// bases and clock.  A cone from another graph (another engine's
  /// build_graph) or clock throws std::invalid_argument; the bases are the
  /// caller's contract and are not checked (comparing them would cost a
  /// pass over the graph per call).
  void analyze_batch_soa(std::span<const double> factor_soa, std::size_t width,
                         std::span<StaResult> results,
                         const TimingCone& cone) const;
  void analyze_batch(std::span<const std::vector<double>> inst_factor,
                     std::span<StaResult> results,
                     const TimingCone& cone) const;

  /// Frozen output of one compute_base(): per-edge and per-launch base
  /// delays plus the per-instance corner map.  restore_bases() writes a
  /// snapshot back bit-identically at memcpy cost — the compensation
  /// controller uses this to flip between island escalation levels
  /// without re-running delay calculation.  A snapshot is tied to this
  /// engine's graph (edge order); copies of the same engine may exchange
  /// snapshots.  restore_bases() throws std::invalid_argument when any
  /// field's size does not match the graph.
  struct BaseSnapshot {
    std::vector<float> edge_base;
    std::vector<float> launch_base;
    std::vector<int> inst_corner;
  };
  BaseSnapshot snapshot_bases() const;
  void restore_bases(const BaseSnapshot& snap);

  /// Lazily exact analysis of one supply state (DESIGN.md §21).  bounds
  /// holds, per instance i, an interleaved bracket bounds[2i] <= f_i <=
  /// bounds[2i + 1] of its exact delay factor f_i, and exact(i) returns
  /// f_i itself.  One two-lane sweep of the folded arcs over `bases`
  /// propagates the lower and upper bounds (IEEE add, multiply and max are
  /// monotone, so the lanes bound the exact arrivals); a backward
  /// refinement then recomputes exact arrivals only through in-arcs whose
  /// upper bound reaches the node's best lower bound, calling exact() for
  /// just those instances.  Returns the worst slack — bit-identical to
  /// restore_bases(bases) followed by analyze(f).wns — and sets
  /// violating[k] to whether endpoint k's slack there is negative.
  /// The engine's bases are left alone; the scalar and batch scratch are
  /// not, so trace_from_last_analysis() must not follow this call.
  /// Throws std::invalid_argument on a snapshot/graph mismatch or short
  /// bounds.
  double analyze_lazy(const BaseSnapshot& bases, std::span<const double> bounds,
                      const std::function<double(InstId)>& exact,
                      std::vector<std::uint8_t>& violating) const;

  const std::vector<Endpoint>& endpoints() const { return endpoints_; }
  /// Setup requirement per endpoint, aligned with endpoints().  Slack at
  /// endpoint k is clock_period - endpoint_setups()[k] - arrival.
  std::span<const double> endpoint_setups() const { return endpoint_setup_; }

  /// Read-only structural view of the timing graph for external
  /// propagation engines (the canonical SSTA of DESIGN.md §16): visits
  /// every edge in the exact topological order analyze() relaxes them,
  /// calling fn(from_node, to_node, inst, base_delay_ns).  inst ==
  /// kInvalidInst marks a wire/port edge, never scaled by variation
  /// factors.  Base delays reflect the last compute_base() /
  /// restore_bases(), same as analyze().
  template <class F>
  void for_each_graph_edge(F&& fn) const {
    const std::vector<Edge>& edges = graph_->edges;
    for (std::size_t ei = 0; ei < edges.size(); ++ei) {
      fn(edges[ei].from, edges[ei].to, edges[ei].inst,
         static_cast<double>(edge_base_[ei]));
    }
  }

  /// The folded propagation graph that analyze_lazy, build_cone and the
  /// batch entry points relax (DESIGN.md §17): the pin-level edges in the
  /// order for_each_graph_edge visits them, less every net edge into a pin
  /// that only that net writes and no endpoint reads.  A cell arc reading
  /// such a pin reads the net's driver instead and folds its wire.  An
  /// arc's delay and wire index for_each_graph_edge's order.
  std::span<const simd::RelaxArc> arcs() const { return graph_->arcs; }

  /// Launch view, three aligned spans: launch graph node, base launch
  /// delay (flop clk->q, or source delay for a primary input), and the
  /// launching flop — kInvalidInst for primary inputs, whose launch
  /// delay is NOT scaled by variation factors (same rule analyze()
  /// applies).
  std::span<const std::uint32_t> launch_nodes() const { return launch_nodes_; }
  std::span<const float> launch_bases() const { return launch_base_; }
  std::span<const InstId> launch_insts() const { return launch_inst_; }

  /// Critical path to the given endpoint under the provided factors
  /// (runs a fresh analysis).
  std::vector<PathStep> trace_path(std::size_t endpoint_index,
                                   std::span<const double> inst_factor = {}) const;

  /// Critical path from the scratchpad of the most recent analyze() /
  /// instance_slack() call — no re-analysis; cheap enough for batched
  /// repair loops.  Increments reflect that call's factors.
  std::vector<PathStep> trace_from_last_analysis(
      std::size_t endpoint_index) const;

  /// Minimum achievable clock period under the given factors (max
  /// endpoint arrival + setup).
  double min_period(std::span<const double> inst_factor = {}) const;

  /// Per-instance worst slack: min over the instance's pins of
  /// (required - arrival).  Instances on no constrained path report
  /// +infinity.  Used by the power-recovery (dual-Vth) pass.
  std::vector<double> instance_slack(
      std::span<const double> inst_factor = {}) const;

  /// Visit every cell timing arc with its current base delay: callback
  /// (inst, from_pin, to_pin, delay_ns).  Flop clk->q launch arcs are
  /// included.  Used by the SDF writer.
  void for_each_cell_arc(
      const std::function<void(InstId, std::uint16_t, std::uint16_t, double)>&
          fn) const;

  std::size_t num_nodes() const { return node_count_; }
  /// Pin-level edges: cell arcs and net edges, as for_each_graph_edge
  /// visits them.
  std::size_t num_edges() const { return graph_->edges.size(); }

 private:
  /// One pin-level timing edge: a cell arc of `inst`, or a net edge
  /// (kInvalidInst).  Its base delay is edge_base_[edge index].
  struct Edge {
    std::uint32_t from = 0;
    std::uint32_t to = 0;
    InstId inst = kInvalidInst;
  };

  /// The graph's structure, built once by build_graph and shared
  /// read-only by every engine copy: the pin-level edges that analyze()
  /// relaxes and the folded arcs of the bound and batch sweeps (DESIGN.md
  /// §17, §21, §22).
  struct Graph {
    std::vector<Edge> edges;  // sorted topologically
    std::vector<simd::RelaxArc> arcs;
    /// Per arc: 1 if it is the first arc writing a node no launch
    /// initializes (the batch kernels' first-writer flag).
    std::vector<std::uint8_t> first_write;
    /// Launch nodes plus nodes an arc or endpoint reads and no arc
    /// writes: the only rows the bound and batch sweeps pre-fill with -inf.
    std::vector<std::uint32_t> neg_inf_rows;
    /// Every write into a node: in_src[in_head[v] .. in_head[v + 1]) are
    /// arc indices below arcs.size() and launches as arcs.size() + li.
    std::vector<std::uint32_t> in_head;
    std::vector<std::uint32_t> in_src;
  };

  void build_graph();
  /// The folded arcs, their first-writer flags, -inf rows and in-arc
  /// index of g.edges (build_graph's last step, after the launches and
  /// endpoints).
  void fold_graph(Graph& g) const;
  double wire_length(NetId net) const;

  /// What one batch analysis propagates and extracts: the whole graph,
  /// or a TimingCone's part of it.
  struct GraphView {
    std::span<const simd::RelaxArc> arcs;
    std::span<const std::uint8_t> first_write;
    std::span<const std::uint32_t> neg_inf_rows;
    std::span<const std::uint32_t> launches;
    std::span<const std::uint32_t> endpoints;
  };
  GraphView full_view() const {
    return {graph_->arcs, graph_->first_write, graph_->neg_inf_rows,
            all_launches_, all_endpoints_};
  }
  /// The view of a cone built on this engine; throws on a foreign one.
  GraphView cone_view(const TimingCone& cone) const;

  /// Packs per-lane factor vectors into factor_soa_ rows, for every
  /// instance or only `insts`.
  void pack_factors(std::span<const std::vector<double>> inst_factor,
                    std::span<const std::uint32_t> insts, bool all) const;

  /// Shared tail of analyze_batch / analyze_batch_soa: launch
  /// initialization, relaxation dispatch and endpoint extraction over
  /// pre-packed SoA factors, for the view's part of the graph.
  void analyze_batch_core(const double* factor_soa, std::size_t width,
                          std::span<StaResult> results,
                          const GraphView& view) const;

  /// Grows arrival_soa_ to `width` lanes (it never shrinks, so a wider
  /// batch after a narrow one re-zeroes nothing) and sets only the given
  /// rows — those no first-writer arc initializes: launch rows and read
  /// rows nothing writes — to -inf (the first-writer contract, DESIGN.md
  /// §17).
  void init_arrival_soa(std::size_t width,
                        std::span<const std::uint32_t> neg_inf_rows) const;

  /// Per-lane endpoint extraction from arrival_soa_ over the view's
  /// endpoints (identical arithmetic and endpoint order to the scalar
  /// path); other endpoints read NaN.
  void extract_batch_results(std::size_t width, std::span<StaResult> results,
                             std::span<const std::uint32_t> endpoints) const;

  /// Endpoint extraction from analyze()'s per-node arrival array.
  StaResult extract_scalar_result(std::span<const double> arrival) const;

  /// The two-lane bound sweep of analyze_lazy and build_cone over the
  /// folded arcs, with base delays edge_base / launch_base: arrival_ gets
  /// every read node's lower arrival bound and arrival_soa_ (width 1) its
  /// upper bound.  kUnbounded (build_cone) takes a non-finite factor bound
  /// as an unbounded delay.
  template <bool kUnbounded>
  void sweep_bounds(const float* edge_base, const float* launch_base,
                    std::span<const double> bounds) const;

  /// One analyze_lazy() call's inputs, for its refinement.
  struct LazyPass {
    const BaseSnapshot& bases;
    std::span<const double> bounds;
    const std::function<double(InstId)>& exact;
  };
  /// Exact arrival at node v for analyze_lazy(): its lower (arrival_) and
  /// upper (arrival_soa_) bounds collapse to it once known, so a node
  /// whose bounds agree is already exact and nothing is recomputed.
  double lazy_exact_arrival(std::uint32_t v, const LazyPass& pass) const;
  /// Upper bound / exact value of in-arc-index source s of a node.
  double lazy_source_hi(std::uint32_t s, const LazyPass& pass) const;
  double lazy_source_exact(std::uint32_t s, const LazyPass& pass) const;

  const Design* design_;
  StaOptions opts_;

  // Graph: one node per instance pin plus one per primary port net.
  std::vector<std::uint32_t> pin_offset_;   // per instance
  std::vector<std::uint32_t> port_node_;    // per net (only ports valid)
  std::uint32_t node_count_ = 0;

  std::shared_ptr<const Graph> graph_;
  /// Per pin-level edge: its base delay, the one copy every sweep reads
  /// (analyze() by edge, the arcs by index).
  std::vector<float> edge_base_;
  std::vector<std::uint32_t> launch_nodes_; // flop Q outputs & PIs
  std::vector<float> launch_base_;          // base launch delay (clk->q)
  std::vector<InstId> launch_inst_;         // flop for clk->q scaling
  std::vector<Endpoint> endpoints_;
  std::vector<double> endpoint_setup_;
  /// 0 .. launches - 1 and 0 .. endpoints - 1: the full graph's view.
  std::vector<std::uint32_t> all_launches_;
  std::vector<std::uint32_t> all_endpoints_;
  std::vector<int> inst_corner_;
  std::vector<float> net_load_;  // pin caps + wire cap per net [pF]

  /// A scratch arena that an engine copy starts empty: its contents never
  /// outlive one analysis call, so a copy grows its own on first use
  /// instead of duplicating the source's.
  struct Arena {
    AlignedVec<double> v;
    Arena() = default;
    Arena(const Arena&) {}
    Arena& operator=(const Arena&) { return *this; }
    Arena(Arena&&) noexcept = default;
    Arena& operator=(Arena&&) noexcept = default;
  };

  // Scratch reused across analyze() calls (sized once).
  mutable std::vector<double> arrival_;
  mutable std::vector<std::int32_t> pred_edge_;
  // Batch scratch (SoA lanes), grown on demand by the batch entry points
  // and never shrunk.  64-byte aligned so the dispatch kernels' wide
  // loads never split a cache line (util/aligned.hpp) — alignment changes
  // no bits.
  mutable Arena arrival_soa_;  // node_count_ * batch
  mutable Arena factor_soa_;   // num_instances * batch
};

}  // namespace vipvt
