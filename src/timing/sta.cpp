#include "timing/sta.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "util/simd/dispatch.hpp"

namespace vipvt {

// The folded arcs carry instance ids into the relax kernels, which take
// the same sentinel for a fixed delay.
static_assert(kInvalidInst == simd::kInvalidRelaxInst);
static_assert(std::is_same_v<InstId, std::uint32_t>);

namespace {
constexpr double kNegInf = -std::numeric_limits<double>::infinity();

/// Bounds of base * f over f in instance i's factor bracket [bounds[2i],
/// bounds[2i + 1]] (analyze_lazy); min/max keep them ordered even for a
/// negative base.  No instance: the base itself, unscaled.
std::pair<double, double> delay_bounds(double base,
                                       std::span<const double> bounds,
                                       InstId i) {
  if (i == kInvalidInst) return {base, base};
  const double p = base * bounds[2 * static_cast<std::size_t>(i)];
  const double q = base * bounds[2 * static_cast<std::size_t>(i) + 1];
  return {std::min(p, q), std::max(p, q)};
}

/// build_cone's delay bounds: delay_bounds, except that an instance with
/// a non-finite factor bound is unbounded, [-inf, +inf] whatever its base
/// (0 * inf would be NaN).
std::pair<double, double> cone_delay_bounds(double base,
                                            std::span<const double> bounds,
                                            InstId i) {
  if (i != kInvalidInst &&
      !(std::isfinite(bounds[2 * static_cast<std::size_t>(i)]) &&
        std::isfinite(bounds[2 * static_cast<std::size_t>(i) + 1]))) {
    return {kNegInf, std::numeric_limits<double>::infinity()};
  }
  return delay_bounds(base, bounds, i);
}

}  // namespace

StaEngine::StaEngine(const Design& design, const StaOptions& opts)
    : design_(&design), opts_(opts) {
  build_graph();
  compute_base_all_low();
}

double StaEngine::wire_length(NetId net) const {
  return net_hpwl(*design_, net);
}

void StaEngine::build_graph() {
  const Design& d = *design_;
  const WireParams& wp = d.lib().wire();

  // ---- node numbering ------------------------------------------------------
  pin_offset_.resize(d.num_instances());
  std::uint32_t next = 0;
  for (InstId i = 0; i < d.num_instances(); ++i) {
    pin_offset_[i] = next;
    next += static_cast<std::uint32_t>(d.cell_of(i).pins.size());
  }
  port_node_.assign(d.num_nets(), 0);
  for (NetId n = 0; n < d.num_nets(); ++n) {
    const Net& net = d.net(n);
    if (net.is_primary_input || net.is_primary_output) {
      port_node_[n] = next++;
    }
  }
  node_count_ = next;

  auto pin_node = [&](InstId inst, std::uint16_t pin) {
    return pin_offset_[inst] + pin;
  };

  // ---- per-net loads & parasitics (corner-independent) ----------------------
  net_load_.assign(d.num_nets(), 0.0f);
  std::vector<float> net_rw(d.num_nets(), 0.0f);
  std::vector<float> net_cw(d.num_nets(), 0.0f);
  for (NetId n = 0; n < d.num_nets(); ++n) {
    const Net& net = d.net(n);
    if (net.is_clock) continue;
    const double len = wire_length(n);
    net_rw[n] = static_cast<float>(wp.resistance(len));
    net_cw[n] = static_cast<float>(wp.capacitance(len));
    double load = net_cw[n];
    for (const auto& sink : net.sinks) {
      load += d.cell_of(sink.inst).pins[sink.pin].cap_pf;
    }
    if (net.is_primary_output) load += opts_.primary_output_load_pf;
    net_load_[n] = static_cast<float>(load);
  }

  // ---- edges ---------------------------------------------------------------
  // Each edge with its base delay (a net edge's is fixed here), kept
  // together through the topological sort.
  struct BuiltEdge {
    Edge e;
    float base = 0.0f;
  };
  std::vector<BuiltEdge> edges;
  for (InstId i = 0; i < d.num_instances(); ++i) {
    const Cell& cell = d.cell_of(i);
    if (cell.is_sequential()) continue;  // clk->q handled as launch
    for (const auto& arc : cell.arcs) {
      Edge e;
      e.from = pin_node(i, arc.from_pin);
      e.to = pin_node(i, arc.to_pin);
      e.inst = i;
      edges.push_back({e, 0.0f});
    }
  }
  for (NetId n = 0; n < d.num_nets(); ++n) {
    const Net& net = d.net(n);
    if (net.is_clock) continue;  // ideal clock
    std::uint32_t src;
    if (net.has_cell_driver()) {
      src = pin_node(net.driver.inst, net.driver.pin);
    } else if (net.is_primary_input) {
      src = port_node_[n];
    } else {
      continue;  // dangling
    }
    for (const auto& sink : net.sinks) {
      Edge e;
      e.from = src;
      e.to = pin_node(sink.inst, sink.pin);
      const double sink_cap = d.cell_of(sink.inst).pins[sink.pin].cap_pf;
      edges.push_back(
          {e, static_cast<float>(net_rw[n] * (0.5 * net_cw[n] + sink_cap))});
    }
    if (net.is_primary_output && net.has_cell_driver()) {
      Edge e;
      e.from = src;
      e.to = port_node_[n];
      edges.push_back({e, static_cast<float>(net_rw[n] *
                                             (0.5 * net_cw[n] +
                                              opts_.primary_output_load_pf))});
    }
  }

  // ---- topological ordering (Kahn over nodes) -------------------------------
  std::vector<std::uint32_t> indeg(node_count_, 0);
  for (const auto& b : edges) ++indeg[b.e.to];
  std::vector<std::uint32_t> head(node_count_ + 1, 0);
  for (const auto& b : edges) ++head[b.e.from + 1];
  for (std::size_t i = 1; i <= node_count_; ++i) head[i] += head[i - 1];
  std::vector<std::uint32_t> adj(edges.size());
  {
    std::vector<std::uint32_t> cursor(head.begin(), head.end() - 1);
    for (std::uint32_t ei = 0; ei < edges.size(); ++ei) {
      adj[cursor[edges[ei].e.from]++] = ei;
    }
  }
  std::vector<std::uint32_t> rank(node_count_, 0);
  std::vector<std::uint32_t> queue;
  queue.reserve(node_count_);
  for (std::uint32_t v = 0; v < node_count_; ++v) {
    if (indeg[v] == 0) queue.push_back(v);
  }
  std::uint32_t processed = 0;
  for (std::size_t qi = 0; qi < queue.size(); ++qi) {
    const std::uint32_t u = queue[qi];
    rank[u] = processed++;
    for (std::uint32_t ai = head[u]; ai < head[u + 1]; ++ai) {
      const Edge& e = edges[adj[ai]].e;
      if (--indeg[e.to] == 0) queue.push_back(e.to);
    }
  }
  if (processed != node_count_) {
    throw std::runtime_error("StaEngine: combinational loop detected");
  }
  std::sort(edges.begin(), edges.end(),
            [&](const BuiltEdge& a, const BuiltEdge& b) {
              return rank[a.e.from] < rank[b.e.from];
            });
  auto g = std::make_shared<Graph>();
  g->edges.reserve(edges.size());
  edge_base_.resize(edges.size());
  for (std::size_t ei = 0; ei < edges.size(); ++ei) {
    g->edges.push_back(edges[ei].e);
    edge_base_[ei] = edges[ei].base;
  }

  // ---- launch nodes & endpoints ---------------------------------------------
  launch_nodes_.clear();
  launch_inst_.clear();
  endpoints_.clear();
  endpoint_setup_.clear();
  for (InstId i = 0; i < d.num_instances(); ++i) {
    const Cell& cell = d.cell_of(i);
    if (!cell.is_sequential()) continue;
    launch_nodes_.push_back(pin_node(i, cell.output_pin()));
    launch_inst_.push_back(i);
    // D pin is pin 0 by library construction.
    Endpoint ep;
    ep.flop = i;
    ep.net = d.instance(i).conns[0];
    ep.stage = d.instance(i).stage;
    ep.node = pin_node(i, 0);
    endpoints_.push_back(ep);
    endpoint_setup_.push_back(cell.setup_ns);
  }
  for (NetId n : d.primary_inputs()) {
    if (d.net(n).is_clock) continue;
    launch_nodes_.push_back(port_node_[n]);
    launch_inst_.push_back(kInvalidInst);
  }
  for (NetId n : d.primary_outputs()) {
    const Net& net = d.net(n);
    Endpoint ep;
    ep.flop = kInvalidInst;
    ep.net = n;
    ep.stage = net.has_cell_driver() ? d.instance(net.driver.inst).stage
                                     : PipeStage::Other;
    ep.node = port_node_[n];
    endpoints_.push_back(ep);
    endpoint_setup_.push_back(0.0);
  }
  launch_base_.assign(launch_nodes_.size(), 0.0f);
  all_launches_.resize(launch_nodes_.size());
  for (std::uint32_t li = 0; li < all_launches_.size(); ++li) {
    all_launches_[li] = li;
  }
  all_endpoints_.resize(endpoints_.size());
  for (std::uint32_t k = 0; k < all_endpoints_.size(); ++k) {
    all_endpoints_[k] = k;
  }
  fold_graph(*g);
  graph_ = std::move(g);

  arrival_.assign(node_count_, kNegInf);
  pred_edge_.assign(node_count_, -1);
  inst_corner_.assign(d.num_instances(), kVddLow);
}

void StaEngine::fold_graph(Graph& g) const {
  // A net edge into a pin that nothing else writes only copies its
  // driver's arrival, plus the wire, into that pin.  Every cell arc
  // reading the pin reads the driver and adds the wire first:
  // (a + wire) + base * f, the two roundings analyze() makes through the
  // pin, in its order.  The net edge itself stays only where an endpoint
  // reads the pin.  Filtering keeps the pin-level order, so every write to
  // a node still precedes every read of it.
  const auto num_edges = static_cast<std::uint32_t>(g.edges.size());
  std::vector<std::uint32_t> writers(node_count_, 0);
  std::vector<std::uint32_t> net_into(node_count_, simd::kNoRelaxWire);
  for (std::uint32_t ei = 0; ei < num_edges; ++ei) {
    const Edge& e = g.edges[ei];
    ++writers[e.to];
    if (e.inst == kInvalidInst) net_into[e.to] = ei;
  }
  for (const std::uint32_t v : launch_nodes_) ++writers[v];
  const auto folds = [&](std::uint32_t v) {
    return writers[v] == 1 && net_into[v] != simd::kNoRelaxWire;
  };
  std::vector<std::uint8_t> read(node_count_, 0);
  for (const Endpoint& ep : endpoints_) read[ep.node] = 1;
  for (std::uint32_t ei = 0; ei < num_edges; ++ei) {
    const Edge& e = g.edges[ei];
    simd::RelaxArc a{e.from, e.to, e.inst, ei, simd::kNoRelaxWire};
    if (e.inst == kInvalidInst) {
      if (folds(e.to) && read[e.to] == 0) continue;
    } else if (folds(e.from)) {
      a.wire = net_into[e.from];
      a.from = g.edges[a.wire].from;
    }
    g.arcs.push_back(a);
  }
  for (const simd::RelaxArc& a : g.arcs) read[a.from] = 1;

  // First-writer marks (DESIGN.md §17): the first arc writing a node that
  // no launch initializes can take max(cand, -inf) instead of reading a
  // -inf pre-fill.  Only launch rows and read rows that nothing writes
  // then need the fill.
  std::vector<std::uint8_t> written(node_count_, 0);
  for (const std::uint32_t v : launch_nodes_) written[v] = 1;
  g.first_write.assign(g.arcs.size(), 0);
  for (std::size_t ai = 0; ai < g.arcs.size(); ++ai) {
    std::uint8_t& w = written[g.arcs[ai].to];
    g.first_write[ai] = w == 0 ? 1 : 0;
    w = 1;
  }
  g.neg_inf_rows = launch_nodes_;
  for (std::uint32_t v = 0; v < node_count_; ++v) {
    if (read[v] != 0 && written[v] == 0) g.neg_inf_rows.push_back(v);
  }

  // In-arc index for analyze_lazy's backward refinement and build_cone's
  // reverse closure (DESIGN.md §21, §22): counting sort of arcs and
  // launches by target node.
  const auto num_arcs = static_cast<std::uint32_t>(g.arcs.size());
  g.in_head.assign(node_count_ + 1, 0);
  for (const simd::RelaxArc& a : g.arcs) ++g.in_head[a.to + 1];
  for (const std::uint32_t v : launch_nodes_) ++g.in_head[v + 1];
  for (std::size_t v = 1; v <= node_count_; ++v) {
    g.in_head[v] += g.in_head[v - 1];
  }
  g.in_src.resize(g.in_head[node_count_]);
  std::vector<std::uint32_t> cursor(g.in_head.begin(), g.in_head.end() - 1);
  for (std::uint32_t ai = 0; ai < num_arcs; ++ai) {
    g.in_src[cursor[g.arcs[ai].to]++] = ai;
  }
  for (std::uint32_t li = 0; li < launch_nodes_.size(); ++li) {
    g.in_src[cursor[launch_nodes_[li]]++] = num_arcs + li;
  }
}

template <bool kUnbounded>
void StaEngine::sweep_bounds(const float* edge_base, const float* launch_base,
                             std::span<const double> bounds) const {
  // IEEE add, multiply and max are monotone, so the lanes bound the
  // arrivals analyze() computes from any factors inside the bounds.  With
  // kUnbounded (build_cone, whose delay bounds may be +-inf), a source
  // nothing reaches (-inf, a tie cell's output) gives -inf whatever the
  // delay bound, as analyze() computes -inf + d for every finite d: an
  // unbounded delay's +inf must not make it NaN, which a later max would
  // silently drop.  A folded arc tests before its wire and again before
  // its delay, as analyze() skips a -inf arrival at the driver and at the
  // net's sink pin.  analyze_lazy's
  // delay bounds are finite, so -inf + d is already -inf there and its
  // per-die sweep skips the test.  The first-writer rule is the batch
  // kernels'.
  const Graph& g = *graph_;
  init_arrival_soa(1, g.neg_inf_rows);
  double* lo_arr = arrival_.data();
  double* hi_arr = arrival_soa_.v.data();
  const auto delay = [&](float base, InstId i) {
    if constexpr (kUnbounded) {
      return cone_delay_bounds(static_cast<double>(base), bounds, i);
    } else {
      return delay_bounds(static_cast<double>(base), bounds, i);
    }
  };
  for (const std::uint32_t v : g.neg_inf_rows) lo_arr[v] = kNegInf;
  for (std::size_t li = 0; li < launch_nodes_.size(); ++li) {
    const auto [lo, hi] = delay(launch_base[li], launch_inst_[li]);
    const std::uint32_t v = launch_nodes_[li];
    lo_arr[v] = std::max(lo_arr[v], lo);
    hi_arr[v] = std::max(hi_arr[v], hi);
  }
  const auto plus = [](double a, double d) {
    if constexpr (kUnbounded) {
      return a == kNegInf ? kNegInf : a + d;
    } else {
      return a + d;
    }
  };
  for (std::size_t ai = 0; ai < g.arcs.size(); ++ai) {
    const simd::RelaxArc& a = g.arcs[ai];
    double lo = lo_arr[a.from];
    double hi = hi_arr[a.from];
    if (a.wire != simd::kNoRelaxWire) {
      const auto w = static_cast<double>(edge_base[a.wire]);
      lo = plus(lo, w);
      hi = plus(hi, w);
    }
    const auto [dlo, dhi] = delay(edge_base[a.delay], a.inst);
    lo = plus(lo, dlo);
    hi = plus(hi, dhi);
    if (g.first_write[ai] != 0) {
      lo_arr[a.to] = lo;
      hi_arr[a.to] = hi;
    } else {
      lo_arr[a.to] = std::max(lo_arr[a.to], lo);
      hi_arr[a.to] = std::max(hi_arr[a.to], hi);
    }
  }
}

void StaEngine::compute_base(std::span<const int> domain_corner) {
  const Design& d = *design_;

  for (InstId i = 0; i < d.num_instances(); ++i) {
    const DomainId dom = d.instance(i).domain;
    inst_corner_[i] = dom < domain_corner.size() ? domain_corner[dom] : kVddLow;
  }

  // Slew propagation + cell-arc base delays, in topological edge order.
  // Only primary inputs start at the default slew; internal nodes take
  // the max of their drivers' output slews.
  std::vector<float> slew(node_count_, 0.0f);
  for (NetId n : design_->primary_inputs()) {
    if (design_->net(n).is_clock) continue;
    slew[port_node_[n]] = static_cast<float>(opts_.default_input_slew_ns);
  }

  for (std::size_t li = 0; li < launch_nodes_.size(); ++li) {
    const InstId i = launch_inst_[li];
    if (i == kInvalidInst) {
      launch_base_[li] = 0.0f;
      continue;
    }
    const Cell& cell = d.cell_of(i);
    const int corner = inst_corner_[i];
    const NetId qnet = d.instance(i).conns[cell.output_pin()];
    const auto& arc = cell.arcs.at(0);  // clk->q, the flop's only arc
    const double in_slew = opts_.default_input_slew_ns;
    const double load = net_load_[qnet];
    launch_base_[li] =
        static_cast<float>(arc.corner[corner].delay.lookup(in_slew, load));
    slew[launch_nodes_[li]] =
        static_cast<float>(arc.corner[corner].out_slew.lookup(in_slew, load));
  }

  const std::vector<Edge>& edges = graph_->edges;
  for (std::size_t ei = 0; ei < edges.size(); ++ei) {
    const Edge& e = edges[ei];
    if (e.inst != kInvalidInst) {
      const Cell& cell = d.cell_of(e.inst);
      const int corner = inst_corner_[e.inst];
      const auto from_pin =
          static_cast<std::uint16_t>(e.from - pin_offset_[e.inst]);
      const TimingArc* arc = cell.arc_from(from_pin);
      if (arc == nullptr) throw std::logic_error("compute_base: missing arc");
      const NetId out_net = d.instance(e.inst).conns[arc->to_pin];
      const double in_slew = slew[e.from];
      const double load = net_load_[out_net];
      edge_base_[ei] =
          static_cast<float>(arc->corner[corner].delay.lookup(in_slew, load));
      const auto os = static_cast<float>(
          arc->corner[corner].out_slew.lookup(in_slew, load));
      slew[e.to] = std::max(slew[e.to], os);
    } else {
      // Net edge: delay fixed at build time; degrade slew downstream.
      slew[e.to] = std::max(
          slew[e.to], static_cast<float>(slew[e.from] + 2.0 * edge_base_[ei]));
    }
  }
}

StaResult StaEngine::analyze(std::span<const double> inst_factor) const {
  std::fill(arrival_.begin(), arrival_.end(), kNegInf);
  std::fill(pred_edge_.begin(), pred_edge_.end(), -1);
  auto factor = [&](InstId i) {
    return inst_factor.empty() ? 1.0 : inst_factor[i];
  };

  for (std::size_t li = 0; li < launch_nodes_.size(); ++li) {
    const InstId i = launch_inst_[li];
    const double f = i == kInvalidInst ? 1.0 : factor(i);
    arrival_[launch_nodes_[li]] = std::max(
        arrival_[launch_nodes_[li]], static_cast<double>(launch_base_[li]) * f);
  }

  const std::vector<Edge>& edges = graph_->edges;
  for (std::size_t ei = 0; ei < edges.size(); ++ei) {
    const Edge& e = edges[ei];
    const double a = arrival_[e.from];
    if (a == kNegInf) continue;
    const double f = e.inst == kInvalidInst ? 1.0 : factor(e.inst);
    const double cand = a + static_cast<double>(edge_base_[ei]) * f;
    if (cand > arrival_[e.to]) {
      arrival_[e.to] = cand;
      pred_edge_[e.to] = static_cast<std::int32_t>(ei);
    }
  }

  return extract_scalar_result(arrival_);
}

StaResult StaEngine::extract_scalar_result(
    std::span<const double> arrival) const {
  StaResult res;
  res.clock_period_ns = opts_.clock_period_ns;
  res.stage_wns.fill(std::numeric_limits<double>::infinity());
  res.endpoint_slack.resize(endpoints_.size());
  for (std::size_t k = 0; k < endpoints_.size(); ++k) {
    const double a = arrival[endpoints_[k].node];
    const double slack = a == kNegInf
                             ? std::numeric_limits<double>::infinity()
                             : opts_.clock_period_ns - endpoint_setup_[k] - a;
    res.endpoint_slack[k] = slack;
    res.wns = std::min(res.wns, slack);
    if (slack < 0.0 && std::isfinite(slack)) res.tns += slack;
    if (std::isfinite(slack)) {
      res.min_period_ns =
          std::max(res.min_period_ns, opts_.clock_period_ns - slack);
    }
    auto& sw = res.stage_wns[static_cast<std::size_t>(endpoints_[k].stage)];
    sw = std::min(sw, slack);
  }
  return res;
}

void StaEngine::analyze_batch(std::span<const std::vector<double>> inst_factor,
                              std::span<StaResult> results) const {
  if (results.size() != inst_factor.size()) {
    throw std::invalid_argument("analyze_batch: factor/result size mismatch");
  }
  if (inst_factor.empty()) return;
  pack_factors(inst_factor, {}, true);
  analyze_batch_core(factor_soa_.v.data(), inst_factor.size(), results,
                     full_view());
}

void StaEngine::analyze_batch(std::span<const std::vector<double>> inst_factor,
                              std::span<StaResult> results,
                              const TimingCone& cone) const {
  if (results.size() != inst_factor.size()) {
    throw std::invalid_argument("analyze_batch: factor/result size mismatch");
  }
  if (inst_factor.empty()) return;
  const GraphView view = cone_view(cone);
  pack_factors(inst_factor, cone.instances, false);
  analyze_batch_core(factor_soa_.v.data(), inst_factor.size(), results, view);
}

void StaEngine::pack_factors(std::span<const std::vector<double>> inst_factor,
                             std::span<const std::uint32_t> insts,
                             bool all) const {
  const std::size_t width = inst_factor.size();
  const std::size_t num_inst = design_->num_instances();
  // Pack per-sample factor vectors into SoA lanes: factor_soa_[i*W + b].
  // An empty lane stays at the nominal 1.0 (== analyze({})).  Instance-
  // major transpose order: each i writes one contiguous W-row while
  // reading one element from each lane — W sequential read streams
  // instead of W strided write passes over the whole array.
  std::vector<const double*> lane_ptr(width);
  for (std::size_t b = 0; b < width; ++b) {
    const std::vector<double>& f = inst_factor[b];
    if (!f.empty() && f.size() < num_inst) {
      throw std::invalid_argument("analyze_batch: short factor vector");
    }
    lane_ptr[b] = f.empty() ? nullptr : f.data();
  }
  if (factor_soa_.v.size() < num_inst * width) {
    factor_soa_.v.resize(num_inst * width);
  }
  const auto pack_row = [&](std::size_t i) {
    double* row = &factor_soa_.v[i * width];
    for (std::size_t b = 0; b < width; ++b) {
      row[b] = lane_ptr[b] == nullptr ? 1.0 : lane_ptr[b][i];
    }
  };
  if (all) {
    for (std::size_t i = 0; i < num_inst; ++i) pack_row(i);
  } else {
    for (const std::uint32_t i : insts) pack_row(i);
  }
}

void StaEngine::analyze_batch_soa(std::span<const double> factor_soa,
                                  std::size_t width,
                                  std::span<StaResult> results) const {
  if (results.size() != width) {
    throw std::invalid_argument(
        "analyze_batch_soa: factor/result size mismatch");
  }
  if (width == 0) return;
  if (factor_soa.size() < design_->num_instances() * width) {
    throw std::invalid_argument("analyze_batch_soa: short factor buffer");
  }
  analyze_batch_core(factor_soa.data(), width, results, full_view());
}

void StaEngine::analyze_batch_soa(std::span<const double> factor_soa,
                                  std::size_t width,
                                  std::span<StaResult> results,
                                  const TimingCone& cone) const {
  if (results.size() != width) {
    throw std::invalid_argument(
        "analyze_batch_soa: factor/result size mismatch");
  }
  if (width == 0) return;
  if (factor_soa.size() < design_->num_instances() * width) {
    throw std::invalid_argument("analyze_batch_soa: short factor buffer");
  }
  analyze_batch_core(factor_soa.data(), width, results, cone_view(cone));
}

StaEngine::GraphView StaEngine::cone_view(const TimingCone& cone) const {
  if (cone.graph.get() != graph_.get() ||
      cone.clock_period_ns != opts_.clock_period_ns) {
    throw std::invalid_argument(
        "StaEngine: timing cone built for another graph or clock");
  }
  return {cone.arcs, cone.first_write, cone.neg_inf_rows, cone.launches,
          cone.endpoints};
}

void StaEngine::init_arrival_soa(
    std::size_t width, std::span<const std::uint32_t> neg_inf_rows) const {
  const std::size_t need = static_cast<std::size_t>(node_count_) * width;
  if (arrival_soa_.v.size() < need) arrival_soa_.v.resize(need);
  for (const std::uint32_t v : neg_inf_rows) {
    double* a = &arrival_soa_.v[static_cast<std::size_t>(v) * width];
    std::fill(a, a + width, kNegInf);
  }
}

void StaEngine::analyze_batch_core(const double* factor_soa, std::size_t width,
                                   std::span<StaResult> results,
                                   const GraphView& view) const {
  init_arrival_soa(width, view.neg_inf_rows);

  for (const std::uint32_t li : view.launches) {
    const InstId i = launch_inst_[li];
    const double base = static_cast<double>(launch_base_[li]);
    double* a = &arrival_soa_.v[static_cast<std::size_t>(launch_nodes_[li]) * width];
    if (i == kInvalidInst) {
      for (std::size_t b = 0; b < width; ++b) a[b] = std::max(a[b], base);
    } else {
      const double* f = &factor_soa[static_cast<std::size_t>(i) * width];
      for (std::size_t b = 0; b < width; ++b) {
        a[b] = std::max(a[b], base * f[b]);
      }
    }
  }

  // One graph traversal for the whole batch.  No pred-edge bookkeeping
  // in batch mode.  The relaxation sweep runs through the runtime-
  // dispatched SIMD kernel (DESIGN.md §17); every dispatch target is
  // per-lane bit-identical to the scalar lane, so the arch choice is
  // invisible in the results.
  simd::active_kernels().relax_arcs(view.arcs.data(), view.first_write.data(),
                                    view.arcs.size(), edge_base_.data(),
                                    factor_soa, arrival_soa_.v.data(), width);

  extract_batch_results(width, results, view.endpoints);
}

void StaEngine::extract_batch_results(
    std::size_t width, std::span<StaResult> results,
    std::span<const std::uint32_t> endpoints) const {
  // Per-lane endpoint extraction, identical arithmetic (and endpoint
  // order) to the scalar path.  A cone's dead endpoints have slack >= 0
  // above their stage's minimum (DESIGN.md §22): skipping them changes
  // no min, max or negative-slack sum.
  const bool all = endpoints.size() == endpoints_.size();
  for (std::size_t b = 0; b < width; ++b) {
    // Reset every StaResult field explicitly (rather than assigning a
    // fresh StaResult{}) so a reused results[b] keeps its
    // endpoint_slack allocation across batches.
    StaResult& res = results[b];
    res.clock_period_ns = opts_.clock_period_ns;
    res.wns = std::numeric_limits<double>::infinity();
    res.tns = 0.0;
    res.min_period_ns = 0.0;
    res.stage_wns.fill(std::numeric_limits<double>::infinity());
    res.endpoint_slack.resize(endpoints_.size());
    if (!all) {
      std::fill(res.endpoint_slack.begin(), res.endpoint_slack.end(),
                std::numeric_limits<double>::quiet_NaN());
    }
    for (const std::uint32_t k : endpoints) {
      const double a =
          arrival_soa_.v[static_cast<std::size_t>(endpoints_[k].node) * width + b];
      const double slack = a == kNegInf
                               ? std::numeric_limits<double>::infinity()
                               : opts_.clock_period_ns - endpoint_setup_[k] - a;
      res.endpoint_slack[k] = slack;
      res.wns = std::min(res.wns, slack);
      if (slack < 0.0 && std::isfinite(slack)) res.tns += slack;
      if (std::isfinite(slack)) {
        res.min_period_ns =
            std::max(res.min_period_ns, opts_.clock_period_ns - slack);
      }
      auto& sw = res.stage_wns[static_cast<std::size_t>(endpoints_[k].stage)];
      sw = std::min(sw, slack);
    }
  }
}

StaEngine::BaseSnapshot StaEngine::snapshot_bases() const {
  BaseSnapshot snap;
  snap.edge_base = edge_base_;
  snap.launch_base = launch_base_;
  snap.inst_corner = inst_corner_;
  return snap;
}

void StaEngine::restore_bases(const BaseSnapshot& snap) {
  if (snap.edge_base.size() != edge_base_.size() ||
      snap.launch_base.size() != launch_base_.size() ||
      snap.inst_corner.size() != inst_corner_.size()) {
    throw std::invalid_argument("restore_bases: snapshot/graph mismatch");
  }
  edge_base_ = snap.edge_base;
  launch_base_ = snap.launch_base;
  inst_corner_ = snap.inst_corner;
}

double StaEngine::analyze_lazy(const BaseSnapshot& bases,
                               std::span<const double> bounds,
                               const std::function<double(InstId)>& exact,
                               std::vector<std::uint8_t>& violating) const {
  if (bases.edge_base.size() != edge_base_.size() ||
      bases.launch_base.size() != launch_base_.size()) {
    throw std::invalid_argument("analyze_lazy: snapshot/graph mismatch");
  }
  if (bounds.size() < 2 * design_->num_instances()) {
    throw std::invalid_argument("analyze_lazy: short factor bounds");
  }
  // One sweep, two lanes over the engine's scratch: arrival_ carries
  // every arrival's lower bound and arrival_soa_ (width 1) its upper
  // bound, each delay and wire from this snapshot's bases, each delay
  // bounded by the factor bracket.
  sweep_bounds<false>(bases.edge_base.data(), bases.launch_base.data(),
                      bounds);
  const double* lo_arr = arrival_.data();
  const double* hi_arr = arrival_soa_.v.data();

  // Slack is decreasing in arrival: the upper lane gives each endpoint's
  // lower slack bound, the lower lane its upper one.  Only endpoints
  // whose lower bound reaches the least upper bound can hold the worst
  // slack, and only those whose bounds straddle 0 have an unknown sign;
  // both are refined.  Folding exact slacks in endpoint order matches
  // extract_scalar_result's min bit for bit: every skipped endpoint's
  // slack is strictly above the minimum.
  const double clock = opts_.clock_period_ns;
  const auto slack_at = [&](std::size_t k, double a) {
    return a == kNegInf ? std::numeric_limits<double>::infinity()
                        : clock - endpoint_setup_[k] - a;
  };
  double wns_upper = std::numeric_limits<double>::infinity();
  for (std::size_t k = 0; k < endpoints_.size(); ++k) {
    wns_upper = std::min(wns_upper, slack_at(k, lo_arr[endpoints_[k].node]));
  }
  const LazyPass pass{bases, bounds, exact};
  double wns = std::numeric_limits<double>::infinity();
  violating.assign(endpoints_.size(), 0);
  for (std::size_t k = 0; k < endpoints_.size(); ++k) {
    const std::uint32_t v = endpoints_[k].node;
    const double slack_lo = slack_at(k, hi_arr[v]);
    const double slack_hi = slack_at(k, lo_arr[v]);
    if (slack_lo <= wns_upper || (slack_lo < 0.0 && !(slack_hi < 0.0))) {
      const double slack = slack_at(k, lazy_exact_arrival(v, pass));
      wns = std::min(wns, slack);
      violating[k] = slack < 0.0 ? 1 : 0;
    } else {
      violating[k] = slack_hi < 0.0 ? 1 : 0;
    }
  }
  return wns;
}

TimingCone StaEngine::build_cone(std::span<const double> bounds) const {
  if (bounds.size() < 2 * design_->num_instances()) {
    throw std::invalid_argument("build_cone: short factor bounds");
  }
  sweep_bounds<true>(edge_base_.data(), launch_base_.data(), bounds);
  const double* lo_arr = arrival_.data();
  const double* hi_arr = arrival_soa_.v.data();

  // The lower lane bounds every slack from above, the upper lane from
  // below.  U[s] is the least upper bound in stage s, so stage s's worst
  // slack is <= U[s]; an endpoint whose lower bound is >= 0 and above
  // fl(U[s] + 1e-12) can neither be negative nor pass the tally's
  // `slack <= stage_wns + 1e-12` (DESIGN.md §22).  A NaN bound fails both
  // tests, so it keeps its endpoint live; the endpoint attaining U[s]
  // always stays live, so no stage loses its worst slack.
  const double clock = opts_.clock_period_ns;
  const auto slack_at = [&](std::size_t k, double a) {
    return a == kNegInf ? std::numeric_limits<double>::infinity()
                        : clock - endpoint_setup_[k] - a;
  };
  std::array<double, kNumPipeStages> upper;
  upper.fill(std::numeric_limits<double>::infinity());
  for (std::size_t k = 0; k < endpoints_.size(); ++k) {
    double& u = upper[static_cast<std::size_t>(endpoints_[k].stage)];
    u = std::min(u, slack_at(k, lo_arr[endpoints_[k].node]));
  }
  const Graph& g = *graph_;
  TimingCone cone;
  cone.graph = graph_;
  cone.clock_period_ns = clock;
  std::vector<std::uint8_t> live(node_count_, 0);
  std::vector<std::uint32_t> stack;
  for (std::uint32_t k = 0; k < endpoints_.size(); ++k) {
    const double lower = slack_at(k, hi_arr[endpoints_[k].node]);
    const double cut =
        upper[static_cast<std::size_t>(endpoints_[k].stage)] + 1e-12;
    if (lower >= 0.0 && lower > cut) continue;  // dead
    cone.endpoints.push_back(k);
    const std::uint32_t v = endpoints_[k].node;
    if (live[v] == 0) {
      live[v] = 1;
      stack.push_back(v);
    }
  }
  // Reverse closure over the in-arc index: every source of a live node
  // is live.
  const auto num_arcs = static_cast<std::uint32_t>(g.arcs.size());
  while (!stack.empty()) {
    const std::uint32_t v = stack.back();
    stack.pop_back();
    for (std::uint32_t s = g.in_head[v]; s < g.in_head[v + 1]; ++s) {
      if (g.in_src[s] >= num_arcs) continue;  // a launch: no source node
      const std::uint32_t u = g.arcs[g.in_src[s]].from;
      if (live[u] == 0) {
        live[u] = 1;
        stack.push_back(u);
      }
    }
  }
  std::vector<std::uint8_t> inst_live(design_->num_instances(), 0);
  // Sized up front: one allocation per list keeps a per-run cone from
  // churning the allocator's heap.
  std::size_t live_arcs = 0;
  for (const simd::RelaxArc& a : g.arcs) live_arcs += live[a.to];
  cone.arcs.reserve(live_arcs);
  cone.first_write.reserve(live_arcs);
  for (std::size_t ai = 0; ai < g.arcs.size(); ++ai) {
    const simd::RelaxArc& a = g.arcs[ai];
    if (live[a.to] == 0) continue;
    cone.arcs.push_back(a);
    cone.first_write.push_back(g.first_write[ai]);
    if (a.inst != kInvalidInst) inst_live[a.inst] = 1;
  }
  for (std::uint32_t li = 0; li < launch_nodes_.size(); ++li) {
    if (live[launch_nodes_[li]] == 0) continue;
    cone.launches.push_back(li);
    if (launch_inst_[li] != kInvalidInst) inst_live[launch_inst_[li]] = 1;
  }
  for (const std::uint32_t v : g.neg_inf_rows) {
    if (live[v] != 0) cone.neg_inf_rows.push_back(v);
  }
  for (std::uint32_t i = 0; i < inst_live.size(); ++i) {
    if (inst_live[i] != 0) cone.instances.push_back(i);
  }
  return cone;
}

double StaEngine::lazy_source_hi(std::uint32_t s, const LazyPass& pass) const {
  // The sweep's upper-lane candidate, from the source's current upper
  // bound (exact once refined).
  const std::vector<simd::RelaxArc>& arcs = graph_->arcs;
  if (s < arcs.size()) {
    const simd::RelaxArc& a = arcs[s];
    double hi = arrival_soa_.v[a.from];
    if (a.wire != simd::kNoRelaxWire) {
      hi += static_cast<double>(pass.bases.edge_base[a.wire]);
    }
    return hi + delay_bounds(static_cast<double>(pass.bases.edge_base[a.delay]),
                             pass.bounds, a.inst)
                    .second;
  }
  const std::size_t li = s - arcs.size();
  return delay_bounds(static_cast<double>(pass.bases.launch_base[li]),
                      pass.bounds, launch_inst_[li])
      .second;
}

double StaEngine::lazy_source_exact(std::uint32_t s,
                                    const LazyPass& pass) const {
  // analyze()'s own expressions: a + base * f for an edge, through a
  // folded net's sink pin (a + wire) + base * f, base * f for a launch,
  // f = 1 where no instance scales the delay.
  const std::vector<simd::RelaxArc>& arcs = graph_->arcs;
  if (s < arcs.size()) {
    const simd::RelaxArc& a = arcs[s];
    double arr = lazy_exact_arrival(a.from, pass);
    if (a.wire != simd::kNoRelaxWire) {
      arr += static_cast<double>(pass.bases.edge_base[a.wire]);
    }
    const double f = a.inst == kInvalidInst ? 1.0 : pass.exact(a.inst);
    return arr + static_cast<double>(pass.bases.edge_base[a.delay]) * f;
  }
  const std::size_t li = s - arcs.size();
  const InstId i = launch_inst_[li];
  const double f = i == kInvalidInst ? 1.0 : pass.exact(i);
  return static_cast<double>(pass.bases.launch_base[li]) * f;
}

double StaEngine::lazy_exact_arrival(std::uint32_t v,
                                     const LazyPass& pass) const {
  double& lo = arrival_[v];
  double& hi = arrival_soa_.v[v];
  if (lo == hi) return lo;  // equal bounds pin the exact value
  // A source whose upper bound stays below the node's lower bound, or at
  // or below an exact candidate already in hand, cannot raise the max;
  // the rest are evaluated, the highest upper bound first.
  const Graph& g = *graph_;
  const std::uint32_t begin = g.in_head[v];
  const std::uint32_t end = g.in_head[v + 1];
  const double floor = lo;
  std::uint32_t top = end;
  double top_hi = floor;
  for (std::uint32_t s = begin; s < end; ++s) {
    const double up = lazy_source_hi(g.in_src[s], pass);
    if (up >= top_hi) {
      top = s;
      top_hi = up;
    }
  }
  double best = kNegInf;
  if (top != end) best = lazy_source_exact(g.in_src[top], pass);
  for (std::uint32_t s = begin; s < end; ++s) {
    if (s == top) continue;
    const double up = lazy_source_hi(g.in_src[s], pass);
    if (up >= floor && up > best) {
      best = std::max(best, lazy_source_exact(g.in_src[s], pass));
    }
  }
  lo = best;
  hi = best;
  return best;
}

double StaEngine::min_period(std::span<const double> inst_factor) const {
  return analyze(inst_factor).min_period_ns;
}

std::vector<double> StaEngine::instance_slack(
    std::span<const double> inst_factor) const {
  constexpr double kPosInf = std::numeric_limits<double>::infinity();
  analyze(inst_factor);  // fills arrival_
  auto factor = [&](InstId i) {
    return inst_factor.empty() ? 1.0 : inst_factor[i];
  };

  std::vector<double> required(node_count_, kPosInf);
  for (std::size_t k = 0; k < endpoints_.size(); ++k) {
    required[endpoints_[k].node] =
        std::min(required[endpoints_[k].node],
                 opts_.clock_period_ns - endpoint_setup_[k]);
  }
  // Edges are stored in topological order of their source; walking them
  // backward relaxes required times correctly.
  const std::vector<Edge>& edges = graph_->edges;
  for (std::size_t ei = edges.size(); ei-- > 0;) {
    const Edge& e = edges[ei];
    if (required[e.to] == kPosInf) continue;
    const double f = e.inst == kInvalidInst ? 1.0 : factor(e.inst);
    required[e.from] = std::min(
        required[e.from], required[e.to] - static_cast<double>(edge_base_[ei]) * f);
  }

  std::vector<double> slack(design_->num_instances(), kPosInf);
  for (InstId i = 0; i < design_->num_instances(); ++i) {
    const auto lo = pin_offset_[i];
    const auto hi = lo + design_->cell_of(i).pins.size();
    for (auto node = lo; node < hi; ++node) {
      if (required[node] == kPosInf || arrival_[node] == kNegInf) continue;
      slack[i] = std::min(slack[i], required[node] - arrival_[node]);
    }
  }
  return slack;
}

void StaEngine::for_each_cell_arc(
    const std::function<void(InstId, std::uint16_t, std::uint16_t, double)>&
        fn) const {
  const std::vector<Edge>& edges = graph_->edges;
  for (std::size_t ei = 0; ei < edges.size(); ++ei) {
    const Edge& e = edges[ei];
    if (e.inst == kInvalidInst) continue;
    const auto from_pin =
        static_cast<std::uint16_t>(e.from - pin_offset_[e.inst]);
    const auto to_pin = static_cast<std::uint16_t>(e.to - pin_offset_[e.inst]);
    fn(e.inst, from_pin, to_pin, static_cast<double>(edge_base_[ei]));
  }
  for (std::size_t li = 0; li < launch_nodes_.size(); ++li) {
    const InstId i = launch_inst_[li];
    if (i == kInvalidInst) continue;
    const Cell& cell = design_->cell_of(i);
    // Clock pin is pin 1, Q is the output pin by library construction.
    fn(i, 1, cell.output_pin(), static_cast<double>(launch_base_[li]));
  }
}

std::vector<PathStep> StaEngine::trace_path(
    std::size_t endpoint_index, std::span<const double> inst_factor) const {
  analyze(inst_factor);  // fills arrival_/pred_edge_
  return trace_from_last_analysis(endpoint_index);
}

std::vector<PathStep> StaEngine::trace_from_last_analysis(
    std::size_t endpoint_index) const {
  std::vector<PathStep> rev;
  std::uint32_t node = endpoints_.at(endpoint_index).node;
  while (true) {
    PathStep step;
    step.arrival_ns = arrival_[node] == kNegInf ? 0.0 : arrival_[node];
    // Map the node back to instance/pin via the sorted pin_offset_ table.
    auto it = std::upper_bound(pin_offset_.begin(), pin_offset_.end(), node);
    if (it != pin_offset_.begin()) {
      const auto i =
          static_cast<InstId>(std::distance(pin_offset_.begin(), it) - 1);
      const auto lo = pin_offset_[i];
      if (node < lo + design_->cell_of(i).pins.size()) {
        step.inst = i;
        step.pin_name = design_->instance(i).name + "/" +
                        design_->cell_of(i).pins[node - lo].name;
      }
    }
    if (step.inst == kInvalidInst) step.pin_name = "<port>";
    const std::int32_t pe = pred_edge_[node];
    if (pe >= 0) {
      const Edge& e = graph_->edges[static_cast<std::size_t>(pe)];
      // Increment from the arrival difference: exact under any factors.
      const double from_arr = arrival_[e.from] == kNegInf ? 0.0 : arrival_[e.from];
      step.incr_ns = step.arrival_ns - from_arr;
      rev.push_back(step);
      node = e.from;
    } else {
      step.incr_ns = step.arrival_ns;
      rev.push_back(step);
      break;
    }
  }
  return {rev.rbegin(), rev.rend()};
}

}  // namespace vipvt
