#include "power/power.hpp"

#include <algorithm>
#include <stdexcept>

#include "placement/placer.hpp"

namespace vipvt {

ActivityDb ActivityDb::uniform(const Design& design, double rate) {
  ActivityDb db;
  db.toggle_rate.assign(design.num_nets(), rate);
  return db;
}

PowerEngine::PowerEngine(const Design& design, const ActivityDb& activity)
    : design_(&design), activity_(&activity) {
  if (activity.toggle_rate.size() != design.num_nets()) {
    throw std::invalid_argument("PowerEngine: activity/net count mismatch");
  }
  // Per-net total capacitance (wire + sink pins), reused by every
  // compute(): a pure function of placement, so hoisting it out of the
  // per-call loop changes no bits.
  const WireParams& wp = design.lib().wire();
  net_cap_.assign(design.num_nets(), 0.0);
  for (NetId n = 0; n < design.num_nets(); ++n) {
    const Net& net = design.net(n);
    if (net.is_clock) continue;  // clock tree power out of scope, constant
    double cap = wp.capacitance(net_hpwl(design, n));
    for (const auto& sink : net.sinks) {
      cap += design.cell_of(sink.inst).pins[sink.pin].cap_pf;
    }
    net_cap_[n] = cap;
  }
  // Domain count, likewise fixed once islands are assigned.
  std::size_t max_domain = 0;
  for (const auto& inst : design.instances()) {
    max_domain = std::max<std::size_t>(max_domain, inst.domain);
  }
  num_domains_ = max_domain + 1;
}

PowerBreakdown PowerEngine::compute(std::span<const int> domain_corner,
                                    const PowerConfig& cfg) const {
  const Design& d = *design_;
  const Library& lib = d.lib();
  const double f = cfg.clock_freq_ghz;
  const double vdd[kNumCorners] = {lib.char_params().vdd_low,
                                   lib.char_params().vdd_high};

  PowerBreakdown out;
  out.per_unit_mw.assign(d.unit_names().size(), 0.0);
  out.per_domain_mw.assign(num_domains_, 0.0);

  auto corner_of = [&](DomainId dom) -> int {
    return dom < domain_corner.size() ? domain_corner[dom] : kVddLow;
  };

  for (InstId i = 0; i < d.num_instances(); ++i) {
    const Instance& inst = d.instance(i);
    const Cell& cell = d.cell_of(i);
    const int corner = corner_of(inst.domain);
    const double v = vdd[corner];

    double inst_mw = 0.0;

    // Switching power of the net(s) this instance drives.
    for (std::size_t p = 0; p < cell.pins.size(); ++p) {
      if (cell.pins[p].is_input) continue;
      const NetId n = inst.conns[p];
      const double tr = activity_->toggle_rate[n];
      inst_mw += 0.5 * net_cap_[n] * v * v * tr * f;
    }
    out.switching_mw += inst_mw;

    // Internal energy per output toggle.
    const NetId out_net = inst.conns[cell.output_pin()];
    const double tr = activity_->toggle_rate[out_net];
    const double internal = cell.internal_energy_pj[corner] * tr * f;
    out.internal_mw += internal;
    inst_mw += internal;

    // Leakage: the library value already carries the corner scale at
    // nominal Lgate; with a variation context we recompute the factor
    // from the systematic Lgate at the cell's location instead — read
    // from the caller's precomputed map when one is supplied (it holds
    // the identical polynomial evaluations).
    double leak;
    if (cfg.variation != nullptr && inst.placed && i < cfg.systematic.size()) {
      leak = cell.leakage_mw[kVddLow] *
             cfg.variation->leakage_factor(cfg.systematic[i], corner);
    } else if (cfg.variation != nullptr && cfg.location != nullptr &&
               inst.placed) {
      const double lg =
          cfg.variation->systematic_lgate(inst.pos, *cfg.location);
      leak = cell.leakage_mw[kVddLow] *
             cfg.variation->leakage_factor(lg, corner);
    } else {
      leak = cell.leakage_mw[corner];
    }
    out.leakage_mw += leak;
    inst_mw += leak;

    if (cell.is_level_shifter()) {
      out.level_shifter_mw += inst_mw;
      out.level_shifter_leakage_mw += leak;
    }
    out.per_unit_mw.at(inst.unit) += inst_mw;
    out.per_stage_mw[static_cast<std::size_t>(inst.stage)] += inst_mw;
    out.per_domain_mw.at(inst.domain) += inst_mw;
  }
  return out;
}

}  // namespace vipvt
