#include "io/campaign_writers.hpp"

#include <ostream>

#include "io/format.hpp"
#include "io/ndjson.hpp"

namespace vipvt {

void write_campaign_json(std::ostream& os, const CampaignReport& report) {
  const CampaignSpec& spec = report.spec;
  os << "{\n";
  os << "  \"schema\": \"vipvt.campaign.report\",\n";
  // Version 2: policies carry the portfolio knobs and every cell gains a
  // "portfolio" object (DESIGN.md §18).
  os << "  \"version\": 2,\n";
  os << "  \"seed\": " << spec.seed << ",\n";
  os << "  \"complete\": " << (report.complete() ? "true" : "false") << ",\n";

  os << "  \"variants\": [";
  for (std::size_t i = 0; i < report.variant_names.size(); ++i) {
    os << (i ? ", " : "") << '"' << json_escape(report.variant_names[i])
       << '"';
  }
  os << "],\n";

  os << "  \"wafer_grids\": [";
  for (std::size_t i = 0; i < spec.wafer_grids.size(); ++i) {
    const WaferConfig& wc = spec.wafer_grids[i];
    os << (i ? ", " : "") << "{\"diameter_mm\": " << num(wc.wafer_diameter_mm, 1)
       << ", \"edge_exclusion_mm\": " << num(wc.edge_exclusion_mm, 1)
       << ", \"field_mm\": " << num(wc.field_mm, 1)
       << ", \"die_mm\": " << num(wc.die_mm, 1) << "}";
  }
  os << "],\n";

  os << "  \"sigma_scales\": [";
  for (std::size_t i = 0; i < spec.sigma_scales.size(); ++i) {
    os << (i ? ", " : "") << num(spec.sigma_scales[i], 4);
  }
  os << "],\n";

  os << "  \"policies\": [";
  for (std::size_t i = 0; i < spec.policies.size(); ++i) {
    const PolicyMix& p = spec.policies[i];
    os << (i ? ", " : "") << "{\"name\": \"" << json_escape(p.name)
       << "\", \"escalation\": " << (p.allow_escalation ? "true" : "false")
       << ", \"chip_wide_fallback\": "
       << (p.allow_chip_wide_fallback ? "true" : "false")
       << ", \"sizing\": " << (p.sizing.enabled ? "true" : "false")
       << ", \"sizing_min_crit_prob\": " << num(p.sizing.min_crit_prob)
       << ", \"sizing_max_upsized\": " << p.sizing.max_upsized
       << ", \"sizing_max_drive_steps\": " << p.sizing.max_drive_steps
       << ", \"buffering\": " << (p.buffering.enabled ? "true" : "false")
       << ", \"buffering_min_crit_prob\": " << num(p.buffering.min_crit_prob)
       << ", \"buffering_max_nets\": " << p.buffering.max_nets
       << ", \"buffering_min_fanout\": " << p.buffering.min_fanout
       << ", \"buffering_cluster\": " << p.buffering.cluster
       << ", \"crit_samples\": " << p.crit_samples
       << ", \"crit_seed\": " << p.crit_seed << "}";
  }
  os << "],\n";

  os << "  \"mc_samples\": [";
  for (std::size_t i = 0; i < spec.mc_samples.size(); ++i) {
    os << (i ? ", " : "") << spec.mc_samples[i];
  }
  os << "],\n";
  os << "  \"mc_adaptive\": "
     << (spec.base.mc.adaptive.enabled ? "true" : "false") << ",\n";
  os << "  \"wafers_per_cell\": " << spec.wafers_per_cell << ",\n";

  os << "  \"total_dies\": " << report.total_dies() << ",\n";
  os << "  \"shipped_dies\": " << report.shipped_dies() << ",\n";
  os << "  \"parametric_yield\": " << num(report.parametric_yield()) << ",\n";

  os << "  \"cells\": [\n";
  for (std::size_t c = 0; c < report.cells.size(); ++c) {
    const CampaignCell& cell = report.cells[c].cell;
    const YieldAggregate& a = report.cells[c].agg;
    os << "    {\"cell\": " << cell.index << ", \"variant\": \""
       << json_escape(report.variant_names[cell.variant])
       << "\", \"wafer_grid\": "
       << cell.wafer_grid << ", \"sigma_scale\": "
       << num(spec.sigma_scales[cell.sigma], 4) << ", \"policy\": \""
       << json_escape(spec.policies[cell.policy].name) << "\", \"mc_samples\": "
       << spec.mc_samples[cell.samples] << ",\n";
    os << "     \"dies\": " << a.dies << ", \"shipped_dies\": "
       << a.shipped_dies() << ", \"parametric_yield\": "
       << num(a.parametric_yield()) << ",\n";

    os << "     \"policy_count\": {";
    for (int p = 0; p < kNumTuningPolicies; ++p) {
      os << (p ? ", " : "") << '"'
         << tuning_policy_name(static_cast<TuningPolicy>(p))
         << "\": " << a.policy_count[static_cast<std::size_t>(p)];
    }
    os << "},\n";

    os << "     \"island_activation\": [";
    for (std::size_t k = 0; k < a.island_activation.size(); ++k) {
      os << (k ? ", " : "") << a.island_activation[k];
    }
    os << "],\n";

    os << "     \"timing_met\": " << a.timing_met
       << ", \"escalated\": " << a.escalated
       << ", \"missed_violation\": " << a.missed_violation
       << ", \"mc_severity_sum\": " << a.mc_severity_sum << ",\n";
    os << "     \"mc_samples_drawn\": " << a.mc_samples_drawn
       << ", \"mc_samples_budget\": " << a.mc_samples_budget
       << ", \"mc_converged_dies\": " << a.mc_converged_dies << ",\n";
    os << "     \"triage_analytical\": " << a.triage_analytical
       << ", \"triage_macro\": " << a.triage_macro
       << ", \"triage_mc_fallback\": " << a.triage_mc_fallback << ",\n";

    const PortfolioStats& pf = report.cells[c].portfolio;
    os << "     \"portfolio\": {\"mix\": \"" << json_escape(pf.mix)
       << "\", \"sizing\": " << (pf.sizing ? "true" : "false")
       << ", \"buffering\": " << (pf.buffering ? "true" : "false")
       << ", \"gates_upsized\": " << pf.gates_upsized
       << ", \"buffers_inserted\": " << pf.buffers_inserted
       << ", \"nets_buffered\": " << pf.nets_buffered
       << ", \"crit_samples\": " << pf.crit_samples
       << ", \"area_um2\": " << num(pf.area_um2)
       << ", \"area_delta_um2\": " << num(pf.area_delta_um2) << "},\n";

    os << "     \"fmax_ghz\": ";
    write_moments_json(os, a.fmax_ghz);
    os << ",\n     \"wns_all_low_ns\": ";
    write_moments_json(os, a.wns_all_low_ns);
    os << ",\n     \"wns_final_ns\": ";
    write_moments_json(os, a.wns_final_ns);
    os << ",\n";

    os << "     \"power_mw\": {";
    for (int p = 0; p < kNumTuningPolicies; ++p) {
      os << (p ? ", " : "") << '"'
         << tuning_policy_name(static_cast<TuningPolicy>(p)) << "\": ";
      write_moments_json(os, a.power_mw[static_cast<std::size_t>(p)]);
    }
    os << "},\n";

    os << "     \"leakage_mw\": {";
    for (int p = 0; p < kNumTuningPolicies; ++p) {
      os << (p ? ", " : "") << '"'
         << tuning_policy_name(static_cast<TuningPolicy>(p)) << "\": ";
      write_moments_json(os, a.leakage_mw[static_cast<std::size_t>(p)]);
    }
    os << "}}" << (c + 1 < report.cells.size() ? "," : "") << "\n";
  }
  os << "  ]\n";
  os << "}\n";
}

void write_campaign_json_file(const std::string& path,
                              const CampaignReport& report) {
  open_and_write(path,
                 [&](std::ostream& os) { write_campaign_json(os, report); });
}

}  // namespace vipvt
