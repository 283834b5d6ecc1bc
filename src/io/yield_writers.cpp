#include "io/yield_writers.hpp"

#include <ostream>
#include <stdexcept>

#include "io/format.hpp"
#include "io/ndjson.hpp"

namespace vipvt {

void write_yield_csv(std::ostream& os, const WaferModel& wafer,
                     const YieldReport& report) {
  if (report.dies.size() != wafer.num_dies()) {
    throw std::invalid_argument("write_yield_csv: report/wafer die mismatch");
  }
  os << "die_id,grid_col,grid_row,center_x_mm,center_y_mm,field_x_mm,"
        "field_y_mm,mc_severity,mc_samples,mc_stop,detected_severity,policy,"
        "islands_raised,timing_met,escalated,missed_violation,wns_all_low_ns,"
        "wns_final_ns,fmax_ghz,total_mw,leakage_mw,triage,triage_margin_ns,"
        "triage_band_ns,policy_mix\n";
  for (const DieOutcome& d : report.dies) {
    const WaferDie& g = wafer.dies()[static_cast<std::size_t>(d.die_id)];
    os << d.die_id << ',' << wafer.grid_col(g) << ',' << wafer.grid_row(g)
       << ',' << num(g.center_mm.x, 3) << ',' << num(g.center_mm.y, 3) << ','
       << num(g.location.chip_origin_mm.x, 3) << ','
       << num(g.location.chip_origin_mm.y, 3) << ',' << d.mc_severity << ','
       << d.mc_samples << ',' << mc_stop_name(d.mc_stop) << ','
       << d.detected_severity << ',' << tuning_policy_name(d.policy) << ','
       << d.islands_raised << ',' << int{d.timing_met} << ','
       << int{d.escalated} << ',' << int{d.missed_violation} << ','
       << num(d.wns_all_low_ns) << ',' << num(d.wns_final_ns) << ','
       << num(d.fmax_ghz) << ',' << num(d.total_mw) << ','
       << num(d.leakage_mw) << ',' << triage_tier_name(d.triage_tier) << ','
       << num(d.triage_margin_ns) << ',' << num(d.triage_band_ns) << ','
       << csv_field(report.portfolio.mix) << '\n';
  }
}

void write_yield_json(std::ostream& os, const YieldReport& report) {
  const YieldAggregate& a = report.agg;
  os << "{\n";
  os << "  \"wafer\": {\"diameter_mm\": " << num(report.wafer.wafer_diameter_mm, 1)
     << ", \"edge_exclusion_mm\": " << num(report.wafer.edge_exclusion_mm, 1)
     << ", \"field_mm\": " << num(report.wafer.field_mm, 1)
     << ", \"die_mm\": " << num(report.wafer.die_mm, 1) << "},\n";
  os << "  \"mc_samples\": " << report.config.mc.samples << ",\n";
  // Sample accounting (DESIGN.md §14): the same keys with adaptive
  // sampling on or off, so dashboards diff the two modes without a schema
  // switch.  Savings count early-stopping and screen-decided dies alike;
  // only a fixed-budget flat run reads drawn == budget.
  os << "  \"mc_adaptive\": "
     << (report.config.mc.adaptive.enabled ? "true" : "false") << ",\n";
  os << "  \"mc_samples_drawn\": " << a.mc_samples_drawn << ",\n";
  os << "  \"mc_samples_budget\": " << a.mc_samples_budget << ",\n";
  os << "  \"mc_sample_savings\": " << num(a.mc_sample_savings())
     << ",\n";
  os << "  \"mc_converged_dies\": " << a.mc_converged_dies << ",\n";
  // Analytic screen accounting (DESIGN.md §16 triage, §19 macromodel):
  // all counts are 0, the fraction 0, and the tier "flat" when no
  // screen is on, so the schema never switches.
  os << "  \"triage\": {\"enabled\": "
     << (report.config.effective_tier() != EvalTier::Flat ? "true" : "false")
     << ", \"tier\": \"" << eval_tier_name(report.config.effective_tier())
     << "\", \"analytical\": " << a.triage_analytical
     << ", \"macro\": " << a.triage_macro
     << ", \"mc_fallback\": " << a.triage_mc_fallback
     << ", \"fraction\": " << num(a.triage_fraction())
     << ", \"confidence\": " << num(report.config.triage.confidence)
     << ", \"band_scale\": " << num(report.config.triage.band_scale)
     << ", \"model_error_ns\": " << num(report.config.triage.model_error_ns)
     << "},\n";
  // Compensation-policy portfolio provenance (DESIGN.md §18): the
  // default vi-only stamp when the analyzer runs on an untransformed
  // netlist, so the schema never switches.
  os << "  \"portfolio\": {\"mix\": \"" << json_escape(report.portfolio.mix)
     << "\", \"sizing\": " << (report.portfolio.sizing ? "true" : "false")
     << ", \"buffering\": " << (report.portfolio.buffering ? "true" : "false")
     << ", \"gates_upsized\": " << report.portfolio.gates_upsized
     << ", \"buffers_inserted\": " << report.portfolio.buffers_inserted
     << ", \"nets_buffered\": " << report.portfolio.nets_buffered
     << ", \"crit_samples\": " << report.portfolio.crit_samples
     << ", \"area_um2\": " << num(report.portfolio.area_um2)
     << ", \"area_delta_um2\": " << num(report.portfolio.area_delta_um2)
     << "},\n";
  os << "  \"seed\": " << report.config.seed << ",\n";
  os << "  \"total_dies\": " << report.total_dies() << ",\n";
  os << "  \"shipped_dies\": " << a.shipped_dies() << ",\n";
  os << "  \"parametric_yield\": " << num(a.parametric_yield()) << ",\n";

  os << "  \"policy_count\": {";
  for (int p = 0; p < kNumTuningPolicies; ++p) {
    os << (p ? ", " : "") << '"'
       << tuning_policy_name(static_cast<TuningPolicy>(p))
       << "\": " << a.policy_count[static_cast<std::size_t>(p)];
  }
  os << "},\n";

  os << "  \"island_activation\": [";
  for (std::size_t k = 0; k < a.island_activation.size(); ++k) {
    os << (k ? ", " : "") << a.island_activation[k];
  }
  os << "],\n";

  os << "  \"power_mw\": {";
  for (int p = 0; p < kNumTuningPolicies; ++p) {
    os << (p ? ", " : "") << '"'
       << tuning_policy_name(static_cast<TuningPolicy>(p)) << "\": ";
    write_moments_json(os, a.power_mw[static_cast<std::size_t>(p)]);
  }
  os << "},\n";

  os << "  \"leakage_mw\": {";
  for (int p = 0; p < kNumTuningPolicies; ++p) {
    os << (p ? ", " : "") << '"'
       << tuning_policy_name(static_cast<TuningPolicy>(p)) << "\": ";
    write_moments_json(os, a.leakage_mw[static_cast<std::size_t>(p)]);
  }
  os << "},\n";

  os << "  \"fmax_ghz\": ";
  write_moments_json(os, a.fmax_ghz);
  os << ",\n";
  os << "  \"speed_bins\": {\"lo_ghz\": " << num(report.speed_bin_lo_ghz)
     << ", \"step_ghz\": " << num(report.speed_bin_step_ghz) << ", \"count\": [";
  for (std::size_t k = 0; k < report.speed_bin_count.size(); ++k) {
    os << (k ? ", " : "") << report.speed_bin_count[k];
  }
  os << "]}\n";
  os << "}\n";
}

void write_yield_csv_file(const std::string& path, const WaferModel& wafer,
                          const YieldReport& report) {
  open_and_write(path,
                 [&](std::ostream& os) { write_yield_csv(os, wafer, report); });
}

void write_yield_json_file(const std::string& path, const YieldReport& report) {
  open_and_write(path, [&](std::ostream& os) { write_yield_json(os, report); });
}

}  // namespace vipvt
