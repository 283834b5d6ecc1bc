// Wafer map: fabricate a full wafer of dies (virtual fab), pick each
// die's post-silicon tuning policy, and render the classic wafer-map
// mosaic — which die ships at all-low Vdd, which needed islands raised,
// which fell back to chip-wide high Vdd, which is discarded.  Also dumps
// the per-die CSV and aggregate JSON report.  Build & run:
//
//   cmake -B build && cmake --build build && ./build/examples/wafer_map
//
// Map glyphs: '0' all-low, '1'..'3' islands raised, 'H' chip-wide high,
// 'X' discard, '.' off-wafer.

#include <cstdio>

#include "io/yield_writers.hpp"
#include "vi/flow.hpp"
#include "yield/wafer.hpp"
#include "yield/yield.hpp"

int main() {
  using namespace vipvt;

  FlowConfig cfg;
  cfg.vex = VexConfig::tiny();  // small core for a fast demo
  cfg.floorplan.target_utilization = 0.55;
  cfg.scenario.mc.samples = 120;
  cfg.islands.mc_samples = 80;
  cfg.sim_cycles = 200;
  Flow flow(cfg);
  flow.simulate_activity();  // runs the whole design-time pipeline
  std::printf("core: %zu cells, %d nested islands, %zu Razor sensors\n",
              flow.design().num_instances(), flow.island_plan().num_islands(),
              flow.razor_plan().total());

  WaferConfig wc;  // 300 mm wafer, 28 mm exposure field, 2x2 dies each
  const WaferModel wafer(wc);
  std::printf("wafer: %zu dies (%d x %d mm), %d dies per field side\n",
              wafer.num_dies(), static_cast<int>(wc.die_mm),
              static_cast<int>(wc.die_mm), wafer.dies_per_field_side());

  YieldConfig yc;
  yc.mc.samples = 24;
  ThreadPool pool;  // all hardware threads; results identical regardless
  const YieldReport report =
      YieldAnalyzer::from_flow(flow).analyze(wafer, yc, &pool);

  std::printf("\n%s\n", wafer.ascii_map(report.policy_glyphs()).c_str());

  const YieldAggregate& a = report.agg;
  std::printf("parametric yield: %.1f %% (%llu/%zu dies ship)\n",
              a.parametric_yield() * 100.0,
              static_cast<unsigned long long>(a.shipped_dies()),
              report.total_dies());
  for (int p = 0; p < kNumTuningPolicies; ++p) {
    const auto pol = static_cast<TuningPolicy>(p);
    const ExactMoments& pw = a.power_mw[static_cast<std::size_t>(p)];
    if (pw.count() == 0) {
      std::printf("  %-14s: 0 dies\n", tuning_policy_name(pol));
      continue;
    }
    std::printf("  %-14s: %4zu dies, power %.3f +/- %.3f mW\n",
                tuning_policy_name(pol), pw.count(), pw.mean(), pw.stddev());
  }
  std::printf("island activation:");
  for (std::size_t k = 0; k < a.island_activation.size(); ++k) {
    std::printf(" %zu:%llu", k,
                static_cast<unsigned long long>(a.island_activation[k]));
  }
  std::printf("\nshipped fmax: %.4f +/- %.4f GHz over %zu dies\n",
              a.fmax_ghz.mean(), a.fmax_ghz.stddev(), a.fmax_ghz.count());

  write_yield_csv_file("wafer_yield.csv", wafer, report);
  write_yield_json_file("wafer_yield.json", report);
  std::printf("wrote wafer_yield.csv / wafer_yield.json\n");
  return 0;
}
