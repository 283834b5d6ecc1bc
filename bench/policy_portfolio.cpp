// Compensation-policy portfolio Pareto (DESIGN.md §18): one wafer run
// per policy mix — VI escalation only, statistical sizing + VI,
// criticality buffering + VI, and all three — reporting the
// power/area/yield point each mix buys.  Transforming mixes compile the
// netlist once (compile_policy_mix) and fabricate every die on the
// transformed design.
//
// Hard determinism gates (each failure is printed; any makes the bench
// exit 1):
//   1. Per mix, the serialized report (CSV + JSON) and every die's bits
//      are identical for any thread count.
//   2. Per mix, reducing the wafer in shards of ANY size and merging
//      reproduces the wafer report's aggregate exactly (the campaign-
//      layer contract on compiled netlists).
//   3. Portfolio-off bit-identity: the vi-only mix's per-die bits and
//      CSV equal a pre-portfolio YieldAnalyzer::from_flow run exactly —
//      wiring the portfolio in changes NOTHING for untouched mixes.
//   4. Zero-strength bit-identity: a mix with sizing enabled but a
//      threshold no gate reaches compiles a transformed-but-identical
//      netlist whose per-die bits still equal the baseline (the
//      rebuilt-StaEngine path is exact, DESIGN.md §18).
//
// Emits BENCH_policy.json (one metric block per mix) for trajectory
// tracking across PRs.
//
// Knobs: --samples N (per-die MC budget, default 12), --dies N (use the
// smallest wafer with at least N dies instead of the 300 mm default),
// --out PATH.

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "timing/sta.hpp"
#include "util/table.hpp"
#include "vi/policy.hpp"

#include "common.hpp"

int main(int argc, char** argv) {
  using namespace vipvt;
  const bench::Flags flags(
      argc, argv, "usage: policy_portfolio [--samples N>=1] [--dies N>=1] "
                  "[--out PATH]",
      {"--samples", "--dies", "--out"});
  YieldConfig yc;
  yc.mc.samples = flags.get("--samples", 12, 1);
  yc.mc.profile = DrawProfile::BatchedSimd;
  const WaferConfig wc = bench::wafer_for_dies(flags.get("--dies", 0, 1));
  bench::print_header("Policy portfolio",
                      "power/area/yield Pareto per compensation-policy mix");

  Flow flow(bench::tiny_flow_config());
  flow.simulate_activity();
  std::printf("# design: %zu instances, clock %.3f ns\n",
              flow.design().num_instances(), flow.nominal_clock_ns());

  const WaferModel wafer{wc};
  std::printf("# wafer: %zu dies (%.0f mm), %d MC samples/die\n\n",
              wafer.num_dies(), wc.wafer_diameter_mm, yc.mc.samples);

  // The acceptance-criteria portfolio: >= 4 mixes spanning the three
  // levers.  Knob choices: a low criticality threshold so the tiny
  // core's statistically-critical gates actually select (crit is the
  // per-instance failing-path probability at the worst-corner die), a
  // 64-gate / 16-net area guard.
  const auto make_mix = [](const char* name, bool sizing, bool buffering) {
    PolicyMix m;
    m.name = name;
    m.sizing.enabled = sizing;
    m.sizing.min_crit_prob = 0.02;
    m.sizing.max_upsized = 64;
    m.buffering.enabled = buffering;
    m.buffering.min_crit_prob = 0.02;
    m.buffering.max_nets = 16;
    return m;
  };
  struct MixRun {
    PolicyMix mix;
    const char* key;  ///< BENCH json key prefix
    CompiledPolicy compiled;
    std::unique_ptr<YieldAnalyzer> analyzer;
    YieldReport serial_report;
    double serial_s = 0.0;
  };
  std::vector<MixRun> mixes;
  mixes.push_back({make_mix("vi-only", false, false), "vi_only", {}, {}, {}});
  mixes.push_back(
      {make_mix("sizing+vi", true, false), "sizing_vi", {}, {}, {}});
  mixes.push_back(
      {make_mix("buffering+vi", false, true), "buffering_vi", {}, {}, {}});
  mixes.push_back({make_mix("sizing+buffering+vi", true, true),
                   "sizing_buffering_vi", {}, {}, {}});

  const YieldAnalyzer baseline = YieldAnalyzer::from_flow(flow);
  for (MixRun& m : mixes) {
    m.compiled = compile_policy_mix(m.mix, flow.design(), flow.sta(),
                                    flow.variation(), flow.activity());
    m.analyzer = std::make_unique<YieldAnalyzer>(
        m.compiled.design_or(flow.design()), m.compiled.sta_or(flow.sta()),
        flow.variation(), flow.island_plan(), flow.razor_plan(),
        m.compiled.activity_or(flow.activity()),
        1.0 / flow.post_shifter_clock_ns());
    m.analyzer->set_portfolio(m.compiled.stats);
    std::printf("# mix %-20s: %llu gates upsized, %llu buffers on %llu "
                "nets, area %+.1f um^2\n",
                m.mix.name.c_str(),
                static_cast<unsigned long long>(m.compiled.stats.gates_upsized),
                static_cast<unsigned long long>(
                    m.compiled.stats.buffers_inserted),
                static_cast<unsigned long long>(m.compiled.stats.nets_buffered),
                m.compiled.stats.area_delta_um2);
  }
  std::printf("\n");

  // Per-die identity below compares bench::die_bits with the MC fields:
  // the CSV/JSON provenance stamps may legitimately differ; the silicon
  // must not.
  bench::Gates gates;
  bench::BenchJson out("policy_portfolio");
  out.set("dies", static_cast<double>(wafer.num_dies()));
  out.set("mc_samples_per_die", yc.mc.samples);
  out.set("hardware_threads", bench::hardware_threads());

  // ---- gate 1: per-mix byte determinism across thread counts -------------
  const auto report_bytes = [&](const YieldReport& r) {
    return bench::report_bytes(wafer, r);
  };
  bool identical = true;
  for (MixRun& m : mixes) {
    const auto run = [&](ThreadPool* pool) {
      return m.analyzer->analyze(wafer, yc, pool);
    };
    m.serial_s = bench::seconds([&] { m.serial_report = run(nullptr); });
    for (const bench::SweepRow& r :
         bench::thread_sweep(gates, "mix " + m.mix.name, {2u, 4u},
                             report_bytes(m.serial_report), run,
                             report_bytes)) {
      identical &= r.identical;
    }
  }

  // ---- gate 2: shard-partition invariance on compiled netlists -----------
  // The wafer reduced in one shard, and in shards of 7 and 19 dies, must
  // equal the serial report's aggregate as a whole struct: the wafer run
  // and the shards fold through the one reducer, YieldAggregate::add.
  for (MixRun& m : mixes) {
    const std::size_t n = wafer.num_dies();
    const auto shard_merge = [&](std::size_t shard_dies) {
      StaEngine engine(m.compiled.sta_or(flow.sta()));
      CompensationController ctrl(m.compiled.design_or(flow.design()), engine,
                                  flow.variation(), flow.island_plan(),
                                  flow.razor_plan());
      YieldAggregate agg;
      for (std::size_t b = 0; b < n; b += shard_dies) {
        agg.merge(m.analyzer->analyze_shard(engine, ctrl, wafer, yc, b,
                                            std::min(n, b + shard_dies)));
      }
      return agg;
    };
    for (const std::size_t shard : {n, std::size_t{7}, std::size_t{19}}) {
      identical &= gates.check(shard_merge(shard) == m.serial_report.agg,
                               "DETERMINISM VIOLATION: mix %s shard size %zu "
                               "diverges from the wafer report's aggregate",
                               m.mix.name.c_str(), shard);
    }
  }
  std::printf("determinism: 4 mixes %s across {1,2,4} threads and shard "
              "sizes {7,19,%zu}\n",
              identical ? "byte-identical" : "DIVERGED", wafer.num_dies());

  // ---- gate 3: portfolio-off bit-identity --------------------------------
  // A pre-portfolio analyzer (from_flow, no portfolio stamp beyond the
  // vi-only default) must reproduce the vi-only mix bit-for-bit: CSV
  // bytes AND every per-die field.
  const YieldReport pre_portfolio = baseline.analyze(wafer, yc, nullptr);
  bool bits_ok;
  {
    std::ostringstream a, b;
    write_yield_csv(a, wafer, pre_portfolio);
    write_yield_csv(b, wafer, mixes[0].serial_report);
    bits_ok = gates.check(a.str() == b.str() &&
                    bench::die_bits(pre_portfolio, true) ==
                        bench::die_bits(mixes[0].serial_report, true),
                "PORTFOLIO VIOLATION: vi-only mix differs from the "
                "pre-portfolio path");
  }

  // ---- gate 4: zero-strength transform bit-identity ----------------------
  // Sizing enabled with an unreachable threshold: compile_policy_mix
  // takes the full transform path (criticality MC, netlist copy, fresh
  // StaEngine) yet selects nothing — per-die bits must equal the
  // baseline exactly.
  {
    PolicyMix zero = make_mix("vi-only", true, false);
    zero.sizing.min_crit_prob = 2.0;  // probabilities are <= 1
    const CompiledPolicy cp = compile_policy_mix(
        zero, flow.design(), flow.sta(), flow.variation(), flow.activity());
    bits_ok &= gates.check(cp.transformed() && cp.stats.gates_upsized == 0,
                           "PORTFOLIO VIOLATION: zero-strength mix was "
                           "expected to transform nothing");
    if (cp.transformed()) {
      YieldAnalyzer an(*cp.design, *cp.sta, flow.variation(),
                       flow.island_plan(), flow.razor_plan(), *cp.activity,
                       1.0 / flow.post_shifter_clock_ns());
      const YieldReport r = an.analyze(wafer, yc, nullptr);
      bits_ok &= gates.check(bench::die_bits(r, true) ==
                                 bench::die_bits(pre_portfolio, true),
                             "PORTFOLIO VIOLATION: zero-strength sizing "
                             "policy changed per-die bits vs the "
                             "pre-portfolio path");
    }
    std::printf("zero-strength + portfolio-off bit-identity: %s\n",
                bits_ok ? "ok" : "FAILED");
  }

  // ---- the Pareto table ---------------------------------------------------
  Table pt({"mix", "yield %", "ship power [mW]", "area [um^2]", "d-area",
            "upsized", "buffers", "dies/s"});
  for (const MixRun& m : mixes) {
    const YieldReport& r = m.serial_report;
    double power = 0.0;
    std::size_t shipped = 0;
    for (const DieOutcome& d : r.dies) {
      if (d.policy == TuningPolicy::Discard) continue;
      power += d.total_mw;
      ++shipped;
    }
    const double ship_power = shipped == 0 ? 0.0
                                           : power / static_cast<double>(shipped);
    const double dies_per_s =
        static_cast<double>(wafer.num_dies()) / m.serial_s;
    pt.add_row({m.mix.name, Table::num(r.agg.parametric_yield() * 100.0, 1),
                Table::num(ship_power, 3),
                Table::num(m.compiled.stats.area_um2, 1),
                Table::num(m.compiled.stats.area_delta_um2, 1),
                std::to_string(m.compiled.stats.gates_upsized),
                std::to_string(m.compiled.stats.buffers_inserted),
                Table::num(dies_per_s, 1)});
    char key[96];
    std::snprintf(key, sizeof key, "%s_yield", m.key);
    out.set(key, r.agg.parametric_yield());
    std::snprintf(key, sizeof key, "%s_ship_power_mw", m.key);
    out.set(key, ship_power);
    std::snprintf(key, sizeof key, "%s_area_um2", m.key);
    out.set(key, m.compiled.stats.area_um2);
    std::snprintf(key, sizeof key, "%s_area_delta_um2", m.key);
    out.set(key, m.compiled.stats.area_delta_um2);
    std::snprintf(key, sizeof key, "%s_gates_upsized", m.key);
    out.set(key, static_cast<double>(m.compiled.stats.gates_upsized));
    std::snprintf(key, sizeof key, "%s_buffers", m.key);
    out.set(key, static_cast<double>(m.compiled.stats.buffers_inserted));
    std::snprintf(key, sizeof key, "%s_dies_per_sec", m.key);
    out.set(key, dies_per_s);
  }
  std::printf("%s\n", pt.render().c_str());

  out.write(flags.out_path("BENCH_policy.json"));
  return gates.exit_code();
}
