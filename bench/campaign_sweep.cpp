// Campaign sweep: the wafer-campaign layer as a batch workload, plus its
// hard determinism gates (DESIGN.md §15), run once with full MC and once
// with the analytical triage tier on (DESIGN.md §16, covering the
// checkpoint's triage tallies across a kill/resume boundary):
//
//   1. Shard/thread invariance: the same sweep run at shard sizes
//      {1, 3} x thread counts {1, 2} must serialize to a byte-identical
//      campaign report — the partition-invariant reducer contract.
//   2. Kill-and-resume: a campaign checkpointed at the halfway job and
//      resumed must reproduce BOTH the uninterrupted report bytes AND
//      the uninterrupted NDJSON stream bytes.
//
// Also measures campaign throughput (dies/sec through the full per-die
// MC + compensation pipeline) and records the streaming layer's O(1)
// evidence: the reorder buffer's high-water mark (peak_pending_shards),
// which is bounded by the pool size, never by die count.  Every failed
// gate is printed and the bench exits 1.
//
// Knobs: --samples N (per-die MC budget), --wafers W (wafers per cell),
// --out PATH.  Emits BENCH_campaign.json.

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "campaign/campaign.hpp"
#include "io/campaign_writers.hpp"
#include "util/table.hpp"

#include "common.hpp"

namespace {

using namespace vipvt;

std::string report_bytes(const CampaignReport& report) {
  std::ostringstream os;
  write_campaign_json(os, report);
  return os.str();
}

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// What one spec's gates measured.
struct GateRun {
  CampaignReport serial;
  double serial_s = 0.0;
  std::size_t jobs_total = 0;
  std::size_t jobs_resumed = 0;
};

/// Gates 1 and 2 for one spec, named `label` in the output.
GateRun campaign_gates(bench::Gates& gates, const CampaignRunner& runner,
                       const CampaignSpec& spec, const std::string& label,
                       double total_dies) {
  GateRun g;
  g.serial_s = bench::seconds([&] { g.serial = runner.run(spec); });
  const std::string reference = report_bytes(g.serial);

  // ---- gate 1: byte-identical report across shard sizes and threads ------
  Table t({"shard", "threads", "wall [s]", "dies/sec", "identical"});
  t.add_row({std::to_string(spec.shard_dies), "serial",
             Table::num(g.serial_s, 2), Table::num(total_dies / g.serial_s, 1),
             "ref"});
  for (const int shard : {1, 3}) {
    CampaignSpec s = spec;
    s.shard_dies = shard;
    const auto run = [&](ThreadPool* pool) {
      CampaignRunOptions opts;
      opts.pool = pool;
      return runner.run(s, opts);
    };
    const std::string what =
        label + " report at shard_dies=" + std::to_string(shard);
    for (const bench::SweepRow& r : bench::thread_sweep(
             gates, what, {1u, 2u}, reference, run,
             report_bytes)) {
      t.add_row({std::to_string(shard), std::to_string(r.threads),
                 Table::num(r.seconds, 2),
                 Table::num(total_dies / r.seconds, 1),
                 r.identical ? "yes" : "NO (BUG)"});
    }
  }
  std::printf("%s campaign:\n%s", label.c_str(), t.render().c_str());

  // ---- gate 2: kill-and-resume byte identity -----------------------------
  const auto tmp = std::filesystem::temp_directory_path();
  const std::string full_path =
      (tmp / ("vipvt_campaign_" + label + "_full.ndjson")).string();
  const std::string cut_path =
      (tmp / ("vipvt_campaign_" + label + "_cut.ndjson")).string();

  CampaignRunOptions stream_opts;
  stream_opts.stream_path = full_path;
  CampaignRunStats full_stats;
  stream_opts.stats = &full_stats;
  const CampaignReport uninterrupted = runner.run(spec, stream_opts);
  g.jobs_total = full_stats.jobs_total;
  const std::size_t kill_at = full_stats.jobs_total / 2;

  CampaignRunOptions cut_opts;
  cut_opts.stream_path = cut_path;
  cut_opts.stop_after_jobs = kill_at;
  (void)runner.run(spec, cut_opts);

  ThreadPool resume_pool(2);
  CampaignRunOptions resume_opts;
  resume_opts.stream_path = cut_path;
  resume_opts.resume = true;
  resume_opts.pool = &resume_pool;
  CampaignRunStats resume_stats;
  resume_opts.stats = &resume_stats;
  const CampaignReport resumed = runner.run(spec, resume_opts);
  g.jobs_resumed = resume_stats.jobs_resumed;

  const bool report_same = report_bytes(resumed) == report_bytes(uninterrupted);
  const bool stream_same = file_bytes(cut_path) == file_bytes(full_path);
  std::printf("kill-and-resume: %zu jobs, killed at %zu, resumed %zu "
              "-> report %s, stream %s\n\n",
              full_stats.jobs_total, kill_at, resume_stats.jobs_run,
              report_same ? "byte-identical" : "DIVERGED",
              stream_same ? "byte-identical" : "DIVERGED");
  std::filesystem::remove(full_path);
  std::filesystem::remove(cut_path);
  gates.check(report_same && stream_same,
              "DETERMINISM VIOLATION: the resumed %s campaign diverged from "
              "the uninterrupted run", label.c_str());
  return g;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Flags flags(
      argc, argv, "usage: campaign_sweep [--samples N>=1] [--wafers W>=1] "
                  "[--out PATH]",
      {"--samples", "--wafers", "--out"});
  const int mc_samples = flags.get("--samples", 8, 1);
  const int wafers_per_cell = flags.get("--wafers", 2, 1);
  bench::print_header("Campaign sweep",
                      "multi-cell wafer campaigns, determinism + resume gates");

  // Tiny core, small wafer: the campaign multiplies dies by cells and
  // wafers, so each unit stays small while the ORCHESTRATION — the part
  // this bench gates — runs at full fidelity.
  Flow flow(bench::tiny_flow_config());
  flow.simulate_activity();
  std::printf("# design: %zu instances, clock %.3f ns\n",
              flow.design().num_instances(), flow.nominal_clock_ns());

  CampaignRunner runner;
  runner.add_variant("tiny", flow);

  WaferConfig wc;
  wc.wafer_diameter_mm = 70.0;
  CampaignSpec spec;
  spec.wafer_grids = {wc};
  spec.sigma_scales = {1.0, 1.15};
  spec.policies = {PolicyMix{"full", true, true},
                   PolicyMix{"no-escalation", false, true}};
  spec.mc_samples = {mc_samples};
  spec.wafers_per_cell = wafers_per_cell;
  spec.shard_dies = 3;
  spec.seed = 0xca4fa167;
  spec.base.mc.samples = mc_samples;

  const std::size_t wafer_dies = WaferModel(wc).num_dies();
  const std::size_t cells = runner.expand(spec).size();
  const auto total_dies = static_cast<double>(
      wafer_dies * cells * static_cast<std::size_t>(wafers_per_cell));
  std::printf("# campaign: %zu cells x %d wafers x %zu dies = %.0f die "
              "analyses, %d MC samples/die\n\n",
              cells, wafers_per_cell, wafer_dies, total_dies, mc_samples);

  bench::Gates gates;
  bench::BenchJson out("campaign_sweep");
  out.set("cells", static_cast<double>(cells));
  out.set("wafers_per_cell", wafers_per_cell);
  out.set("dies_per_wafer", static_cast<double>(wafer_dies));
  out.set("total_dies", total_dies);
  out.set("mc_samples_per_die", mc_samples);

  const GateRun full = campaign_gates(gates, runner, spec, "full-MC",
                                      total_dies);
  std::printf("campaign yield: %.1f %% (%llu/%llu dies ship)\n",
              full.serial.parametric_yield() * 100.0,
              static_cast<unsigned long long>(full.serial.shipped_dies()),
              static_cast<unsigned long long>(full.serial.total_dies()));
  out.set("serial_s", full.serial_s);
  out.set("serial_dies_per_sec", total_dies / full.serial_s);
  out.set("parametric_yield", full.serial.parametric_yield());
  out.set("resume_jobs_total", static_cast<double>(full.jobs_total));
  out.set("resume_jobs_resumed", static_cast<double>(full.jobs_resumed));

  // The same two contracts with the triage tier enabled: the per-slot
  // screen is a pure function of (variant, geometry, cfg), so shard size,
  // thread count, and a kill/resume boundary must not change a single
  // byte of the report or the NDJSON stream — including the
  // triage_analytical / triage_mc_fallback tallies the checkpoint carries.
  CampaignSpec ts = spec;
  ts.base.triage.enabled = true;
  const GateRun triage = campaign_gates(gates, runner, ts, "triaged",
                                        total_dies);
  std::printf("triage: %.1fx campaign speedup vs full MC\n\n",
              full.serial_s / triage.serial_s);
  out.set("triage_serial_s", triage.serial_s);
  out.set("triage_dies_per_sec", total_dies / triage.serial_s);
  out.set("triage_speedup_vs_full_mc", full.serial_s / triage.serial_s);

  // ---- streaming O(1) evidence -------------------------------------------
  // The campaign's transient state is the reorder buffer; its high-water
  // mark tracks the pool's out-of-order window, not the die count.  A
  // 4-thread run over every die of the sweep must keep the buffer within
  // a few shards of the pool size.
  {
    ThreadPool pool(4);
    CampaignSpec s = spec;
    s.shard_dies = 1;  // worst case: one pending slot per die
    CampaignRunOptions opts;
    opts.pool = &pool;
    CampaignRunStats stats;
    opts.stats = &stats;
    (void)runner.run(s, opts);
    std::printf("reorder buffer high-water mark at 4 threads, shard=1: "
                "%zu pending shards over %.0f dies (O(1) in dies)\n",
                stats.peak_pending_shards, total_dies);
    out.set("peak_pending_shards_t4_shard1",
            static_cast<double>(stats.peak_pending_shards));
    gates.check(stats.peak_pending_shards <= 64,
                "STREAMING VIOLATION: reorder buffer grew far beyond the "
                "pool's out-of-order window");
  }

  out.set("hardware_threads", bench::hardware_threads());
  out.write(flags.out_path("BENCH_campaign.json"));
  return gates.exit_code();
}
