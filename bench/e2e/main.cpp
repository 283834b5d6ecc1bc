// vipvt_e2e — the end-to-end benchmark of the virtual fab (README.md).
//
// Four workloads, each a closed loop: one driver thread submits the next
// unit (one YieldAnalyzer::analyze() of a 300 mm wafer, or one
// CampaignRunner::run()) after the previous one returns, and the unit
// itself runs on one ThreadPool of min(4, nproc) threads.  Per workload:
// set-up (built several times, median reported), an untimed warm-up
// repetition, timed repetitions of a fixed unit list, a serial reference
// run, and — unless --layers 0 — a serial traced pass that times every
// layer from outside, around the library's public calls (replica.hpp).
// Every unit is followed by a slice of a fixed calibration kernel; the
// end-to-end times are scaled by the host speed it measures.
//
//   vipvt_e2e [--workload NAME] [--seed S] [--seconds T] [--layers 0|1]
//             [--out PATH] [--trace PATH] [--verify]
//
// Exit status is 0 only when every unit's output is correct and every
// workload still exercises the layers it exists for.

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <tuple>
#include <vector>

#include "campaign/campaign.hpp"
#include "campaign/checkpoint.hpp"
#include "io/campaign_writers.hpp"
#include "replica.hpp"
#include "ssta/macromodel.hpp"
#include "trace.hpp"
#include "util/aligned.hpp"
#include "util/rng.hpp"
#include "util/simd/dispatch.hpp"
#include "util/stats.hpp"
#include "variation/mc_ssta.hpp"
#include "vi/flow.hpp"
#include "vi/policy.hpp"
#include "yield/wafer.hpp"
#include "yield/yield.hpp"

#ifndef VIPVT_E2E_DIR
#define VIPVT_E2E_DIR "."
#endif

namespace vipvt::e2e {
namespace {

using clock = std::chrono::steady_clock;

double seconds_since(clock::time_point t0) {
  return std::chrono::duration<double>(clock::now() - t0).count();
}

double median(std::vector<double> v) {
  return v.empty() ? 0.0 : percentile(std::move(v), 0.5);
}

/// Threads of the pool a unit runs on: min(4, nproc).
unsigned pool_threads() {
  return std::min(4u, std::max(1u, std::thread::hardware_concurrency()));
}

/// The seed whose unit digests are recorded in digests.txt.
constexpr std::uint64_t kDefaultSeed = 1;

/// Timed repetitions of a run without --seconds.
constexpr int kReps = 5;

// ---- host speed -------------------------------------------------------------

// The host this benchmark runs on is shared: its speed changes by 1.5-2x
// for seconds at a time and drifts over minutes.  Every timed unit
// is therefore followed by one calibration slice on as many threads as
// the unit ran on, and its time is reported scaled to the reference
// host: measured time x kRefSliceMs / slice time.  A slow spell stretches
// the unit and the slice after it alike, so the scaled times keep still
// where the measured ones do not (README.md).

/// Time of one calibration slice per thread, with four threads at once, on
/// the reference host: the 4-vCPU Xeon (AVX-512) virtual machine the
/// benchmark was calibrated on.
constexpr double kRefSliceMs = 9.0;

/// One slice of a fixed kernel that belongs to this file and calls no
/// library code, so only the host can change its time: a max-plus
/// propagation over a fixed random 4096-node DAG (about 100 KB, cache
/// resident), with an exp and a sqrt per node — the shape of the timing
/// propagation the workloads spend their time in.  Returns its wall time
/// in ms.
double calibration_slice_ms() {
  constexpr std::size_t kNodes = 4096;
  constexpr std::size_t kRoots = 16;
  constexpr int kPasses = 224;
  struct Dag {
    std::vector<std::uint32_t> a, b;
    std::vector<double> w;
  };
  static const Dag dag = [] {
    Dag d;
    std::uint64_t s = 0x9e3779b97f4a7c15ULL;
    const auto next = [&s] {
      s = s * 6364136223846793005ULL + 1442695040888963407ULL;
      return s >> 33;
    };
    for (std::size_t i = 0; i < kNodes; ++i) {
      const std::uint64_t below = std::max<std::size_t>(i, 1);
      d.a.push_back(static_cast<std::uint32_t>(next() % below));
      d.b.push_back(static_cast<std::uint32_t>(next() % below));
      d.w.push_back(0.5 + static_cast<double>(next() % 1000) * 1e-3);
    }
    return d;
  }();
  thread_local volatile double sink = 0.0;
  std::array<double, kNodes> arr{};  // on the stack: no allocator arenas
  const auto t0 = clock::now();
  for (int p = 0; p < kPasses; ++p) {
    const double scale = 1.0 + p * 1e-3;
    for (std::size_t i = 0; i < kNodes; ++i) {
      const double base =
          i < kRoots ? 0.0 : std::max(arr[dag.a[i]], arr[dag.b[i]]);
      arr[i] = base + std::exp(-dag.w[i] * scale) * std::sqrt(dag.w[i] + base);
    }
    sink = sink + arr[kNodes - 1];
  }
  return seconds_since(t0) * 1e3;
}

/// Host speed relative to the reference host (> 1: faster), from one
/// slice on each of `threads` threads at once.
double host_speed(unsigned threads) {
  std::vector<double> ms(threads);
  std::vector<std::thread> crew;
  for (unsigned k = 1; k < threads; ++k) {
    crew.emplace_back([&ms, k] { ms[k] = calibration_slice_ms(); });
  }
  ms[0] = calibration_slice_ms();
  for (std::thread& t : crew) t.join();
  double sum = 0.0;
  for (const double m : ms) sum += m;
  return kRefSliceMs * static_cast<double>(threads) / sum;
}

// ---- digests ----------------------------------------------------------------

/// 64-bit FNV-1a of `bytes`, as 16 hex digits.
std::string fnv1a_hex(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

/// FNV-1a over every die's outcome in hexfloat: the non-MC fields the
/// tier gates of bench/wafer_yield compare, plus the MC-derived ones.
std::string wafer_digest(const std::vector<DieOutcome>& dies) {
  std::ostringstream os;
  os << std::hexfloat;
  for (const DieOutcome& d : dies) {
    os << d.die_id << ' ' << d.detected_severity << ' ' << d.islands_raised
       << ' ' << static_cast<int>(d.policy) << ' ' << d.timing_met << ' '
       << d.escalated << ' ' << d.missed_violation << ' ' << d.wns_all_low_ns
       << ' ' << d.wns_final_ns << ' ' << d.total_mw << ' ' << d.leakage_mw
       << ' ' << d.mc_severity << ' ' << d.mc_samples << ' ' << d.fmax_ghz
       << ' ' << static_cast<int>(d.triage_tier) << '\n';
  }
  return fnv1a_hex(os.str());
}

/// FNV-1a over the campaign report's JSON bytes.
std::string campaign_digest(const CampaignReport& r) {
  std::ostringstream os;
  write_campaign_json(os, r);
  return fnv1a_hex(os.str());
}

/// digests.txt: "<workload> <unit> <digest>" lines for kDefaultSeed.
std::map<std::string, std::vector<std::string>> load_digests(
    const std::string& path) {
  std::map<std::string, std::vector<std::string>> out;
  std::ifstream is(path);
  if (!is) throw std::runtime_error("cannot read " + path);
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string name, digest;
    std::size_t unit = 0;
    if (!(ls >> name >> unit >> digest)) {
      throw std::runtime_error("malformed line in " + path + ": " + line);
    }
    auto& v = out[name];
    if (v.size() <= unit) v.resize(unit + 1);
    v[unit] = digest;
  }
  return out;
}

// ---- workloads --------------------------------------------------------------

enum class Kind { Wafer, Campaign };

struct Workload {
  const char* name;
  Kind kind;
  int units_per_rep;  ///< wafers (or campaign runs) in one repetition
  int traced_units;   ///< wafers replayed by the traced pass
  EvalTier tier;
  double sigma_scale;  ///< on three_sigma_random_frac
  double clock_scale;  ///< on the post-shifter clock period
};

// Why each exists is in README.md and BENCHMARK.json.  The unit counts
// keep every repetition near 2 s on a 4-thread pool, so the warm-up
// repetition and the last, whole repetition of a timed run stay short.
constexpr Workload kWorkloads[] = {
    {"wafer_mc", Kind::Wafer, 12, 2, EvalTier::Flat, 1.0, 1.0},
    {"wafer_screened", Kind::Wafer, 50, 8, EvalTier::Macro, 1.0, 1.0},
    {"wafer_stress", Kind::Wafer, 20, 4, EvalTier::Macro, 1.5, 0.85},
    {"campaign_portfolio", Kind::Campaign, 10, 1, EvalTier::Macro, 1.0, 1.0},
};

YieldConfig wafer_config(const Workload& w) {
  YieldConfig c;  // 48 MC samples per die (the budget every tier's band uses)
  c.mc.profile = DrawProfile::BatchedSimd;  // same bits on every ISA
  c.tier = w.tier;
  return c;
}

CampaignSpec campaign_spec(std::uint64_t seed) {
  PolicyMix vi_only;
  vi_only.name = "vi-only";
  PolicyMix sizing = vi_only;
  sizing.name = "sizing+vi";
  sizing.sizing.enabled = true;
  sizing.sizing.min_crit_prob = 0.02;  // bench/policy_portfolio's knobs
  sizing.sizing.max_upsized = 64;
  CampaignSpec spec;
  spec.sigma_scales = {1.0, 1.5};
  spec.policies = {vi_only, sizing};
  spec.mc_samples = {24};
  spec.wafers_per_cell = 1;
  spec.shard_dies = 32;
  spec.seed = seed;
  spec.base.mc.profile = DrawProfile::BatchedSimd;
  spec.base.tier = EvalTier::Macro;
  return spec;
}

FlowConfig tiny_flow_config() {
  FlowConfig cfg;  // the tiny VEX core of bench/wafer_yield (2585 cells)
  cfg.vex = VexConfig::tiny();
  cfg.floorplan.target_utilization = 0.55;
  cfg.scenario.sweep_points = 6;
  cfg.scenario.mc.samples = 100;
  cfg.islands.mc_samples = 80;
  cfg.sim_cycles = 150;
  return cfg;
}

/// The design-time state one workload runs on.  Heap-held: the analyzer
/// and FabView point into it.
struct Fab {
  std::unique_ptr<Flow> flow;
  std::unique_ptr<VariationModel> model;  ///< sigma-scaled copy
  std::unique_ptr<StaEngine> sta;         ///< clock-scaled copy
  std::unique_ptr<YieldAnalyzer> analyzer;
  std::unique_ptr<CampaignRunner> runner;
  FabView view;
  double characterize_s = 0.0;  ///< macro_library() inside the set-up
};

std::unique_ptr<Fab> build_fab(const Workload& w, const YieldConfig& cfg) {
  auto fab = std::make_unique<Fab>();
  fab->flow = std::make_unique<Flow>(tiny_flow_config());
  fab->flow->simulate_activity();  // runs the whole design-time pipeline
  const Flow& flow = *fab->flow;
  if (w.kind == Kind::Campaign) {
    fab->runner = std::make_unique<CampaignRunner>();
    fab->runner->add_variant("tiny", flow);
    fab->view = FabView{&flow.design(), &flow.sta(), &flow.variation(),
                        &flow.island_plan(), &flow.razor_plan(),
                        &flow.activity(), 1.0 / flow.post_shifter_clock_ns()};
    return fab;
  }
  VariationConfig vc = flow.variation().config();
  vc.three_sigma_random_frac *= w.sigma_scale;
  fab->model = std::make_unique<VariationModel>(flow.variation().char_params(),
                                                flow.variation().field(), vc);
  const double period = flow.post_shifter_clock_ns() * w.clock_scale;
  fab->sta = std::make_unique<StaEngine>(flow.sta());
  fab->sta->set_clock_period(period);
  fab->view = FabView{&flow.design(), fab->sta.get(), fab->model.get(),
                      &flow.island_plan(), &flow.razor_plan(),
                      &flow.activity(), 1.0 / period};
  const FabView& v = fab->view;
  fab->analyzer = std::make_unique<YieldAnalyzer>(
      *v.design, *v.sta, *v.model, *v.plan, *v.sensors, *v.activity,
      v.clock_freq_ghz);
  if (cfg.effective_tier() == EvalTier::Macro) {
    const auto t0 = clock::now();
    (void)fab->analyzer->macro_library(cfg.macro);
    fab->characterize_s = seconds_since(t0);
  }
  return fab;
}

// ---- results ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// Exact counts over some units' dies, read off the library's own reducer.
std::uint64_t policy_dies(const YieldAggregate& a, TuningPolicy p) {
  return a.policy_count[static_cast<std::size_t>(p)];
}
/// Dies that took the chip-wide fallback (every workload allows it).
std::uint64_t chip_wide_dies(const YieldAggregate& a) {
  return policy_dies(a, TuningPolicy::ChipWideHigh) +
         policy_dies(a, TuningPolicy::Discard);
}
/// Dies whose population statistics came from MC rather than a screen.
std::uint64_t mc_dies(const YieldAggregate& a) {
  return a.dies - a.triage_analytical - a.triage_macro;
}
double per_die(const YieldAggregate& a, std::uint64_t k) {
  return a.dies == 0 ? 0.0
                     : static_cast<double>(k) / static_cast<double>(a.dies);
}

struct WorkloadResult {
  std::string name;
  std::uint64_t seed = 0;
  int units_per_rep = 0;
  int reps = 0;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::size_t beyond_p90 = 0;
  std::vector<Metric> e2e;
  std::vector<Metric> layers;  ///< empty without the traced pass
  std::vector<std::string> digests;  ///< first repetition, unit order
  std::vector<std::string> gate_failures;
  bool ok() const { return failed == 0 && gate_failures.empty(); }
};

struct Options {
  std::string workload;  ///< empty = all four
  std::uint64_t seed = kDefaultSeed;
  double seconds = 0.0;  ///< > 0: repetitions until this long, not kReps
  bool layers = true;
  bool verify = false;
  std::string out = "vipvt_e2e.json";
  std::string trace;
};

double peak_rss_mb() {
  std::ifstream is("/proc/self/status");
  std::string key;
  while (is >> key) {
    if (key == "VmHWM:") {
      double kb = 0.0;
      is >> kb;
      return kb / 1024.0;
    }
    std::string rest;
    std::getline(is, rest);
  }
  return 0.0;
}

/// One unit: its wall time (the library call only), dies, digest and
/// its dies reduced.
struct UnitRun {
  double wall_s = 0.0;
  std::uint64_t dies = 0;
  std::string digest;
  YieldAggregate agg;
};

/// "trace.json" -> "trace.<workload>.json": one trace file per workload.
std::string trace_file(const std::string& path, const char* workload) {
  namespace fs = std::filesystem;
  fs::path p(path);
  const std::string ext = p.extension().string();
  p.replace_extension();
  return p.string() + "." + workload + (ext.empty() ? ".json" : ext);
}

// ---- per-call probes --------------------------------------------------------

/// Per-sample factor draw and propagation cost, isolated as in
/// bench/mc_ssta section 9: draw_factors_batch then analyze_batch_soa on
/// one slot's systematic map at the all-low corner.
std::pair<double, double> probe_draw_prop(const FabView& fab,
                                          std::span<const double> systematic,
                                          const McConfig& mc, int samples) {
  StaEngine eng(*fab.sta);
  eng.compute_base_all_low();
  const auto stencils = fab.model->field_stencils(*fab.design);
  const auto width = static_cast<std::size_t>(std::max(mc.batch, 1));
  VariationModel::DrawScratch scratch;
  AlignedVec<double> soa(fab.design->num_instances() * width);
  std::vector<StaResult> res(width);
  double draw_s = 0.0, prop_s = 0.0;
  int drawn = 0;
  for (; drawn < samples; drawn += static_cast<int>(width)) {
    const auto t0 = clock::now();
    fab.model->draw_factors_batch(
        *fab.design, eng, systematic, stencils, mc.seed,
        static_cast<std::uint64_t>(drawn), width, std::span(soa), scratch,
        mc.profile == DrawProfile::BatchedSimd);
    const auto t1 = clock::now();
    eng.analyze_batch_soa(std::span<const double>(soa), width, std::span(res));
    draw_s += std::chrono::duration<double>(t1 - t0).count();
    prop_s += seconds_since(t1);
  }
  return {draw_s / drawn * 1e6, prop_s / drawn * 1e6};
}

struct ChipProbe {
  double chip_factors_us = 0.0;
  double analyze_us = 0.0;
  double chip_wide_us = 0.0;  ///< set_chip_wide + chip_factors + analyze
};

/// Per-call cost of chip_factors and StaEngine::analyze at level 0, and
/// of the chip-wide fallback evaluation, on fabricated chips.
ChipProbe probe_chips(const FabView& fab, const std::vector<VirtualChip>& chips,
                      int reps) {
  StaEngine eng(*fab.sta);
  CompensationController ctrl(*fab.design, eng, *fab.model, *fab.plan,
                              *fab.sensors);
  ChipProbe p;
  if (chips.empty()) return p;
  double factors_s = 0.0, analyze_s = 0.0, wide_s = 0.0;
  for (int r = 0; r < reps; ++r) {
    ctrl.set_level(0);
    for (const VirtualChip& chip : chips) {
      const auto t0 = clock::now();
      const std::vector<double> f = ctrl.chip_factors(chip);
      const auto t1 = clock::now();
      (void)eng.analyze(f);
      factors_s += std::chrono::duration<double>(t1 - t0).count();
      analyze_s += seconds_since(t1);
    }
    for (const VirtualChip& chip : chips) {
      const auto t0 = clock::now();
      ctrl.set_chip_wide();
      (void)eng.analyze(ctrl.chip_factors(chip));
      wide_s += seconds_since(t0);
    }
  }
  const double calls = static_cast<double>(reps) *
                       static_cast<double>(chips.size());
  p.chip_factors_us = factors_s / calls * 1e6;
  p.analyze_us = analyze_s / calls * 1e6;
  p.chip_wide_us = wide_s / calls * 1e6;
  return p;
}

/// Per-call cost of one per-die MC run at the workload's budget.
double probe_mc_us(const FabView& fab, std::span<const double> systematic,
                   const McConfig& mc, std::uint64_t seed, int calls) {
  StaEngine eng(*fab.sta);
  eng.compute_base_all_low();
  const MonteCarloSsta ssta(*fab.design, eng, *fab.model);
  const auto t0 = clock::now();
  for (int k = 0; k < calls; ++k) {
    McConfig c = mc;
    c.seed = substream_seed(seed, static_cast<std::uint64_t>(k));
    (void)ssta.run_with_systematic(systematic, c);
  }
  return seconds_since(t0) / calls * 1e6;
}

/// What YieldAnalyzer::macro_library() does on a cache miss.
double probe_characterize_ms(const FabView& fab, const MacroConfig& cfg) {
  const auto t0 = clock::now();
  StaEngine eng(*fab.sta);
  eng.compute_base_all_low();
  const StageMacroLibrary lib(*fab.design, eng, *fab.model, cfg);
  return seconds_since(t0) * 1e3;
}

double probe_policy_compile_ms(const FabView& fab, const PolicyMix& mix) {
  const auto t0 = clock::now();
  const CompiledPolicy c = compile_policy_mix(mix, *fab.design, *fab.sta,
                                              *fab.model, *fab.activity);
  return seconds_since(t0) * 1e3;
}

// ---- one workload -----------------------------------------------------------

class Runner {
 public:
  Runner(const Workload& w, const Options& opt,
         const std::map<std::string, std::vector<std::string>>& expected)
      : w_(w), opt_(opt), expected_(expected),
        threads_(pool_threads()),
        wafer_(WaferConfig{}), cfg_(wafer_config(w)),
        stream_path_(opt.out + "." + w.name + ".ndjson") {}

  WorkloadResult run();

 private:
  UnitRun run_unit(int u, ThreadPool* pool);
  void check(int u, const std::string& digest, WorkloadResult& r);
  void traced_wafers(WorkloadResult& r, double unit_p50_s);
  void traced_campaign(WorkloadResult& r, double unit_p50_s);
  void gates(WorkloadResult& r) const;

  const Workload& w_;
  const Options& opt_;
  const std::map<std::string, std::vector<std::string>>& expected_;
  unsigned threads_;
  WaferModel wafer_;
  YieldConfig cfg_;
  std::string stream_path_;
  std::unique_ptr<Fab> fab_;
  std::vector<std::string> reference_;  ///< per-unit reference digest
  std::vector<char> counted_;           ///< unit already in agg_
  YieldAggregate agg_;                  ///< one repetition's dies
  double decided_ratio_ = 0.0;  ///< wafer workloads: screen-decided slots
};

YieldConfig unit_config(const YieldConfig& base, std::uint64_t seed, int u) {
  YieldConfig c = base;
  c.seed = substream_seed(seed, static_cast<std::uint64_t>(u));
  return c;
}

UnitRun Runner::run_unit(int u, ThreadPool* pool) {
  UnitRun out;
  if (w_.kind == Kind::Wafer) {
    const YieldConfig c = unit_config(cfg_, opt_.seed, u);
    const auto t0 = clock::now();
    const YieldReport rep = fab_->analyzer->analyze(wafer_, c, pool);
    out.wall_s = seconds_since(t0);
    out.dies = rep.total_dies();
    out.digest = wafer_digest(rep.dies);
    for (const DieOutcome& d : rep.dies) {
      out.agg.add(d, fab_->view.plan->num_islands(),
                  per_die_mc_budget(cfg_.mc));
    }
    return out;
  }
  const CampaignSpec spec = campaign_spec(
      substream_seed(opt_.seed, static_cast<std::uint64_t>(u)));
  CampaignRunOptions ro;
  ro.pool = pool;
  ro.stream_path = stream_path_;
  const auto t0 = clock::now();
  const CampaignReport rep = fab_->runner->run(spec, ro);
  out.wall_s = seconds_since(t0);
  out.dies = rep.total_dies();
  out.digest = campaign_digest(rep);
  for (const CellResult& c : rep.cells) out.agg.merge(c.agg);
  return out;
}

/// A unit fails when its digest differs from its reference: the recorded
/// digest for the default seed, else the first digest the unit produced.
void Runner::check(int u, const std::string& digest, WorkloadResult& r) {
  ++r.attempted;
  auto& ref = reference_[static_cast<std::size_t>(u)];
  if (ref.empty()) ref = digest;
  if (digest != ref) {
    ++r.failed;
    std::printf("  FAIL unit %d: digest %s, expected %s\n", u, digest.c_str(),
                ref.c_str());
  }
}

WorkloadResult Runner::run() {
  WorkloadResult r;
  r.name = w_.name;
  r.seed = opt_.seed;
  const int units = opt_.verify ? 1 : w_.units_per_rep;
  r.units_per_rep = units;
  std::printf("\n== %s (seed %llu, %d unit(s) per rep, %u threads)\n", w_.name,
              static_cast<unsigned long long>(opt_.seed), units, threads_);

  // Set-up: built several times, median reported, the last one kept.
  const int builds = opt_.verify ? 1 : 3;
  std::vector<double> setup_s, characterize_s;
  for (int b = 0; b < builds; ++b) {
    fab_.reset();
    const auto t0 = clock::now();
    fab_ = build_fab(w_, cfg_);
    setup_s.push_back(seconds_since(t0));
    characterize_s.push_back(fab_->characterize_s);
  }
  fab_->characterize_s = median(characterize_s);
  if (w_.kind == Kind::Wafer) {
    // The screen depends on geometry and model only, never on the seed.
    const std::vector<SlotTriage> screen =
        fab_->analyzer->tier_screen(wafer_, cfg_);
    const auto side = static_cast<double>(wafer_.dies_per_field_side());
    decided_ratio_ =
        static_cast<double>(std::count_if(
            screen.begin(), screen.end(),
            [](const SlotTriage& s) { return s.decided; })) /
        (side * side);
  }

  reference_.assign(static_cast<std::size_t>(units), "");
  counted_.assign(static_cast<std::size_t>(units), 0);
  const auto it = expected_.find(w_.name);
  if (opt_.seed == kDefaultSeed && it != expected_.end()) {
    for (std::size_t u = 0; u < reference_.size() && u < it->second.size();
         ++u) {
      reference_[u] = it->second[u];
    }
  }

  ThreadPool pool(threads_);
  const auto attempt = [&](int u, ThreadPool* p) -> std::optional<UnitRun> {
    try {
      UnitRun ur = run_unit(u, p);
      check(u, ur.digest, r);
      if (!counted_[static_cast<std::size_t>(u)]) {
        counted_[static_cast<std::size_t>(u)] = 1;
        agg_.merge(ur.agg);
      }
      return ur;
    } catch (const std::exception& e) {
      ++r.attempted;
      ++r.failed;
      std::printf("  FAIL unit %d: %s\n", u, e.what());
      return std::nullopt;
    }
  };

  // Warm-up (untimed): one repetition; the first pooled units run 2-3x
  // slower than the ones after them.
  if (!opt_.verify) {
    for (int u = 0; u < units; ++u) (void)attempt(u, &pool);
  }

  std::vector<double> wall_s, unit_s, speeds;  // per timed unit
  double dies = 0.0;
  const auto timed0 = clock::now();
  for (int rep = 0;; ++rep) {
    for (int u = 0; u < units; ++u) {
      const std::optional<UnitRun> ur = attempt(u, &pool);
      if (!ur) continue;
      const double speed = host_speed(threads_);
      wall_s.push_back(ur->wall_s);
      unit_s.push_back(ur->wall_s * speed);
      speeds.push_back(speed);
      dies += static_cast<double>(ur->dies);
      if (rep == 0) r.digests.push_back(ur->digest);
    }
    r.reps = rep + 1;
    if (opt_.verify) break;
    // Whole repetitions until the time is up (--seconds) or kReps are
    // done, but at least two (so repetitions can be compared) and 100
    // units (so the 90th percentile has 10 samples beyond it).
    const bool done = opt_.seconds > 0.0
                          ? seconds_since(timed0) >= opt_.seconds
                          : r.reps >= kReps;
    if (done && r.reps >= 2 && r.reps * units >= 100) break;
  }
  double unit_sum = 0.0;
  for (const double s : unit_s) unit_sum += s;
  const double p90 = unit_s.empty() ? 0.0 : percentile(unit_s, 0.9);
  r.beyond_p90 = static_cast<std::size_t>(std::count_if(
      unit_s.begin(), unit_s.end(), [p90](double s) { return s > p90; }));
  const double wall_p50 = wall_s.empty() ? 0.0 : percentile(wall_s, 0.5);
  // A slice after a single-threaded build reads the host too roughly to
  // scale that build by; the set-up is scaled by the host's median speed
  // over the timed units instead.
  const double median_speed = median(speeds);

  // Serial reference: the pooled units must match a pool-free run.  The
  // traced pass does this on every traced unit.
  if (!opt_.layers) {
    (void)attempt(0, nullptr);
  } else if (w_.kind == Kind::Wafer) {
    traced_wafers(r, wall_p50);
  } else {
    traced_campaign(r, wall_p50);
  }
  gates(r);
  std::filesystem::remove(stream_path_);
  if (opt_.layers) {
    // The host as measured, beside the scaled end-to-end times.
    r.layers.push_back({"host.speed", median_speed, "ratio"});
    r.layers.push_back({"unit.wall_s_p50", wall_p50, "s"});
    r.layers.push_back({"unit.wall_s_p90",
                        wall_s.empty() ? 0.0 : percentile(wall_s, 0.9), "s"});
  }

  r.e2e = {
      {"setup_s", median(setup_s) * median_speed, "s"},
      {"dies_per_s", unit_sum > 0.0 ? dies / unit_sum : 0.0, "dies/s"},
      {"unit_s_p50", median(unit_s), "s"},
      {"unit_s_p90", p90, "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"error_rate",
       r.attempted == 0 ? 1.0
                        : static_cast<double>(r.failed) /
                              static_cast<double>(r.attempted),
       "ratio"},
  };
  return r;
}

double find_metric(const std::vector<Metric>& ms, const std::string& name) {
  for (const Metric& m : ms) {
    if (m.name == name) return m.value;
  }
  return std::nan("");
}

/// Per-call costs timed in isolation on the workload's own objects, on
/// the first die's slot map and on 16 chips fabricated at the first 16
/// dies' locations.
struct Probes {
  double draw_us = 0.0;  ///< factor draw, per MC sample
  double prop_us = 0.0;  ///< propagation, per MC sample
  double mc_us = 0.0;    ///< one per-die MC run
  ChipProbe chip;
};

Probes run_probes(const FabView& fab, const WaferModel& wafer,
                  const McConfig& mc, std::uint64_t seed, bool quick) {
  Probes p;
  const std::vector<double> slot0 =
      fab.model->systematic_lgates(*fab.design, wafer.dies()[0].location);
  std::tie(p.draw_us, p.prop_us) =
      probe_draw_prop(fab, slot0, mc, quick ? 16 : 128);
  p.mc_us = probe_mc_us(fab, slot0, mc, seed, 2);
  std::vector<VirtualChip> chips;
  for (std::size_t k = 0; k < 16; ++k) {
    Rng rng(substream_seed(seed, k));
    chips.push_back(
        fabricate_chip(*fab.design, *fab.model, wafer.dies()[k].location, rng));
  }
  p.chip = probe_chips(fab, chips, quick ? 1 : 4);
  return p;
}

/// What the traced pass measured besides its spans.
struct TraceFacts {
  const char* envelope = "unit";  ///< the spans whose sum is the traced wall
  double untraced_s = 0.0;        ///< the traced work, untraced and serial
  double serial_unit_s = 0.0;     ///< one untraced serial unit
  double characterize_ms = 0.0;
  double policy_compile_ms = 0.0;
  double first_result_s = 0.0;
  double first_result_share = 0.0;
  double decided_ratio = 0.0;
  double jobs = 0.0;
  double peak_pending = 0.0;
  double stream_bytes = 0.0;
  bool replica_match = false;
};

std::vector<Metric> layer_metrics(const Tracer& tr, const Probes& p,
                                  const TraceFacts& f, const YieldAggregate& a,
                                  double unit_p50_s) {
  const auto tally = tr.tally();
  const auto it_env = tally.find(f.envelope);
  const double wall_us = it_env == tally.end() ? 0.0 : it_env->second.us;
  double leaf_us = 0.0;  // every span but the unit/die/campaign envelopes
  for (const auto& [name, t] : tally) {
    if (name != "unit" && name != "die" && name != "campaign") leaf_us += t.us;
  }
  std::vector<Metric> L;
  // Per call: the traced mean where the workload makes the call, else the
  // isolated probe (the share then reads 0).
  const auto layer = [&](const std::string& name, double probe_us) {
    const auto it = tally.find(name);
    const bool traced = it != tally.end();
    L.push_back({name + "_us",
                 traced ? it->second.us / static_cast<double>(it->second.calls)
                        : probe_us,
                 "us"});
    L.push_back(
        {name + "_share", traced ? it->second.us / wall_us : 0.0, "ratio"});
  };
  layer("variation.mc", p.mc_us);
  L.push_back({"variation.draw_us_per_sample", p.draw_us, "us"});
  L.push_back({"timing.prop_us_per_sample", p.prop_us, "us"});
  layer("vi.fabricate", 0.0);
  layer("vi.compensate", 0.0);
  layer("power.compute", 0.0);
  layer("vi.set_level", 0.0);
  L.push_back({"vi.chip_factors_us", p.chip.chip_factors_us, "us"});
  L.push_back({"timing.analyze_us", p.chip.analyze_us, "us"});
  layer("vi.chip_wide", p.chip.chip_wide_us);
  layer("ssta.screen", 0.0);
  layer("yield.slot_maps", 0.0);
  layer("yield.reduce", 0.0);
  layer("yield.worker_setup", 0.0);
  L.push_back({"ssta.characterize_ms", f.characterize_ms, "ms"});
  L.push_back({"vi.policy_compile_ms", f.policy_compile_ms, "ms"});
  L.push_back({"unit.first_result_ms", f.first_result_s * 1e3, "ms"});
  L.push_back({"unit.first_result_share", f.first_result_share, "ratio"});
  L.push_back({"util.pool_speedup",
               unit_p50_s > 0.0 ? f.serial_unit_s / unit_p50_s : 0.0, "ratio"});
  L.push_back({"campaign.jobs", f.jobs, "count"});
  L.push_back({"campaign.peak_pending_shards", f.peak_pending, "count"});
  L.push_back({"io.stream_bytes", f.stream_bytes, "bytes"});
  L.push_back({"ssta.decided_ratio", f.decided_ratio, "ratio"});
  L.push_back({"variation.mc_die_ratio", per_die(a, mc_dies(a)), "ratio"});
  L.push_back({"variation.samples_per_mc_die",
               mc_dies(a) == 0 ? 0.0
                               : static_cast<double>(a.mc_samples_drawn) /
                                     static_cast<double>(mc_dies(a)),
               "count"});
  L.push_back({"vi.escalated_ratio", per_die(a, a.escalated), "ratio"});
  L.push_back({"vi.chip_wide_ratio", per_die(a, chip_wide_dies(a)), "ratio"});
  L.push_back({"yield.parametric_yield", a.parametric_yield(), "ratio"});
  L.push_back({"trace.phase_sum_ratio", leaf_us / wall_us, "ratio"});
  L.push_back(
      {"trace.overhead_ratio", wall_us * 1e-6 / f.untraced_s - 1.0, "ratio"});
  L.push_back({"trace.replica_match", f.replica_match ? 1.0 : 0.0, "ratio"});
  return L;
}

void Runner::traced_wafers(WorkloadResult& r, double unit_p50_s) {
  const FabView& fab = fab_->view;
  const PowerEngine power(*fab.design, *fab.activity);
  const int traced = opt_.verify ? 1 : w_.traced_units;
  Tracer tr;
  TraceFacts f;
  f.replica_match = true;
  for (int u = 0; u < traced; ++u) {
    const YieldConfig c = unit_config(cfg_, opt_.seed, u);
    const ReplicaWafer rw =
        replicate_wafer(*fab_->analyzer, fab, power, wafer_, c, tr, u);
    const auto t0 = clock::now();
    const YieldReport rep = fab_->analyzer->analyze(wafer_, c, nullptr);
    f.untraced_s += seconds_since(t0);
    const std::string serial = wafer_digest(rep.dies);
    check(u, serial, r);  // serial vs the pooled reference
    if (wafer_digest(rw.dies) != serial) {
      f.replica_match = false;
      std::printf("  REPLICA MISMATCH on unit %d\n", u);
    }
  }
  if (!opt_.trace.empty()) tr.write_chrome(trace_file(opt_.trace, w_.name));

  f.serial_unit_s = f.untraced_s / traced;
  f.characterize_ms = cfg_.effective_tier() == EvalTier::Macro
                          ? fab_->characterize_s * 1e3
                          : probe_characterize_ms(fab, cfg_.macro);
  PolicyMix vi_only;  // the mix a wafer workload's netlist is compiled with
  vi_only.name = "vi-only";
  f.policy_compile_ms = probe_policy_compile_ms(fab, vi_only);
  // A wafer unit streams nothing: its first result is the first finished
  // die of the traced serial run.
  const Span& unit0 = tr.spans().front();
  for (const Span& s : tr.spans()) {
    if (std::strcmp(s.name, "die") == 0) {
      f.first_result_s = (s.end_us - unit0.start_us) * 1e-6;
      break;
    }
  }
  f.first_result_share = f.first_result_s * 1e6 / unit0.dur_us();
  f.decided_ratio = decided_ratio_;
  const Probes probes =
      run_probes(fab, wafer_, cfg_.mc, opt_.seed, opt_.verify);
  r.layers = layer_metrics(tr, probes, f, agg_, unit_p50_s);
}

void Runner::traced_campaign(WorkloadResult& r, double unit_p50_s) {
  const FabView& fab = fab_->view;
  const CampaignSpec spec = campaign_spec(substream_seed(opt_.seed, 0));

  // 1. The planner's public calls, then every cell's wafer, traced.
  Tracer tr;
  const ReplicaCampaign rc = replicate_campaign(*fab_->runner, fab, spec, tr);
  if (!opt_.trace.empty()) tr.write_chrome(trace_file(opt_.trace, w_.name));

  // 2. One pooled run with a timestamp on every streamed record.
  ThreadPool pool(threads_);
  CampaignRunStats stats;
  CampaignRunOptions ro;
  ro.pool = &pool;
  ro.stream_path = stream_path_;
  ro.stats = &stats;
  std::optional<clock::time_point> first_record;
  ro.on_record = [&first_record](const std::string&) {
    if (!first_record) first_record = clock::now();
  };
  const auto t0 = clock::now();
  const CampaignReport pooled = fab_->runner->run(spec, ro);
  const double run_s = seconds_since(t0);
  TraceFacts f;
  f.envelope = "campaign";
  f.first_result_s =
      first_record ? std::chrono::duration<double>(*first_record - t0).count()
                   : run_s;
  f.first_result_share = f.first_result_s / run_s;
  f.jobs = static_cast<double>(stats.jobs_total);
  f.peak_pending = static_cast<double>(stats.peak_pending_shards);
  f.stream_bytes =
      static_cast<double>(std::filesystem::file_size(stream_path_));

  // 3. Resume replay of the finished stream: loads every record, runs no job.
  CampaignRunOptions resume;
  resume.pool = &pool;
  resume.stream_path = stream_path_;
  resume.resume = true;
  const auto t1 = clock::now();
  const CampaignReport replayed = fab_->runner->run(spec, resume);
  const double replay_ms = seconds_since(t1) * 1e3;

  // 4. The untraced serial run: bit-identity reference and overhead base.
  const auto t2 = clock::now();
  const CampaignReport serial = fab_->runner->run(spec, CampaignRunOptions{});
  f.untraced_s = f.serial_unit_s = seconds_since(t2);
  for (const CampaignReport* rep : {&serial, &pooled, &replayed}) {
    check(0, campaign_digest(*rep), r);
  }
  f.replica_match = rc.cells.size() == serial.cells.size();
  for (std::size_t c = 0; f.replica_match && c < rc.cells.size(); ++c) {
    ShardRecord a, b;
    a.agg = rc.cells[c];
    b.agg = serial.cells[c].agg;
    f.replica_match = serialize_shard_record(a) == serialize_shard_record(b);
  }
  if (!f.replica_match) {
    std::printf("  REPLICA MISMATCH on the campaign cells\n");
  }

  const auto tally = tr.tally();
  const auto per_call_ms = [&tally](const char* name) {
    const auto it = tally.find(name);
    return it == tally.end()
               ? 0.0
               : it->second.us / static_cast<double>(it->second.calls) * 1e-3;
  };
  f.characterize_ms = per_call_ms("ssta.characterize");
  f.policy_compile_ms = per_call_ms("vi.policy_compile");
  f.decided_ratio = rc.slots == 0 ? 0.0
                                  : static_cast<double>(rc.decided_slots) /
                                        static_cast<double>(rc.slots);
  McConfig mc = spec.base.mc;  // probes on the baseline (vi-only, sigma 1)
  mc.samples = spec.mc_samples[0];
  const Probes probes = run_probes(fab, wafer_, mc, opt_.seed, opt_.verify);
  r.layers = layer_metrics(tr, probes, f, agg_, unit_p50_s);
  // Campaign-only, so not among the per-layer metrics of BENCHMARK.json.
  r.layers.push_back({"io.resume_replay_ms", replay_ms, "ms"});
}

/// Exit non-zero when a workload stops doing the job it exists for.
void Runner::gates(WorkloadResult& r) const {
  const auto need = [&r](bool ok, const char* what) {
    if (!ok) r.gate_failures.push_back(what);
  };
  const std::string_view name = w_.name;
  if (name == "wafer_mc") {
    need(mc_dies(agg_) == agg_.dies, "wafer_mc: every die must run MC");
  } else if (name == "wafer_screened") {
    need(decided_ratio_ == 1.0,
         "wafer_screened: the screen must decide every slot");
  } else if (name == "wafer_stress") {
    const double y = agg_.parametric_yield();
    need(y >= 0.6 && y <= 0.95, "wafer_stress: yield must lie in [0.6, 0.95]");
    need(decided_ratio_ > 0.0 && decided_ratio_ < 1.0,
         "wafer_stress: the screen must leave some, not all, slots undecided");
    need(agg_.escalated > 0, "wafer_stress: no die escalated");
    need(chip_wide_dies(agg_) > 0,
         "wafer_stress: no die took the chip-wide fallback");
    need(policy_dies(agg_, TuningPolicy::Discard) > 0,
         "wafer_stress: no die was discarded");
  }
  if (r.layers.empty()) return;
  const double mc_share = find_metric(r.layers, "variation.mc_share");
  if (name == "wafer_mc") {
    need(mc_share >= 0.6, "wafer_mc: variation.mc_share below 0.6");
  } else if (name == "wafer_screened") {
    need(mc_share <= 0.05, "wafer_screened: variation.mc_share above 0.05");
  }
  const double phase = find_metric(r.layers, "trace.phase_sum_ratio");
  need(phase >= 0.95 && phase <= 1.05,
       "trace: layer spans do not sum to the traced wall within 5 %");
  need(find_metric(r.layers, "trace.replica_match") == 1.0,
       "trace: the replica's outputs differ from the library's");
}

// ---- output -----------------------------------------------------------------

std::string shell_line(const std::string& cmd) {
  FILE* p = ::popen(cmd.c_str(), "r");
  if (p == nullptr) return "";
  char buf[256] = {};
  const std::size_t n = std::fread(buf, 1, sizeof buf - 1, p);
  const int rc = ::pclose(p);
  std::string s(buf, n);
  while (!s.empty() && (s.back() == '\n' || s.back() == '\r')) s.pop_back();
  return rc == 0 ? s : "";
}

/// Short sha of the source tree, "-dirty" when tracked files differ from
/// HEAD; "unknown" outside a git checkout.  git runs only when the
/// benchmark's own tree is a checkout, so it never searches above it.
std::string git_sha() {
  namespace fs = std::filesystem;
  const fs::path root = fs::path(VIPVT_E2E_DIR).parent_path().parent_path();
  std::error_code ec;
  if (!fs::exists(root / ".git", ec) ||
      root.string().find('\'') != std::string::npos) {
    return "unknown";
  }
  const std::string git = "git -C '" + root.string() + "' ";
  const std::string sha =
      shell_line(git + "rev-parse --short=12 HEAD 2>/dev/null");
  if (sha.empty()) return "unknown";
  const std::string dirty = shell_line(
      git + "status --porcelain --untracked-files=no 2>/dev/null | head -c 1");
  return dirty.empty() ? sha : sha + "-dirty";
}

std::string utc_now() {
  const std::time_t t = std::time(nullptr);
  std::tm tm{};
  gmtime_r(&t, &tm);
  char buf[32];
  std::strftime(buf, sizeof buf, "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buf;
}

void print_metrics(const char* title, const std::vector<Metric>& ms) {
  std::printf("  %s\n", title);
  for (const Metric& m : ms) {
    std::printf("    %-30s %14.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

void json_metrics(std::ostream& os, const std::vector<Metric>& ms) {
  os << '{';
  for (std::size_t i = 0; i < ms.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", ms[i].value);
    os << (i ? ", " : "") << '"' << ms[i].name << "\": {\"value\": " << buf
       << ", \"unit\": \"" << ms[i].unit << "\"}";
  }
  os << '}';
}

void write_results(const std::string& path,
                   const std::vector<WorkloadResult>& rs, unsigned threads) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write " + path);
  os << "{\n  \"benchmark\": \"vipvt_e2e\",\n  \"provenance\": {"
     << "\"git_sha\": \"" << git_sha() << "\", \"date\": \"" << utc_now()
     << "\", \"nproc\": " << std::thread::hardware_concurrency()
     << ", \"threads\": " << threads << ", \"cpu_features\": \""
     << simd::cpu_features() << "\", \"dispatch_arch\": \""
     << simd::arch_name(simd::active_arch()) << "\"},\n  \"workloads\": [";
  for (std::size_t i = 0; i < rs.size(); ++i) {
    const WorkloadResult& r = rs[i];
    os << (i ? ",\n" : "\n") << "    {\"name\": \"" << r.name
       << "\", \"seed\": " << r.seed
       << ", \"units_per_rep\": " << r.units_per_rep
       << ", \"reps\": " << r.reps << ", \"units_beyond_p90\": " << r.beyond_p90
       << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
       << ", \"correct\": " << (r.ok() ? "true" : "false")
       << ",\n     \"gate_failures\": [";
    for (std::size_t g = 0; g < r.gate_failures.size(); ++g) {
      os << (g ? ", " : "") << '"' << r.gate_failures[g] << '"';
    }
    os << "],\n     \"metrics\": ";
    json_metrics(os, r.e2e);
    os << ",\n     \"layers\": ";
    json_metrics(os, r.layers);
    os << ",\n     \"digests\": [";
    for (std::size_t d = 0; d < r.digests.size(); ++d) {
      os << (d ? ", " : "") << '"' << r.digests[d] << '"';
    }
    os << "]}";
  }
  os << "\n  ]\n}\n";
  if (!os) throw std::runtime_error("write failed: " + path);
}

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "vipvt_e2e: %s\nusage: vipvt_e2e [--workload NAME] [--seed S] "
               "[--seconds T] [--layers 0|1] [--out PATH] "
               "[--trace PATH] [--verify]\n",
               msg);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--verify") {
      o.verify = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    if (v.empty()) usage(("empty value for " + a).c_str());
    char* end = nullptr;
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v.c_str(), &end, 10);
    } else if (a == "--seconds") {
      o.seconds = std::strtod(v.c_str(), &end);
      if (!(o.seconds > 0.0 && o.seconds < 3600.0)) usage("bad --seconds");
    } else if (a == "--layers") {
      if (v != "0" && v != "1") usage("--layers takes 0 or 1");
      o.layers = v == "1";
    } else if (a == "--out") {
      o.out = v;
    } else if (a == "--trace") {
      o.trace = v;
    } else {
      usage(("unknown option " + a).c_str());
    }
    if (end != nullptr && *end != '\0') usage(("bad value for " + a).c_str());
  }
  if (!o.workload.empty()) {
    bool known = false;
    for (const Workload& w : kWorkloads) known = known || o.workload == w.name;
    if (!known) usage(("unknown workload " + o.workload).c_str());
  }
  return o;
}

}  // namespace
}  // namespace vipvt::e2e

int main(int argc, char** argv) {
  using namespace vipvt::e2e;
  const Options opt = parse(argc, argv);
  try {
    const auto expected = load_digests(VIPVT_E2E_DIR "/digests.txt");
    const unsigned threads = pool_threads();
    std::printf("vipvt_e2e | cpu: %s | dispatch: %s | %u threads\n",
                vipvt::simd::cpu_features().c_str(),
                vipvt::simd::arch_name(vipvt::simd::active_arch()), threads);
    std::vector<WorkloadResult> results;
    bool ok = true;
    for (const Workload& w : kWorkloads) {
      if (!opt.workload.empty() && opt.workload != w.name) continue;
      Runner runner(w, opt, expected);
      results.push_back(runner.run());
      const WorkloadResult& r = results.back();
      print_metrics("end to end (times on the reference host)", r.e2e);
      std::printf("    (%zu units timed over %d rep(s), %zu beyond p90; "
                  "%zu attempted, %zu failed)\n",
                  static_cast<std::size_t>(r.units_per_rep) *
                      static_cast<std::size_t>(r.reps),
                  r.reps, r.beyond_p90, r.attempted, r.failed);
      if (!r.layers.empty()) {
        print_metrics("per layer (traced, serial) and host", r.layers);
      }
      for (const std::string& g : r.gate_failures) {
        std::printf("  GATE: %s\n", g.c_str());
      }
      ok = ok && r.ok();
    }
    write_results(opt.out, results, threads);
    std::printf("\nwrote %s — %s\n", opt.out.c_str(),
                ok ? "all correct" : "FAILED");
    return ok ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "vipvt_e2e: %s\n", e.what());
    return 1;
  }
}
