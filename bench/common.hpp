#pragma once
// Shared configuration for the paper-reproduction benches: every table
// and figure is regenerated on the same full-size 4-way VEX flow the
// paper evaluates (64x32 register file, 4 slots, 65 nm-class dual-Vdd
// library), differing only in the voltage-island slicing direction.
//
// The gate benches (mc_ssta, wafer_yield, policy_portfolio,
// campaign_sweep) share the rest of this header: flag parsing, the
// tiny-core recipe, the report fingerprints, the thread sweep and the
// gate list.

#include <algorithm>
#include <chrono>
#include <cctype>
#include <cerrno>
#include <climits>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "io/yield_writers.hpp"
#include "util/parallel.hpp"
#include "util/simd/dispatch.hpp"
#include "vi/flow.hpp"
#include "yield/wafer.hpp"
#include "yield/yield.hpp"

namespace vipvt::bench {

inline FlowConfig paper_flow_config(SliceDir dir = SliceDir::Vertical) {
  FlowConfig cfg;
  cfg.vex = VexConfig{};  // full 4-way, 32-bit, 64-reg core
  cfg.scenario.sweep_points = 12;
  cfg.scenario.mc.samples = 300;
  cfg.islands.dir = dir;
  cfg.islands.mc_samples = 100;
  cfg.sim_cycles = 400;
  return cfg;
}

/// Builds the flow through the requested stage, printing progress.
inline std::unique_ptr<Flow> make_flow(SliceDir dir = SliceDir::Vertical,
                                       bool through_activity = true) {
  auto flow = std::make_unique<Flow>(paper_flow_config(dir));
  std::printf("# design: %zu instances, %zu nets, clock %.3f ns (%.1f MHz)\n",
              flow->design().num_instances(), flow->design().num_nets(),
              flow->nominal_clock_ns(), 1e3 / flow->nominal_clock_ns());
  if (through_activity) {
    flow->simulate_activity();  // runs the whole pipeline
  }
  return flow;
}

/// A gate bench's command line: `--name value` pairs, every name from
/// the bench's own list.  Any other token, or a name without a value,
/// prints the usage line and exits 2 — at the top of main(), before any
/// set-up runs.
class Flags {
 public:
  Flags(int argc, char** argv, std::string usage,
        std::initializer_list<const char*> names)
      : usage_(std::move(usage)) {
    for (int i = 1; i < argc; i += 2) {
      const bool known =
          std::any_of(names.begin(), names.end(), [&](const char* n) {
            return std::strcmp(argv[i], n) == 0;
          });
      if (!known) fail("unknown argument '%s'", argv[i]);
      if (i + 1 == argc) fail("%s needs a value", argv[i]);
      values_[argv[i]] = argv[i + 1];
    }
  }

  /// `--name N` as a whole decimal integer in [min, INT_MAX] (e.g.
  /// `--samples 256` for the CI smoke budget); `fallback` when absent.
  int get(const char* name, int fallback, int min) const {
    const auto it = values_.find(name);
    if (it == values_.end()) return fallback;
    const char* s = it->second.c_str();
    char* end = nullptr;
    errno = 0;
    const long v = std::strtol(s, &end, 10);
    const bool whole = (std::isdigit(static_cast<unsigned char>(s[0])) ||
                        s[0] == '-') &&
                       end != s && *end == '\0' && errno == 0;
    if (!whole || v < min || v > INT_MAX) {
      fail("bad value '%s' for %s (need an integer >= %d)", s, name, min);
    }
    return static_cast<int>(v);
  }

  /// Where a bench's BENCH_*.json belongs.  Benches run from the build
  /// tree, but the JSON artifacts are committed at the repo root so the
  /// perf trajectory is tracked across PRs — writing next to the binary
  /// silently drops them into the (ignored) build directory.  Resolution:
  /// an explicit `--out PATH` wins; otherwise walk up from the current
  /// directory to the first directory containing ROADMAP.md (the repo
  /// marker); fall back to the current directory.
  std::string out_path(const std::string& filename) const {
    if (const auto it = values_.find("--out"); it != values_.end()) {
      return it->second;
    }
    namespace fs = std::filesystem;
    std::error_code ec;
    for (fs::path d = fs::current_path(ec); !ec && !d.empty();
         d = d.parent_path()) {
      if (fs::exists(d / "ROADMAP.md", ec)) return (d / filename).string();
      if (d == d.root_path()) break;
    }
    return filename;
  }

 private:
  [[noreturn]] __attribute__((format(printf, 2, 3))) void fail(
      const char* fmt, ...) const {
    std::va_list ap;
    va_start(ap, fmt);
    std::vfprintf(stderr, fmt, ap);
    va_end(ap);
    std::fprintf(stderr, "\n%s\n", usage_.c_str());
    std::exit(2);
  }

  std::string usage_;
  std::map<std::string, std::string> values_;
};

inline void print_header(const char* id, const char* title) {
  std::printf("==============================================================\n");
  std::printf("%s — %s\n", id, title);
  std::printf("==============================================================\n");
  // CPU capability provenance: perf numbers in bench_output.txt are only
  // comparable across machines when the ISA context is recorded alongside
  // (DESIGN.md §17).
  std::printf("# cpu: %s | dispatch: %s\n", simd::cpu_features().c_str(),
              simd::arch_name(simd::active_arch()));
}

/// First line of a shell command's stdout, or "" when it fails.
inline std::string shell_line(const char* cmd) {
  FILE* p = ::popen(cmd, "r");
  if (p == nullptr) return "";
  char buf[64] = {};
  const std::size_t n = std::fread(buf, 1, sizeof buf - 1, p);
  const int rc = ::pclose(p);
  std::string s(buf, n);
  while (!s.empty() && (s.back() == '\n' || s.back() == '\r')) s.pop_back();
  return rc == 0 ? s : "";
}

/// Short git revision of the working tree, with a "-dirty" suffix when
/// tracked files differ from HEAD (so a result file never claims a clean
/// revision for numbers measured on uncommitted code), or "unknown"
/// outside a repo / without git on PATH.  The bench artifacts at the repo
/// root (BENCH_*.json, bench_output.txt) do not count: a regeneration run
/// rewrites them bench by bench, and each later bench must still stamp
/// the clean revision.  Shelling out keeps the build free of a libgit
/// dependency; a bench runs once per result file, so the popen cost is
/// irrelevant.
inline std::string git_short_sha() {
  const std::string sha =
      shell_line("git rev-parse --short=12 HEAD 2>/dev/null");
  if (sha.empty()) return "unknown";
  const std::string dirty = shell_line(
      "git status --porcelain --untracked-files=no -- ':(top)' "
      "':(top,exclude)BENCH_*.json' ':(top,exclude)bench_output.txt' "
      "2>/dev/null | head -c 1");
  return dirty.empty() ? sha : sha + "-dirty";
}

/// Current UTC time as ISO-8601 (e.g. "2026-08-08T12:34:56Z").
inline std::string iso_utc_now() {
  const std::time_t t = std::time(nullptr);
  std::tm tm{};
  gmtime_r(&t, &tm);
  char buf[32];
  std::strftime(buf, sizeof buf, "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buf;
}

/// Machine-readable bench result sink: accumulate flat key -> number
/// metrics and emit them as a small JSON file (e.g. BENCH_wafer.json) so
/// future PRs can track performance trajectories without parsing the
/// human-oriented tables.  Keys are emitted in insertion order; numbers
/// with fixed precision — the file diffs cleanly run-to-run.  Every file
/// carries provenance (git_sha of the tree that produced it, UTC
/// timestamp) so a committed number is attributable to a revision.
class BenchJson {
 public:
  explicit BenchJson(std::string bench_name) : name_(std::move(bench_name)) {}

  void set(const std::string& key, double value) {
    metrics_.emplace_back(key, value);
  }

  /// Writes {"bench": name, "git_sha": ..., "date": ..., "cpu_features":
  /// ..., "dispatch_arch": ..., "metrics": {...}} to `path`.  The two CPU
  /// keys are capability provenance: a committed perf number is
  /// attributable to a revision AND to the ISA the dispatcher ran it on.
  void write(const std::string& path) const {
    std::ofstream os(path);
    if (!os) throw std::runtime_error("cannot open " + path + " for writing");
    os << "{\n  \"bench\": \"" << name_ << "\",\n"
       << "  \"git_sha\": \"" << git_short_sha() << "\",\n"
       << "  \"date\": \"" << iso_utc_now() << "\",\n"
       << "  \"cpu_features\": \"" << simd::cpu_features() << "\",\n"
       << "  \"dispatch_arch\": \"" << simd::arch_name(simd::active_arch())
       << "\",\n"
       << "  \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "%.6f", metrics_[i].second);
      os << (i ? ",\n    " : "\n    ") << '"' << metrics_[i].first
         << "\": " << buf;
    }
    os << "\n  }\n}\n";
    if (!os) throw std::runtime_error("write failed: " + path);
    std::printf("# wrote %s\n", path.c_str());
  }

 private:
  std::string name_;
  std::vector<std::pair<std::string, double>> metrics_;
};

// ---- gate benches ----------------------------------------------------------

/// The tiny VEX core (2585 cells) that wafer_yield, policy_portfolio,
/// campaign_sweep and bench/e2e run on: the workload SHAPE (per-die MC
/// plus compensation on a shared read-only design) is the full VEX's, at
/// a size that keeps each bench in seconds.
inline FlowConfig tiny_flow_config() {
  FlowConfig cfg;
  cfg.vex = VexConfig::tiny();
  cfg.floorplan.target_utilization = 0.55;
  cfg.scenario.sweep_points = 6;
  cfg.scenario.mc.samples = 100;
  cfg.islands.mc_samples = 80;
  cfg.sim_cycles = 150;
  return cfg;
}

/// The 300 mm default wafer, or (`dies` > 0) the smallest wafer in 10 mm
/// steps that holds at least `dies` dies — a direct workload-size dial.
inline WaferConfig wafer_for_dies(int dies) {
  WaferConfig wc;  // 300 mm, 28 mm field, 14 mm die
  if (dies <= 0) return wc;
  for (double diameter = 50.0; diameter <= 450.0; diameter += 10.0) {
    wc.wafer_diameter_mm = diameter;
    if (WaferModel(wc).num_dies() >= static_cast<std::size_t>(dies)) break;
  }
  return wc;
}

/// Every per-die field as bit patterns (hexfloat), without the report's
/// provenance stamps.  `mc` adds the fields the Monte-Carlo run or a
/// screen sets (severity, samples, stop reason, fmax, screen tier,
/// margin and band); without them the string is what a screening tier
/// must leave unchanged.
inline std::string die_bits(const YieldReport& r, bool mc) {
  std::ostringstream os;
  os << std::hexfloat;
  for (const DieOutcome& d : r.dies) {
    os << d.die_id << ' ' << d.detected_severity << ' ' << d.islands_raised
       << ' ' << static_cast<int>(d.policy) << ' ' << d.timing_met << ' '
       << d.escalated << ' ' << d.missed_violation << ' ' << d.wns_all_low_ns
       << ' ' << d.wns_final_ns << ' ' << d.total_mw << ' ' << d.leakage_mw;
    if (mc) {
      os << ' ' << d.mc_severity << ' ' << d.mc_samples << ' '
         << static_cast<int>(d.mc_stop) << ' ' << d.fmax_ghz << ' '
         << static_cast<int>(d.triage_tier) << ' ' << d.triage_margin_ns
         << ' ' << d.triage_band_ns;
    }
    os << '\n';
  }
  return os.str();
}

/// What every wafer determinism sweep compares: the serialized report
/// (CSV + JSON) and every per-die field's bits.  The writers print six
/// decimals, so a die whose power moved in its low bits keeps its report
/// text; its hexfloat die_bits line does not.
inline std::string report_bytes(const WaferModel& wafer,
                                const YieldReport& r) {
  std::ostringstream os;
  write_yield_csv(os, wafer, r);
  write_yield_json(os, r);
  os << die_bits(r, true);
  return os.str();
}

inline unsigned hardware_threads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

/// Runs `f()` and returns its wall time in seconds.
template <class F>
double seconds(F&& f) {
  const auto t0 = std::chrono::steady_clock::now();
  f();
  const std::chrono::duration<double> dt =
      std::chrono::steady_clock::now() - t0;
  return dt.count();
}

/// A gate bench's hard gates.  A failed gate prints its message and the
/// bench runs on, so one run reports every broken contract; main()
/// returns exit_code(), 1 when any gate failed.
class Gates {
 public:
  /// Records one gate; prints "GATE FAILED: " and the printf-style
  /// message when `ok` is false.  Returns `ok`.
  __attribute__((format(printf, 3, 4))) bool check(bool ok, const char* fmt,
                                                   ...) {
    if (ok) return true;
    ++failed_;
    std::printf("GATE FAILED: ");
    std::va_list ap;
    va_start(ap, fmt);
    std::vprintf(fmt, ap);
    va_end(ap);
    std::printf("\n");
    return false;
  }

  int exit_code() const {
    if (failed_ == 0) return 0;
    std::printf("%d gate(s) failed\n", failed_);
    return 1;
  }

 private:
  int failed_ = 0;
};

/// One thread count of a determinism sweep.
struct SweepRow {
  unsigned threads = 0;
  double seconds = 0.0;
  bool identical = false;
  bool oversubscribed = false;  ///< more threads than the host has
};

/// The determinism sweep: runs `run(&pool)` on a pool of each size in
/// `threads`, timed, and gates `bytes(result) == reference` for each.
/// Counts beyond hardware_threads() still gate but are marked
/// oversubscribed, so their times are never read as a speedup.
template <class Run, class Bytes>
std::vector<SweepRow> thread_sweep(Gates& gates, const std::string& what,
                                   std::initializer_list<unsigned> threads,
                                   const std::string& reference, Run&& run,
                                   Bytes&& bytes) {
  std::vector<SweepRow> rows;
  for (const unsigned n : threads) {
    ThreadPool pool(n);
    std::optional<decltype(run(&pool))> result;
    const double secs = seconds([&] { result.emplace(run(&pool)); });
    const bool same =
        gates.check(bytes(*result) == reference,
                    "DETERMINISM VIOLATION: %s differs at %u threads",
                    what.c_str(), n);
    rows.push_back({n, secs, same, n > hardware_threads()});
  }
  return rows;
}

}  // namespace vipvt::bench
