#pragma once
// Shared configuration for the paper-reproduction benches: every table
// and figure is regenerated on the same full-size 4-way VEX flow the
// paper evaluates (64x32 register file, 4 slots, 65 nm-class dual-Vdd
// library), differing only in the voltage-island slicing direction.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "util/simd/dispatch.hpp"
#include "vi/flow.hpp"

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

/// Integer argv option of the form `--name N` (e.g. `--samples 256` for
/// the CI smoke budget).  Returns `fallback` when absent.
inline int arg_int(int argc, char** argv, const char* name, int fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return std::atoi(argv[i + 1]);
  }
  return fallback;
}

/// Where a bench's BENCH_*.json belongs.  Benches run from the build
/// tree, but the JSON artifacts are committed at the repo root so the
/// perf trajectory is tracked across PRs — writing next to the binary
/// silently drops them into the (ignored) build directory.  Resolution:
/// an explicit `--out PATH` wins; otherwise walk up from the current
/// directory to the first directory containing ROADMAP.md (the repo
/// marker); fall back to the current directory.
inline std::string out_path(int argc, char** argv,
                            const std::string& filename) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0) return argv[i + 1];
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
/// outside a repo / without git on PATH.  Shelling out keeps the build
/// free of a libgit dependency; a bench runs once per result file, so the
/// popen cost is irrelevant.
inline std::string git_short_sha() {
  const std::string sha =
      shell_line("git rev-parse --short=12 HEAD 2>/dev/null");
  if (sha.empty()) return "unknown";
  const std::string dirty = shell_line(
      "git status --porcelain --untracked-files=no 2>/dev/null | head -c 1");
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

}  // namespace vipvt::bench
