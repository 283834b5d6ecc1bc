// Monte-Carlo SSTA throughput: the per-die hot loop as a batch workload.
// One die's MC run is the inner loop of every die of the wafer-scale
// yield subsystem, so its samples/sec is the throughput ceiling of the
// whole repo.  Measures:
//
//   1. scalar-serial baseline — batch width 1 (one lane per pass of the
//      batched kernel over the run's timing cone), no pool;
//   2. the batched SoA kernel alone — widths 4/8/16/32, still serial;
//   3. batched + parallel sampling — thread pools up to the machine's
//      hardware_concurrency(); oversubscribed points (more threads than
//      cores) are still run for the determinism cross-check but recorded
//      under separate oversub_* keys and never reported as speedups;
//   4. the propagation kernel in isolation (pre-drawn factors, analyze
//      vs analyze_batch);
//   5. (unused: section 8 covers the BatchedSimd profile end to end);
//   6. the factor draw in isolation, Scalar vs BatchedSimd, against the
//      propagation cost — the batched engine exists to stop the draw
//      from dominating propagation;
//   7. the propagation kernel per SIMD dispatch target (DESIGN.md §17):
//      the dispatcher pinned to every compiled ISA in turn, each one
//      bit-compared against scalar analyze() and timed per lane;
//   8. the BatchedSimd profile end-to-end and across dispatch targets:
//      the arch-invariant draw byte-compared per target, pinned full runs
//      fingerprint-compared, plus the profile's width/thread invariance;
//      then (8b) the fused draw and the first-writer relaxation per
//      target against their scalar references;
//   9. end-to-end time attribution of one BatchedSimd sample into
//      draw / propagation / tally phases, gated to sum to the wall clock
//      within 5 % — the measurement that explains why
//      batchN_speedup_e2e sits near 1.0 while the isolated kernel wins;
//  10. the statistical cross-profile gate: Scalar and BatchedSimd use
//      different (equally valid) random streams, so their stage-slack
//      fits must agree to sampling error — disagreement beyond ~8
//      standard errors means one of the engines is wrong;
//  11. adaptive sequential sampling vs the fixed budget at an equal
//      a-priori CI target: sample savings (soft), plus the hard
//      prefix-equivalence gate — the adaptive run stopping at N must be
//      bit-identical to a fixed run with samples = N, serial and pooled;
//  12. the bound-pruned engine (DESIGN.md §22): the live endpoint, edge
//      and Box–Muller pair fractions of the run's timing cone; the hard
//      gate that every dispatch target's run, both profiles, fingerprints
//      identically to an unpruned reference loop (every instance drawn,
//      the whole graph propagated, every endpoint tallied); the pruned
//      vs unpruned loop in us/sample; and the pruned loop's draw / prop /
//      tally attribution under section 9's 5 % sum gate.
//
// Scalar-profile configurations must reproduce the scalar-serial
// reference bit-for-bit; BatchedSimd configurations must reproduce one
// BatchedSimd reference across widths, threads and every SIMD dispatch
// target; every dispatch target must reproduce the scalar propagation
// bits.  Any mismatch — or a statistical disagreement between the
// profiles — is a hard failure; CI runs this binary as the smoke check.
// Emits BENCH_mc.json for trajectory tracking across PRs.
//
// Options: --samples N (default 1536), --out PATH (default: repo root).

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <sstream>
#include <thread>

#include "netlist/vex.hpp"
#include "placement/placer.hpp"
#include "util/aligned.hpp"
#include "util/parallel.hpp"
#include "util/simd/dispatch.hpp"
#include "util/table.hpp"
#include "variation/mc_ssta.hpp"
#include "variation/model.hpp"

#include "common.hpp"

namespace {

using namespace vipvt;

/// Byte-exact fingerprint of everything a McResult carries; %.17g round-
/// trips doubles, so equal strings <=> bit-identical results.
std::string fingerprint(const McResult& r) {
  std::ostringstream os;
  char buf[32];
  const auto num = [&](double v) {
    std::snprintf(buf, sizeof buf, "%.17g,", v);
    os << buf;
  };
  os << r.samples << ';';
  for (const auto& sd : r.stages) {
    os << sd.present << ':';
    num(sd.fit.mean);
    num(sd.fit.stddev);
    num(sd.fit.p_value);
    num(sd.min_slack);
    num(sd.max_slack);
    for (double s : sd.samples) num(s);
    os << ';';
  }
  for (double p : r.endpoint_crit_prob) num(p);
  os << ';';
  for (auto c : r.endpoint_stage_crit) os << c << ',';
  os << ';';
  for (double t : r.min_period_samples) num(t);
  return os.str();
}

/// Scalar-vs-BatchedSimd statistical gate.  The profiles draw from different
/// streams, so per-sample bits differ by design; the stage-slack normal
/// fits, however, estimate the SAME population.  With n samples each,
/// the difference of two independent mean estimates has standard error
/// sigma*sqrt(2/n) and the log of the stddev ratio has standard error
/// ~1/sqrt(n-1); 8 standard errors is far beyond noise while still
/// catching a broken table (systematic factor bias) or a broken normal
/// generator (wrong variance) immediately.
bool stages_statistically_agree(const char* label, const McResult& scalar,
                                const McResult& batched, int n) {
  bool ok = true;
  std::printf("%s stage fits (n=%d per profile):\n", label, n);
  for (int s = 0; s < kNumPipeStages; ++s) {
    const StageSlackDist& a = scalar.stages[static_cast<std::size_t>(s)];
    const StageSlackDist& b = batched.stages[static_cast<std::size_t>(s)];
    if (a.present != b.present) {
      std::printf("  %-10s PRESENT-MISMATCH\n",
                  stage_name(static_cast<PipeStage>(s)));
      ok = false;
      continue;
    }
    if (!a.present) continue;
    const double sigma = std::max(a.fit.stddev, b.fit.stddev);
    const double mean_tol =
        8.0 * std::max(sigma * std::sqrt(2.0 / n), 1e-12);
    const double dmean = std::abs(a.fit.mean - b.fit.mean);
    bool stage_ok = dmean <= mean_tol;
    double log_ratio = 0.0;
    const double sd_tol = 8.0 / std::sqrt(std::max(n - 1, 1));
    if (a.fit.stddev > 0.0 && b.fit.stddev > 0.0) {
      log_ratio = std::abs(std::log(b.fit.stddev / a.fit.stddev));
      stage_ok &= log_ratio <= sd_tol;
    } else {
      stage_ok &= a.fit.stddev == b.fit.stddev;  // both degenerate
    }
    std::printf("  %-10s dmean %.2e (tol %.2e)  |log sd ratio| %.3f "
                "(tol %.3f)  %s\n",
                stage_name(static_cast<PipeStage>(s)), dmean, mean_tol,
                log_ratio, sd_tol, stage_ok ? "ok" : "DISAGREE");
    ok &= stage_ok;
  }
  std::printf("\n");
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  using clock = std::chrono::steady_clock;
  bench::print_header("MC SSTA", "per-die Monte-Carlo throughput, "
                                 "scalar vs batched vs parallel");

  const int samples = bench::arg_int(argc, argv, "--samples", 1536);
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());

  // The same tiny-core recipe as bench/wafer_yield: the workload SHAPE
  // (per-sample factor draw + full-graph propagation) matches the full
  // VEX; only the graph is smaller.
  Library lib = make_st65lp_like();
  Design design = make_vex_design(lib, VexConfig::tiny());
  Floorplan fp = Floorplan::for_design(design, FloorplanConfig{});
  PlacementDb db(fp);
  place_design(design, fp, PlacerConfig{}, db);
  StaEngine sta(design, StaOptions{});
  sta.set_clock_period(sta.min_period() * 1.01);
  const ExposureField field = ExposureField::scaled_65nm(lib.char_params());
  const VariationModel model(lib.char_params(), field);
  const MonteCarloSsta mc(design, sta, model);
  const DieLocation loc = DieLocation::point('A');
  std::printf("# design: %zu instances, %zu timing edges (%zu folded "
              "arcs), %d samples, %u hardware thread(s)\n\n",
              design.num_instances(), sta.num_edges(), sta.arcs().size(),
              samples, hw);

  McConfig base;
  base.samples = samples;
  base.seed = 0x5ca1ab1eULL;

  const auto run = [&](DrawProfile profile, int batch, ThreadPool* pool) {
    McConfig cfg = base;
    cfg.profile = profile;
    cfg.batch = batch;
    const auto t0 = clock::now();
    McResult res = mc.run(loc, cfg, pool);
    const std::chrono::duration<double> dt = clock::now() - t0;
    return std::pair{std::move(res), dt.count()};
  };

  bench::BenchJson out("mc_ssta");
  out.set("samples", samples);
  out.set("hardware_threads", hw);
  // Numeric twin of the top-level dispatch_arch provenance string
  // (0 scalar, 1 sse2, 2 avx2, 3 avx512) so trajectory tooling that only
  // reads metrics still sees which ISA produced the kernel rows.
  out.set("dispatch_arch_level",
          static_cast<double>(static_cast<int>(simd::active_arch())));
  Table t({"config", "wall [s]", "samples/sec", "speedup", "identical"});
  bool all_identical = true;

  // 1. Scalar-serial reference.
  auto [scalar_ref, scalar_s] = run(DrawProfile::Scalar, 1, nullptr);
  const std::string reference = fingerprint(scalar_ref);
  const double scalar_sps = samples / scalar_s;
  t.add_row({"scalar serial", Table::num(scalar_s, 3),
             Table::num(scalar_sps, 0), Table::num(1.0, 2), "ref"});
  out.set("scalar_serial_s", scalar_s);
  out.set("scalar_samples_per_sec", scalar_sps);

  // 2. The batched kernel end-to-end, still serial: modest by design —
  // the factor draw (RNG + device-physics transcendentals per gate)
  // dominates a sample under the Scalar profile and is identical in both
  // paths; sections 4 and 6 isolate the kernels and section 8 measures
  // the BatchedSimd profile that removes the draw bottleneck.
  for (int batch : {4, 8, 16, 32}) {
    auto [res_b, secs] = run(DrawProfile::Scalar, batch, nullptr);
    const bool same = fingerprint(res_b) == reference;
    all_identical &= same;
    const double speedup = scalar_s / secs;
    char label[32];
    std::snprintf(label, sizeof label, "batch %d serial", batch);
    t.add_row({label, Table::num(secs, 3), Table::num(samples / secs, 0),
               Table::num(speedup, 2), same ? "yes" : "NO (BUG)"});
    char key[48];
    std::snprintf(key, sizeof key, "batch%d_samples_per_sec", batch);
    out.set(key, samples / secs);
    std::snprintf(key, sizeof key, "batch%d_speedup_e2e", batch);
    out.set(key, speedup);
  }

  // 3. Batch 8 + parallel sampling.  Thread counts beyond the machine's
  // hardware concurrency measure scheduler thrash, not scaling: those
  // points still run (the determinism contract must hold at ANY thread
  // count) but are recorded under oversub_* keys, excluded from the
  // speedup columns, and never gate anything.
  double speedup_hw = 0.0;
  unsigned speedup_hw_threads = 0;
  for (unsigned threads : {1u, 2u, 4u, 8u}) {
    const bool oversub = threads > hw;
    ThreadPool pool(threads);
    auto [res_t, secs] = run(DrawProfile::Scalar, 8, &pool);
    const bool same = fingerprint(res_t) == reference;
    all_identical &= same;
    const double speedup = scalar_s / secs;
    if (!oversub && threads >= speedup_hw_threads) {
      speedup_hw = speedup;
      speedup_hw_threads = threads;
    }
    char label[48];
    std::snprintf(label, sizeof label, "batch 8, %u thread%s%s", threads,
                  threads == 1 ? "" : "s", oversub ? " (oversub)" : "");
    t.add_row({label, Table::num(secs, 3), Table::num(samples / secs, 0),
               oversub ? "-" : Table::num(speedup, 2),
               same ? "yes" : "NO (BUG)"});
    char key[48];
    if (oversub) {
      std::snprintf(key, sizeof key, "oversub_t%u_samples_per_sec", threads);
      out.set(key, samples / secs);
    } else {
      std::snprintf(key, sizeof key, "samples_per_sec_t%u", threads);
      out.set(key, samples / secs);
      std::snprintf(key, sizeof key, "speedup_t%u", threads);
      out.set(key, speedup);
    }
  }
  std::printf("%s\n", t.render().c_str());

  // 4. The propagation kernel in isolation: pre-draw the factor sets,
  // then time analyze() lane-by-lane vs analyze_batch() over the same
  // lanes, verifying every lane's StaResult is bit-identical.
  const int kernel_lanes = std::min(samples, 1024) / 8 * 8;
  const auto systematic = model.systematic_lgates(design, loc);
  const auto stencils = model.field_stencils(design);
  std::vector<std::vector<double>> factor_sets(
      static_cast<std::size_t>(kernel_lanes));
  for (int k = 0; k < kernel_lanes; ++k) {
    Rng rng(substream_seed(base.seed, static_cast<std::uint64_t>(k)));
    model.draw_factors(design, sta, systematic, rng,
                       factor_sets[static_cast<std::size_t>(k)]);
  }
  std::vector<StaResult> scalar_res(static_cast<std::size_t>(kernel_lanes));
  auto t0 = clock::now();
  for (int k = 0; k < kernel_lanes; ++k) {
    scalar_res[static_cast<std::size_t>(k)] =
        sta.analyze(factor_sets[static_cast<std::size_t>(k)]);
  }
  const std::chrono::duration<double> kern_scalar_s = clock::now() - t0;
  std::vector<StaResult> batch_res(8);
  bool kernel_identical = true;
  t0 = clock::now();
  for (int k = 0; k < kernel_lanes; k += 8) {
    sta.analyze_batch(
        std::span(factor_sets).subspan(static_cast<std::size_t>(k), 8),
        std::span(batch_res));
    for (int l = 0; l < 8; ++l) {
      const StaResult& a = scalar_res[static_cast<std::size_t>(k + l)];
      const StaResult& b = batch_res[static_cast<std::size_t>(l)];
      kernel_identical &= a.wns == b.wns && a.tns == b.tns &&
                          a.min_period_ns == b.min_period_ns &&
                          a.stage_wns == b.stage_wns &&
                          a.endpoint_slack == b.endpoint_slack;
    }
  }
  const std::chrono::duration<double> kern_batch_s = clock::now() - t0;
  all_identical &= kernel_identical;
  const double kernel_speedup = kern_scalar_s.count() / kern_batch_s.count();
  const double prop_us_per_lane = kern_batch_s.count() / kernel_lanes * 1e6;
  std::printf("propagation kernel alone (%d lanes): scalar %.2f us/lane, "
              "batch-8 %.2f us/lane -> %.2fx, %s\n\n", kernel_lanes,
              kern_scalar_s.count() / kernel_lanes * 1e6, prop_us_per_lane,
              kernel_speedup,
              kernel_identical ? "bit-identical" : "MISMATCH (BUG)");
  out.set("kernel_lanes", kernel_lanes);
  out.set("kernel_scalar_us_per_lane",
          kern_scalar_s.count() / kernel_lanes * 1e6);
  out.set("kernel_batch8_us_per_lane", prop_us_per_lane);
  out.set("kernel_speedup_b8", kernel_speedup);

  // 6. The draw in isolation: the batched engine's whole point is that
  // factor generation stops dominating propagation.  Time the scalar
  // draw (per-gate polar normals + exact pow quotient) against the
  // BatchedSimd draw_factors_batch (bulk Box-Muller + table lookup) and
  // compare both to the batch-8 propagation cost per lane.
  double draw_scalar_us = 0.0, draw_batch_us = 0.0;
  {
    const int draw_lanes = kernel_lanes;
    std::vector<double> scratch_factors;
    t0 = clock::now();
    for (int k = 0; k < draw_lanes; ++k) {
      Rng rng(substream_seed(base.seed, static_cast<std::uint64_t>(k)));
      model.draw_factors(design, sta, systematic, stencils, rng,
                         scratch_factors);
    }
    const std::chrono::duration<double> draw_scalar_s = clock::now() - t0;
    VariationModel::DrawScratch scratch;
    std::vector<double> factor_soa(design.num_instances() * 8);
    t0 = clock::now();
    for (int k = 0; k < draw_lanes; k += 8) {
      model.draw_factors_batch(design, sta, systematic, stencils, base.seed,
                               static_cast<std::uint64_t>(k), 8,
                               std::span(factor_soa), scratch);
    }
    const std::chrono::duration<double> draw_batch_s = clock::now() - t0;
    draw_scalar_us = draw_scalar_s.count() / draw_lanes * 1e6;
    draw_batch_us = draw_batch_s.count() / draw_lanes * 1e6;
    const double ratio_scalar = draw_scalar_us / prop_us_per_lane;
    const double ratio_batched = draw_batch_us / prop_us_per_lane;
    std::printf("factor draw alone (%d lanes): scalar %.2f us/sample "
                "(%.1fx propagation), BatchedSimd %.2f us/sample "
                "(%.1fx propagation), draw speedup %.2fx\n",
                draw_lanes, draw_scalar_us, ratio_scalar, draw_batch_us,
                ratio_batched, draw_scalar_us / draw_batch_us);
    out.set("draw_scalar_us_per_sample", draw_scalar_us);
    out.set("draw_batched_us_per_sample", draw_batch_us);
    out.set("draw_speedup_batched", draw_scalar_us / draw_batch_us);
    out.set("draw_over_prop_scalar", ratio_scalar);
    out.set("draw_over_prop_batched", ratio_batched);
    if (ratio_batched > 3.0) {
      std::printf("WARNING: BatchedSimd draw still dominates propagation "
                  "%.1fx > 3x\n", ratio_batched);
    }
    std::printf("\n");
  }

  // 7. The propagation kernel per dispatch target (DESIGN.md §17).  Pin
  // the dispatcher to every ISA this build compiled, re-run the batch-8
  // isolation loop over the SAME pre-drawn factor sets, and demand every
  // lane's StaResult equal the scalar analyze() reference bit-for-bit —
  // the per-lane bit-identity contract enforced in-process across ALL
  // dispatch targets, not just the autodetected one the rows above used.
  // Per-target us/lane rows land in BENCH_mc.json so each width's
  // trajectory is tracked separately.
  bool isa_identical = true;
  const std::vector<simd::Arch> archs = simd::available_archs();
  {
    Table it({"dispatch", "us/lane", "vs analyze()", "identical"});
    double sse2_us = 0.0, avx2_us = 0.0;
    for (const simd::Arch a : archs) {
      if (!simd::set_arch(a)) continue;  // compiled targets are settable
      std::vector<StaResult> res(8);
      bool same = true;
      const auto ta = clock::now();
      for (int k = 0; k < kernel_lanes; k += 8) {
        sta.analyze_batch(
            std::span(factor_sets).subspan(static_cast<std::size_t>(k), 8),
            std::span(res));
        for (int l = 0; l < 8; ++l) {
          const StaResult& sr = scalar_res[static_cast<std::size_t>(k + l)];
          const StaResult& br = res[static_cast<std::size_t>(l)];
          same &= sr.wns == br.wns && sr.tns == br.tns &&
                  sr.min_period_ns == br.min_period_ns &&
                  sr.stage_wns == br.stage_wns &&
                  sr.endpoint_slack == br.endpoint_slack;
        }
      }
      const std::chrono::duration<double> isa_s = clock::now() - ta;
      const double us = isa_s.count() / kernel_lanes * 1e6;
      if (a == simd::Arch::Sse2) sse2_us = us;
      if (a == simd::Arch::Avx2) avx2_us = us;
      isa_identical &= same;
      it.add_row({simd::arch_name(a), Table::num(us, 2),
                  Table::num(kern_scalar_s.count() / isa_s.count(), 2),
                  same ? "yes" : "NO (BUG)"});
      // "kernel_scalar_us_per_lane" is section 4's analyze() baseline;
      // the dispatched W=1 kernel gets its own kernel_w1 row.
      char key[48];
      std::snprintf(key, sizeof key, "kernel_%s_us_per_lane",
                    a == simd::Arch::Scalar ? "w1" : simd::arch_name(a));
      out.set(key, us);
    }
    simd::reset_arch();
    std::printf("propagation kernel per dispatch target (%d lanes, batch 8, "
                "bit-compared against scalar analyze(), %s):\n%s",
                kernel_lanes,
                isa_identical ? "all bit-identical" : "MISMATCH (BUG)",
                it.render().c_str());
    if (sse2_us > 0.0 && avx2_us > 0.0) {
      const double wide_speedup = sse2_us / avx2_us;
      out.set("kernel_avx2_speedup_vs_sse2", wide_speedup);
      std::printf("avx2 vs sse2: %.2fx per lane\n", wide_speedup);
      if (wide_speedup < 1.5) {
        std::printf("WARNING: AVX2 kernel speedup %.2fx over SSE2 below the "
                    "1.5x target\n", wide_speedup);
      }
    }
    std::printf("\n");
  }

  // 8. The BatchedSimd stream across dispatch targets.  The SIMD layer's
  // own Box-Muller (Rng::normals_simd -> v_log / v_sincos) must produce
  // the SAME bytes on every target — that is the whole reason the
  // profile is versioned (DESIGN.md §17).  Two gates, both hard:
  //   a) draw isolation: draw_factors_batch byte-compared (memcmp)
  //      across every target;
  //   b) pinned BatchedSimd full runs must fingerprint identically
  //      across targets, plus the profile's own width/thread invariance.
  bool simd_identical = true;
  McResult simd_ref;
  {
    const int draw_lanes = kernel_lanes;
    const std::size_t n_inst = design.num_instances();
    VariationModel::DrawScratch scratch;
    AlignedVec<double> factor_soa(n_inst * 8);
    std::vector<double> ref_stream;  // first target's full draw stream
    std::string simd_reference;
    Table st({"dispatch", "draw us/sample", "draw bytes", "run fp"});
    for (const simd::Arch a : archs) {
      if (!simd::set_arch(a)) continue;
      t0 = clock::now();
      for (int k = 0; k < draw_lanes; k += 8) {
        model.draw_factors_batch(design, sta, systematic, stencils, base.seed,
                                 static_cast<std::uint64_t>(k), 8,
                                 std::span(factor_soa), scratch);
      }
      const std::chrono::duration<double> dsimd_s = clock::now() - t0;
      // Untimed verify pass: regenerate every batch and byte-compare the
      // whole stream against the first target's capture.
      bool bytes_same = true;
      const bool first_target = ref_stream.empty();
      for (int k = 0; k < draw_lanes; k += 8) {
        model.draw_factors_batch(design, sta, systematic, stencils, base.seed,
                                 static_cast<std::uint64_t>(k), 8,
                                 std::span(factor_soa), scratch);
        if (first_target) {
          ref_stream.insert(ref_stream.end(), factor_soa.begin(),
                            factor_soa.end());
        } else {
          bytes_same &=
              std::memcmp(
                  ref_stream.data() + static_cast<std::size_t>(k) * n_inst,
                  factor_soa.data(), n_inst * 8 * sizeof(double)) == 0;
        }
      }
      auto [simd_run, simd_run_s] = run(DrawProfile::BatchedSimd, 8, nullptr);
      const std::string fp = fingerprint(simd_run);
      bool fp_same = true;
      if (simd_reference.empty()) {
        simd_reference = fp;
        simd_ref = std::move(simd_run);
        (void)simd_run_s;
      } else {
        fp_same = fp == simd_reference;
      }
      simd_identical &= bytes_same && fp_same;
      const double us = dsimd_s.count() / draw_lanes * 1e6;
      char key[48];
      std::snprintf(key, sizeof key, "draw_%s_us_per_sample",
                    a == simd::Arch::Scalar ? "w1" : simd::arch_name(a));
      out.set(key, us);
      st.add_row({simd::arch_name(a), Table::num(us, 2),
                  bytes_same ? (first_target ? "ref" : "identical")
                             : "MISMATCH",
                  fp_same ? (first_target ? "ref" : "identical")
                          : "MISMATCH"});
    }
    simd::reset_arch();
    // Width/thread invariance of the BatchedSimd profile itself — the
    // same contract Scalar carries, checked the same way.  The unpinned
    // batch-8 serial run doubles as the profile's throughput number: the
    // pinned loop above starts with the scalar target, whose draw cost
    // says nothing about what the autodetected dispatch delivers.
    double simd_unpinned_s = 0.0;
    {
      auto [w8u, w8u_s] = run(DrawProfile::BatchedSimd, 8, nullptr);
      simd_unpinned_s = w8u_s;
      simd_identical &= fingerprint(w8u) == simd_reference;
      auto [w16, w16_s] = run(DrawProfile::BatchedSimd, 16, nullptr);
      (void)w16_s;
      simd_identical &= fingerprint(w16) == simd_reference;
      ThreadPool pool(std::min(4u, hw));
      auto [pooled, pooled_s] = run(DrawProfile::BatchedSimd, 8, &pool);
      (void)pooled_s;
      simd_identical &= fingerprint(pooled) == simd_reference;
    }
    std::printf("BatchedSimd stream across dispatch targets (%d draw lanes; "
                "one pinned full run per target):\n%s",
                draw_lanes, st.render().c_str());
    std::printf("BatchedSimd serial (batch 8, %s dispatch): %.0f samples/sec "
                "(%.2fx scalar), %s\n\n",
                simd::arch_name(simd::active_arch()), samples / simd_unpinned_s,
                scalar_s / simd_unpinned_s,
                simd_identical ? "arch/width/thread-invariant"
                               : "INVARIANCE BROKEN (BUG)");
    out.set("simd_profile_samples_per_sec", samples / simd_unpinned_s);
    out.set("simd_profile_speedup_vs_scalar", scalar_s / simd_unpinned_s);
  }

  // 8b. Fused-kernel gates per dispatch target (DESIGN.md §11, §17), both
  // hard, each against a scalar reference computed here:
  //   a) the fused draw (draw_batch) must equal, per lane, the two-phase
  //      computation: its substream's normals_simd(), then std::clamp and
  //      DelayFactorTables::eval_row per element;
  //   b) the first-writer relaxation over this design's folded arcs, with
  //      only launch rows and read rows nothing writes pre-filled (the rest
  //      hold NaN garbage), must leave every row it writes or reads
  //      bit-identical to a full -inf fill followed by the plain sweep of
  //      the pin-level graph, one unfolded arc per edge.
  bool fused_identical = true;
  {
    const std::size_t n_inst = design.num_instances();
    constexpr std::size_t kW = 8;
    const DelayFactorTables& tbl = model.delay_factor_tables();
    const std::vector<std::int32_t> rows = model.table_rows(design, sta);
    const double sigma = model.sigma_random_nm();
    const double clamp = model.config().clamp_sigma * sigma;
    AlignedVec<double> want(n_inst * kW);
    std::vector<double> z(n_inst);
    for (std::size_t l = 0; l < kW; ++l) {
      Rng rng(substream_seed(base.seed, l));
      rng.normals_simd(z);
      for (std::size_t i = 0; i < n_inst; ++i) {
        want[i * kW + l] =
            tbl.eval_row(tbl.row_data(rows[i]),
                         systematic[i] + std::clamp(sigma * z[i], -clamp,
                                                    clamp));
      }
    }
    // The pin-level graph as analyze() relaxes it, one unfolded arc per
    // edge over its delay; the engine's folded arcs, which index the same
    // delays, with their first-writer marks and the rows they read.
    std::vector<simd::RelaxArc> edges;
    std::vector<float> delays;
    sta.for_each_graph_edge(
        [&](std::uint32_t from, std::uint32_t to, InstId inst, double d) {
          edges.push_back({from, to, inst,
                           static_cast<std::uint32_t>(delays.size()),
                           simd::kNoRelaxWire});
          delays.push_back(static_cast<float>(d));
        });
    const std::span<const simd::RelaxArc> arcs = sta.arcs();
    std::vector<std::uint8_t> written(sta.num_nodes(), 0);
    std::vector<std::uint8_t> read(sta.num_nodes(), 0);
    std::vector<std::uint8_t> first(arcs.size(), 0), none(edges.size(), 0);
    for (const std::uint32_t v : sta.launch_nodes()) written[v] = 1;
    for (std::size_t ai = 0; ai < arcs.size(); ++ai) {
      first[ai] = written[arcs[ai].to] == 0 ? 1 : 0;
      written[arcs[ai].to] = 1;
      read[arcs[ai].from] = 1;
    }
    for (const Endpoint& ep : sta.endpoints()) read[ep.node] = 1;
    const double neg_inf = -std::numeric_limits<double>::infinity();
    const auto launch = [&](AlignedVec<double>& arena) {
      for (std::size_t li = 0; li < sta.launch_nodes().size(); ++li) {
        double* a = &arena[sta.launch_nodes()[li] * kW];
        const InstId i = sta.launch_insts()[li];
        for (std::size_t b = 0; b < kW; ++b) {
          const double f = i == kInvalidInst ? 1.0 : want[i * kW + b];
          a[b] = std::max(neg_inf,
                          static_cast<double>(sta.launch_bases()[li]) * f);
        }
      }
    };
    AlignedVec<double> ref(sta.num_nodes() * kW, neg_inf);
    launch(ref);
    simd::kernels_for(simd::Arch::Scalar)
        ->relax_arcs(edges.data(), none.data(), edges.size(), delays.data(),
                     want.data(), ref.data(), kW);
    Table ft({"dispatch", "fused draw", "folded first-writer relax"});
    VariationModel::DrawScratch scratch;
    for (const simd::Arch a : archs) {
      if (!simd::set_arch(a)) continue;
      AlignedVec<double> got(n_inst * kW);
      model.draw_batch(rows, systematic, stencils, base.seed, 0, kW,
                       std::span(got), scratch);
      const bool tr_same =
          std::memcmp(got.data(), want.data(), want.size() * 8) == 0;
      AlignedVec<double> arr(sta.num_nodes() * kW, std::nan(""));
      for (std::uint32_t v = 0; v < sta.num_nodes(); ++v) {
        if (read[v] != 0 && written[v] == 0) {
          std::fill_n(&arr[v * kW], kW, neg_inf);
        }
      }
      launch(arr);
      simd::active_kernels().relax_arcs(arcs.data(), first.data(), arcs.size(),
                                        delays.data(), want.data(), arr.data(),
                                        kW);
      bool rx_same = true;
      for (std::uint32_t v = 0; v < sta.num_nodes(); ++v) {
        if (written[v] == 0 && read[v] == 0) continue;  // folded away
        rx_same &= std::memcmp(&arr[v * kW], &ref[v * kW], kW * 8) == 0;
      }
      fused_identical &= tr_same && rx_same;
      ft.add_row({simd::arch_name(a), tr_same ? "identical" : "MISMATCH",
                  rx_same ? "identical" : "MISMATCH"});
    }
    simd::reset_arch();
    std::printf("fused kernels per dispatch target (batch %zu, vs per-lane "
                "normals_simd + std::clamp + eval_row and a -inf-filled "
                "sweep, %s):\n%s\n",
                kW, fused_identical ? "all bit-identical" : "MISMATCH (BUG)",
                ft.render().c_str());
  }

  // 9. End-to-end time attribution of one batched sample.  Replicate the
  // engine's BatchedSimd per-batch loop phase-by-phase — the fused factor
  // draw (draw_batch, with the table rows built once per run as the
  // engine does), SoA propagation (analyze_batch_soa), tally reduce (the
  // per-lane endpoint/stage bookkeeping) — with its own timers, and gate
  // the three phases against the loop's wall clock: within 5 % or the
  // attribution (and any conclusion drawn from it) is fiction.  This is
  // the measurement that explains section 2: the isolated batch-8 kernel
  // beats scalar propagation ~2x, yet batchN_speedup_e2e sits near 1.0
  // because under the SCALAR profile the per-gate draw (polar normals +
  // pow) dominates wall time and is identical in both paths.  The
  // BatchedSimd profile shrinks exactly that phase, which is where
  // section 8's end-to-end speedup comes from.
  bool attribution_ok = true;
  double attribution_frac = 0.0;
  {
    // At least 1024 samples whatever --samples says, as in section 12: the
    // 5 % gate needs a loop long enough that one preemption cannot break it.
    const int att_samples = 1024;
    const std::size_t n_inst = design.num_instances();
    StaEngine eng(sta);
    VariationModel::DrawScratch scratch;
    AlignedVec<double> factor_soa(n_inst * 8);
    std::vector<StaResult> results(8);
    const auto& endpoints = sta.endpoints();
    const std::size_t num_eps = endpoints.size();
    std::vector<std::uint32_t> crit(num_eps, 0), stage_crit(num_eps, 0);
    std::vector<std::array<double, kNumPipeStages>> stage_wns(
        static_cast<std::size_t>(att_samples));
    std::vector<double> min_period(static_cast<std::size_t>(att_samples));
    double t_draw = 0.0, t_prop = 0.0, t_tally = 0.0;
    const auto wall0 = clock::now();
    const std::vector<std::int32_t> rows = model.table_rows(design, eng);
    for (int k = 0; k < att_samples; k += 8) {
      const auto tp = clock::now();
      model.draw_batch(rows, systematic, stencils, base.seed,
                       static_cast<std::uint64_t>(k), 8,
                       std::span(factor_soa), scratch);
      const auto tq = clock::now();
      eng.analyze_batch_soa(std::span<const double>(factor_soa), 8,
                            std::span(results));
      const auto tr = clock::now();
      for (int l = 0; l < 8; ++l) {
        const StaResult& sr = results[static_cast<std::size_t>(l)];
        stage_wns[static_cast<std::size_t>(k + l)] = sr.stage_wns;
        min_period[static_cast<std::size_t>(k + l)] = sr.min_period_ns;
        for (std::size_t epi = 0; epi < num_eps; ++epi) {
          const double slack = sr.endpoint_slack[epi];
          if (!std::isfinite(slack)) continue;
          if (slack < 0.0) ++crit[epi];
          const double swns =
              sr.stage_wns[static_cast<std::size_t>(endpoints[epi].stage)];
          if (slack <= swns + 1e-12) ++stage_crit[epi];
        }
      }
      const auto ts = clock::now();
      t_draw += std::chrono::duration<double>(tq - tp).count();
      t_prop += std::chrono::duration<double>(tr - tq).count();
      t_tally += std::chrono::duration<double>(ts - tr).count();
    }
    const double wall =
        std::chrono::duration<double>(clock::now() - wall0).count();
    const double phase_sum = t_draw + t_prop + t_tally;
    attribution_frac = phase_sum / wall;
    attribution_ok = std::abs(phase_sum - wall) <= 0.05 * wall;
    const double us = 1e6 / att_samples;
    std::printf(
        "BatchedSimd time attribution (%d samples, batch 8, serial):\n"
        "  draw       %8.2f us/sample  (%4.1f%% of wall)\n"
        "  prop       %8.2f us/sample  (%4.1f%% of wall)\n"
        "  tally      %8.2f us/sample  (%4.1f%% of wall)\n"
        "  phases sum to %.1f%% of wall — %s (gate: within 5%%)\n",
        att_samples, t_draw * us, 100.0 * t_draw / wall, t_prop * us,
        100.0 * t_prop / wall, t_tally * us, 100.0 * t_tally / wall,
        100.0 * attribution_frac,
        attribution_ok ? "accounted" : "UNACCOUNTED TIME (BUG)");
    std::printf(
        "  -> section 2's batchN_speedup_e2e ~ 1.0 explained: the Scalar "
        "profile draws at %.1f us/sample in BOTH the batch-1 and batch-N "
        "paths, dwarfing the %.2f -> %.2f us/lane propagation win; the "
        "BatchedSimd draw cuts that phase to %.1f us/sample, which is where "
        "section 8's end-to-end gain comes from\n\n",
        draw_scalar_us, kern_scalar_s.count() / kernel_lanes * 1e6,
        prop_us_per_lane, draw_batch_us);
    out.set("e2e_draw_us_per_sample", t_draw * us);
    out.set("e2e_prop_us_per_sample", t_prop * us);
    out.set("e2e_tally_us_per_sample", t_tally * us);
    out.set("e2e_phase_sum_over_wall", attribution_frac);
  }

  // 10. Statistical agreement between the profiles (hard gate):
  // BatchedSimd uses a different stream than Scalar, but both estimate
  // the same population.
  const bool stats_ok = stages_statistically_agree(
      "scalar-vs-batchedsimd", scalar_ref, simd_ref, samples);

  // 11. Adaptive sequential sampling vs the fixed budget (DESIGN.md §14).
  // The CI target is fixed a priori off the scalar reference fits: pin
  // every stage's sigma to +/-15 % and its mean to +/-40 % of the worst
  // stage sigma, at 95 % — a precision the fixed budget comfortably
  // overshoots, so a correct sequential rule stops well short of it
  // (sample savings, soft target).  The hard gate is prefix equivalence:
  // the adaptive run stopping at N must fingerprint identically to a
  // fixed run with samples = N, serial AND pooled.
  bool adaptive_identical = true;
  int adaptive_n = 0;
  double adaptive_savings = 0.0;
  {
    const int fixed_budget = std::min(samples, 500);
    double sigma_max = 0.0;
    for (const auto& sd : scalar_ref.stages) {
      if (sd.present) sigma_max = std::max(sigma_max, sd.fit.stddev);
    }

    McConfig acfg = base;
    acfg.adaptive.enabled = true;
    acfg.adaptive.min_samples = 32;
    acfg.adaptive.max_samples = fixed_budget;
    acfg.adaptive.check_every_batches = 2;
    acfg.adaptive.sigma_half_width_ns = 0.15 * sigma_max;
    acfg.adaptive.mean_half_width_ns = 0.40 * sigma_max;

    t0 = clock::now();
    const McResult adaptive = mc.run(loc, acfg);
    const std::chrono::duration<double> adaptive_s = clock::now() - t0;
    adaptive_n = adaptive.samples;
    const std::string adaptive_fp = fingerprint(adaptive);

    ThreadPool pool(std::min(4u, hw));
    t0 = clock::now();
    const McResult adaptive_pooled = mc.run(loc, acfg, &pool);
    const std::chrono::duration<double> adaptive_pool_s = clock::now() - t0;
    const bool pooled_same = fingerprint(adaptive_pooled) == adaptive_fp &&
                             adaptive_pooled.samples == adaptive_n;
    adaptive_identical &= pooled_same;

    McConfig fcfg = base;
    fcfg.samples = adaptive_n;
    const bool fixed_same = fingerprint(mc.run(loc, fcfg)) == adaptive_fp;
    const bool fixed_pool_same =
        fingerprint(mc.run(loc, fcfg, &pool)) == adaptive_fp;
    adaptive_identical &= fixed_same && fixed_pool_same;

    fcfg.samples = fixed_budget;
    t0 = clock::now();
    (void)mc.run(loc, fcfg);
    const std::chrono::duration<double> fixed_s = clock::now() - t0;

    adaptive_savings =
        1.0 - static_cast<double>(adaptive_n) / fixed_budget;
    Table at({"config", "samples", "wall [s]", "stop", "identical"});
    at.add_row({"fixed budget", std::to_string(fixed_budget),
                Table::num(fixed_s.count(), 3), "fixed-budget", "-"});
    at.add_row({"adaptive serial", std::to_string(adaptive_n),
                Table::num(adaptive_s.count(), 3),
                mc_stop_name(adaptive.stopping_reason), "ref"});
    at.add_row({"adaptive pooled", std::to_string(adaptive_pooled.samples),
                Table::num(adaptive_pool_s.count(), 3),
                mc_stop_name(adaptive_pooled.stopping_reason),
                pooled_same ? "yes" : "NO (BUG)"});
    char nlabel[40];
    std::snprintf(nlabel, sizeof nlabel, "fixed at N=%d", adaptive_n);
    at.add_row({nlabel, std::to_string(adaptive_n), "-", "fixed-budget",
                fixed_same && fixed_pool_same ? "yes" : "NO (BUG)"});
    std::printf("adaptive sampling (sigma hw <= %.4g ns, mean hw <= %.4g ns "
                "at 95 %%):\n%s",
                acfg.adaptive.sigma_half_width_ns,
                acfg.adaptive.mean_half_width_ns, at.render().c_str());
    std::printf("convergence:");
    for (const McRound& r : adaptive.convergence) {
      std::printf(" %d:%.4f/%.4f", r.samples, r.worst_mean_half_width_ns,
                  r.worst_sigma_half_width_ns);
    }
    std::printf("  -> %s, %.1f%% of the fixed budget never drawn\n\n",
                mc_stop_name(adaptive.stopping_reason),
                100.0 * adaptive_savings);

    out.set("adaptive_fixed_budget", fixed_budget);
    out.set("adaptive_samples", adaptive_n);
    out.set("adaptive_rounds", static_cast<double>(adaptive.convergence.size()));
    out.set("adaptive_converged",
            adaptive.stopping_reason == McStop::Converged ? 1.0 : 0.0);
    out.set("adaptive_sample_savings", adaptive_savings);
    out.set("adaptive_wall_s", adaptive_s.count());
    out.set("adaptive_fixed_budget_wall_s", fixed_s.count());
    out.set("adaptive_speedup_vs_fixed", fixed_s.count() / adaptive_s.count());
  }

  // 12. The bound-pruned engine (DESIGN.md §22).  The reference loop is
  // section 9's, unpruned: every instance drawn, the whole graph
  // propagated, every endpoint tallied; run() must fingerprint the same
  // on every dispatch target, for both profiles.  Then the pruned loop,
  // phase by phase, against the unpruned one.
  bool cone_identical = true;
  bool cone_attribution_ok = true;
  double cone_attribution_frac = 0.0;
  {
    StaEngine eng(sta);
    const std::vector<std::int32_t> rows = model.table_rows(design, eng);
    const TimingCone cone = MonteCarloSsta(design, eng, model).cone(systematic);
    const auto runs = VariationModel::pair_runs(cone.instances);
    std::size_t live_pairs = 0;
    for (const auto& r : runs) live_pairs += r.count;
    const std::size_t n_inst = design.num_instances();
    const std::size_t pairs = (n_inst + 1) / 2;
    const auto& endpoints = eng.endpoints();
    const std::size_t num_eps = endpoints.size();
    const double ep_frac =
        static_cast<double>(cone.endpoints.size()) / static_cast<double>(num_eps);
    const double arc_frac = static_cast<double>(cone.arcs.size()) /
                            static_cast<double>(eng.arcs().size());
    const double pair_frac =
        static_cast<double>(live_pairs) / static_cast<double>(pairs);

    // The reference McResult of the unpruned loop, aggregated as run()
    // aggregates.
    const auto reference = [&](DrawProfile profile, int n) {
      McResult r;
      r.samples = n;
      r.endpoint_crit_prob.assign(num_eps, 0.0);
      r.endpoint_stage_crit.assign(num_eps, 0);
      std::vector<std::uint32_t> crit(num_eps, 0);
      std::vector<double> f(n_inst);
      std::vector<StaResult> res(1);
      VariationModel::DrawScratch scratch;
      for (int k = 0; k < n; ++k) {
        if (profile == DrawProfile::Scalar) {
          Rng rng(substream_seed(base.seed, static_cast<std::uint64_t>(k)));
          model.draw_factors(design, eng, systematic, stencils, rng, f);
        } else {
          model.draw_factors_batch(design, eng, systematic, stencils,
                                   base.seed, static_cast<std::uint64_t>(k),
                                   1, f, scratch, true);
        }
        eng.analyze_batch_soa(f, 1, std::span(res));
        const StaResult& sr = res[0];
        for (int st = 0; st < kNumPipeStages; ++st) {
          if (std::isfinite(sr.stage_wns[static_cast<std::size_t>(st)])) {
            r.stages[st].present = true;
            r.stages[st].samples.push_back(
                sr.stage_wns[static_cast<std::size_t>(st)]);
          }
        }
        r.min_period_samples.push_back(sr.min_period_ns);
        for (std::size_t e = 0; e < num_eps; ++e) {
          const double slack = sr.endpoint_slack[e];
          if (!std::isfinite(slack)) continue;
          if (slack < 0.0) ++crit[e];
          if (slack <= sr.stage_wns[static_cast<std::size_t>(
                                        endpoints[e].stage)] + 1e-12) {
            ++r.endpoint_stage_crit[e];
          }
        }
      }
      const double inv_n = 1.0 / static_cast<double>(n);
      for (std::size_t e = 0; e < num_eps; ++e) {
        r.endpoint_crit_prob[e] = static_cast<double>(crit[e]) * inv_n;
      }
      for (int st = 0; st < kNumPipeStages; ++st) {
        auto& sd = r.stages[st];
        sd.stage = static_cast<PipeStage>(st);
        if (!sd.present) continue;
        sd.fit = fit_normal(sd.samples, base.confidence);
        const auto [lo, hi] =
            std::minmax_element(sd.samples.begin(), sd.samples.end());
        sd.min_slack = *lo;
        sd.max_slack = *hi;
      }
      return fingerprint(r);
    };
    Table ct({"profile", "samples", "target", "pruned run vs unpruned loop"});
    for (const DrawProfile profile :
         {DrawProfile::Scalar, DrawProfile::BatchedSimd}) {
      const int n = profile == DrawProfile::Scalar ? std::min(samples, 256)
                                                   : samples;
      const std::string want = reference(profile, n);
      for (const simd::Arch a : simd::available_archs()) {
        simd::set_arch(a);
        McConfig cfg = base;
        cfg.samples = n;
        cfg.profile = profile;
        const bool same = fingerprint(mc.run(loc, cfg)) == want;
        cone_identical &= same;
        ct.add_row({profile == DrawProfile::Scalar ? "scalar" : "batched-simd",
                    std::to_string(n), simd::arch_name(a),
                    same ? "identical" : "MISMATCH"});
      }
      simd::reset_arch();
    }

    // Pruned vs unpruned loop, serial, batch 8, and the pruned loop's
    // draw / prop / tally split.
    // At least 1024 samples whatever --samples says: the 5 % gate needs a
    // loop long enough that one preemption cannot break it.
    const int cone_samples = 1024;
    AlignedVec<double> factor_soa(n_inst * 8);
    std::vector<StaResult> results(8);
    std::vector<std::uint32_t> crit(num_eps, 0), stage_crit(num_eps, 0);
    VariationModel::DrawScratch scratch;
    const auto loop = [&](bool pruned, double& t_draw, double& t_prop,
                          double& t_tally) {
      const auto wall0 = clock::now();
      for (int k = 0; k < cone_samples; k += 8) {
        const auto tp = clock::now();
        model.draw_batch(rows, systematic, stencils, base.seed,
                         static_cast<std::uint64_t>(k), 8,
                         std::span(factor_soa), scratch,
                         pruned ? std::span(runs)
                                : std::span<const VariationModel::PairRun>());
        const auto tq = clock::now();
        if (pruned) {
          eng.analyze_batch_soa(std::span<const double>(factor_soa), 8,
                                std::span(results), cone);
        } else {
          eng.analyze_batch_soa(std::span<const double>(factor_soa), 8,
                                std::span(results));
        }
        const auto tr = clock::now();
        for (const StaResult& sr : results) {
          const auto tally = [&](std::uint32_t e) {
            const double slack = sr.endpoint_slack[e];
            if (!std::isfinite(slack)) return;
            if (slack < 0.0) ++crit[e];
            if (slack <= sr.stage_wns[static_cast<std::size_t>(
                             endpoints[e].stage)] + 1e-12) {
              ++stage_crit[e];
            }
          };
          if (pruned) {
            for (const std::uint32_t e : cone.endpoints) tally(e);
          } else {
            for (std::uint32_t e = 0; e < num_eps; ++e) tally(e);
          }
        }
        const auto ts = clock::now();
        t_draw += std::chrono::duration<double>(tq - tp).count();
        t_prop += std::chrono::duration<double>(tr - tq).count();
        t_tally += std::chrono::duration<double>(ts - tr).count();
      }
      return std::chrono::duration<double>(clock::now() - wall0).count();
    };
    double fd = 0, fp = 0, ft = 0, pd = 0, pp = 0, pt = 0;
    const double full_wall = loop(false, fd, fp, ft);
    const double pruned_wall = loop(true, pd, pp, pt);
    const double phase_sum = pd + pp + pt;
    cone_attribution_frac = phase_sum / pruned_wall;
    cone_attribution_ok = std::abs(phase_sum - pruned_wall) <= 0.05 * pruned_wall;
    const double us = 1e6 / cone_samples;
    std::printf(
        "bound-pruned MC (DESIGN.md §22): the cone keeps %zu/%zu endpoints "
        "(%.1f%%), %zu/%zu arcs (%.1f%%), %zu/%zu Box-Muller pairs "
        "(%.1f%%)\n%s",
        cone.endpoints.size(), num_eps, 100.0 * ep_frac, cone.arcs.size(),
        eng.arcs().size(), 100.0 * arc_frac, live_pairs, pairs,
        100.0 * pair_frac, ct.render().c_str());
    std::printf(
        "  %d samples, batch 8, serial:   unpruned   pruned\n"
        "  draw       us/sample     %8.2f %8.2f\n"
        "  prop       us/sample     %8.2f %8.2f\n"
        "  tally      us/sample     %8.2f %8.2f\n"
        "  loop       us/sample     %8.2f %8.2f  (%.2fx)\n"
        "  pruned phases sum to %.1f%% of its wall — %s (gate: within 5%%)\n\n",
        cone_samples, fd * us, pd * us, fp * us, pp * us, ft * us, pt * us,
        full_wall * us, pruned_wall * us, full_wall / pruned_wall,
        100.0 * cone_attribution_frac,
        cone_attribution_ok ? "accounted" : "UNACCOUNTED TIME (BUG)");
    out.set("cone_live_endpoint_frac", ep_frac);
    out.set("cone_live_arc_frac", arc_frac);
    out.set("cone_live_pair_frac", pair_frac);
    out.set("cone_unpruned_us_per_sample", full_wall * us);
    out.set("cone_pruned_us_per_sample", pruned_wall * us);
    out.set("cone_pruned_speedup", full_wall / pruned_wall);
    out.set("cone_draw_us_per_sample", pd * us);
    out.set("cone_prop_us_per_sample", pp * us);
    out.set("cone_tally_us_per_sample", pt * us);
    out.set("cone_phase_sum_over_wall", cone_attribution_frac);
  }

  out.write(bench::out_path(argc, argv, "BENCH_mc.json"));

  if (!all_identical) {
    std::printf("DETERMINISM VIOLATION: a Scalar-profile configuration "
                "differs from the scalar-serial reference\n");
    return 1;
  }
  if (!isa_identical) {
    std::printf("BIT-IDENTITY VIOLATION: a pinned dispatch target's batched "
                "propagation diverged from scalar analyze() — the per-lane "
                "contract of DESIGN.md §17 is broken\n");
    return 1;
  }
  if (!fused_identical) {
    std::printf("BIT-IDENTITY VIOLATION: a dispatch target's fused draw "
                "or first-writer relaxation diverged from its scalar "
                "reference (DESIGN.md §11, §17)\n");
    return 1;
  }
  if (!simd_identical) {
    std::printf("BIT-IDENTITY VIOLATION: the BatchedSimd stream is not "
                "invariant across dispatch targets / widths / threads\n");
    return 1;
  }
  if (!attribution_ok) {
    std::printf("ATTRIBUTION FAILURE: draw+prop+tally account for %.1f%% "
                "of "
                "the replicated batched loop's wall clock (gate: 100%% +/- "
                "5%%) — a phase is being measured outside the split\n",
                100.0 * attribution_frac);
    return 1;
  }
  if (!cone_identical) {
    std::printf("BIT-IDENTITY VIOLATION: a pruned Monte-Carlo run differs "
                "from the unpruned reference loop (DESIGN.md §22)\n");
    return 1;
  }
  if (!cone_attribution_ok) {
    std::printf("ATTRIBUTION FAILURE: the pruned loop's draw+prop+tally "
                "account for %.1f%% of its wall clock (gate: 100%% +/- 5%%)\n",
                100.0 * cone_attribution_frac);
    return 1;
  }
  if (!stats_ok) {
    std::printf("STATISTICAL DISAGREEMENT: the BatchedSimd stage-slack fits "
                "differ from the Scalar profile's beyond sampling error — "
                "one of the draw engines is biased\n");
    return 1;
  }
  if (!adaptive_identical) {
    std::printf("DETERMINISM VIOLATION: the adaptive run stopping at N=%d "
                "is not bit-identical to a fixed run with samples = N "
                "(prefix equivalence broken)\n", adaptive_n);
    return 1;
  }
  if (adaptive_savings <= 0.0) {
    std::printf("WARNING: adaptive sampling drew the whole fixed budget — "
                "no sample savings at the a-priori CI target\n");
  }
  if (kernel_speedup < 1.5) {
    std::printf("WARNING: batched kernel speedup %.2fx below the 1.5x "
                "target\n", kernel_speedup);
  }
  // The 4x combined target needs real cores; smaller machines still
  // verified bit-identity above, which is the part that silently breaks.
  if (hw >= 8 && speedup_hw < 4.0) {
    std::printf("WARNING: combined speedup %.2fx at %u threads below the "
                "4x target\n", speedup_hw, speedup_hw_threads);
    return 1;
  }
  if (hw < 8) {
    std::printf("note: only %u hardware thread(s); thread-scaling targets "
                "are not enforceable here\n", hw);
  }
  return 0;
}
