// Monte-Carlo SSTA throughput: the per-die hot loop as a batch workload.
// One die's MC run is the inner loop of every die of the wafer-scale
// yield subsystem, so its samples/sec is the throughput ceiling of the
// whole repo.  Measures and gates, by section:
//
//   1. the scalar-serial reference — batch width 1 (one lane per pass of
//      the batched kernel over the run's timing cone);
//   2. the Scalar profile's width invariance: batches 4/8/16/32 must
//      reproduce the reference bit-for-bit;
//   3. (unused: every run is serial; bench/wafer_yield measures the
//      per-die thread pool);
//   4. the propagation reference: pre-drawn factor sets through scalar
//      analyze(), timed per lane;
//   5. (unused: section 8 covers the BatchedSimd profile end to end);
//   6. the Scalar factor draw in isolation, set against section 8's
//      BatchedSimd draw and section 7's propagation cost — the batched
//      engine exists to stop the draw from dominating propagation;
//   7. the batch-8 propagation kernel per SIMD dispatch target (DESIGN.md
//      §17): the dispatcher pinned to every compiled ISA in turn, each one
//      bit-compared against section 4's analyze() and timed per lane; the
//      autodetected target's row is the kernel's cost;
//   8. the BatchedSimd profile across dispatch targets: the arch-invariant
//      draw byte-compared per target, pinned full runs
//      fingerprint-compared, plus the profile's width invariance; the
//      autodetected target's rows are the profile's draw cost and
//      throughput; then (8b) the fused draw and the first-writer
//      relaxation per target against their scalar references;
//   9. end-to-end time attribution of one BatchedSimd sample into
//      draw / propagation / tally phases, gated to sum to the wall clock
//      within 5 % — the measurement that explains why the Scalar profile
//      gains little from batching while the isolated kernel wins;
//  10. the statistical cross-profile gate: Scalar and BatchedSimd use
//      different (equally valid) random streams, so their stage-slack
//      fits must agree to sampling error — disagreement beyond ~8
//      standard errors means one of the engines is wrong;
//  11. adaptive sequential sampling vs the fixed budget at an equal
//      a-priori CI target: sample savings (soft), plus the hard
//      prefix-equivalence gate — the adaptive run stopping at N must be
//      bit-identical to a fixed run with samples = N;
//  12. the bound-pruned engine (DESIGN.md §22): the live endpoint, edge
//      and Box–Muller pair fractions of the run's timing cone; the hard
//      gate that every dispatch target's run, both profiles, fingerprints
//      identically to an unpruned reference loop (every instance drawn,
//      the whole graph propagated, every endpoint tallied); section 9's
//      loop run pruned, in us/sample against the unpruned loop, with its
//      draw / prop / tally attribution under the same 5 % sum gate.
//
// Any mismatch — or a statistical disagreement between the profiles — is
// a hard gate: it is printed, later sections still run, and the bench
// exits 1; CI runs this binary as the smoke check.  Emits BENCH_mc.json
// for trajectory tracking across PRs.
//
// Options: --samples N (default 1536, at least 32: section 11's adaptive
// floor), --out PATH (default: repo root).

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <sstream>

#include "netlist/vex.hpp"
#include "placement/placer.hpp"
#include "util/aligned.hpp"
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
  const bench::Flags flags(argc, argv,
                           "usage: mc_ssta [--samples N>=32] [--out PATH]",
                           {"--samples", "--out"});
  const int samples = flags.get("--samples", 1536, 32);
  bench::print_header("MC SSTA", "per-die Monte-Carlo throughput, "
                                 "scalar vs batched");

  // The tiny VEX core, placed and timed at 1 % above its minimum period,
  // without the voltage islands of the Flow benches: the workload SHAPE
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
              "arcs), %d samples\n\n",
              design.num_instances(), sta.num_edges(), sta.arcs().size(),
              samples);

  McConfig base;
  base.samples = samples;
  base.seed = 0x5ca1ab1eULL;

  const auto run = [&](DrawProfile profile, int batch) {
    McConfig cfg = base;
    cfg.profile = profile;
    cfg.batch = batch;
    McResult res;
    const double secs = bench::seconds([&] { res = mc.run(loc, cfg); });
    return std::pair{std::move(res), secs};
  };

  bench::Gates gates;
  bench::BenchJson out("mc_ssta");
  out.set("samples", samples);
  // Numeric twin of the top-level dispatch_arch provenance string
  // (0 scalar, 1 sse2, 2 avx2, 3 avx512) so trajectory tooling that only
  // reads metrics still sees which ISA produced the kernel rows.
  const simd::Arch native = simd::active_arch();
  out.set("dispatch_arch_level", static_cast<double>(static_cast<int>(native)));
  const std::vector<simd::Arch> archs = simd::available_archs();

  // 1. Scalar-serial reference.
  auto [scalar_ref, scalar_s] = run(DrawProfile::Scalar, 1);
  const std::string reference = fingerprint(scalar_ref);
  std::printf("scalar serial (batch 1): %.3f s, %.0f samples/sec\n", scalar_s,
              samples / scalar_s);
  out.set("scalar_serial_s", scalar_s);
  out.set("scalar_samples_per_sec", samples / scalar_s);

  // 2. The Scalar profile's width invariance.  Untimed: the per-gate draw
  // (RNG + device-physics transcendentals) dominates a Scalar sample and
  // is identical at every width, so widths change little end to end;
  // sections 7 and 9 time the kernel and the phases.
  for (const int batch : {4, 8, 16, 32}) {
    const bool same = fingerprint(run(DrawProfile::Scalar, batch).first) ==
                      reference;
    std::printf("scalar profile, batch %-2d: %s\n", batch,
                same ? "bit-identical to batch 1" : "MISMATCH (BUG)");
    gates.check(same,
                "DETERMINISM VIOLATION: the Scalar profile at batch %d "
                "differs from the scalar-serial reference", batch);
  }
  std::printf("\n");

  // 4. The propagation reference: pre-draw the factor sets, then time
  // analyze() lane by lane; section 7 bit-compares every dispatch
  // target's batched kernel against these results.
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
  const double kern_scalar_s = bench::seconds([&] {
    for (int k = 0; k < kernel_lanes; ++k) {
      scalar_res[static_cast<std::size_t>(k)] =
          sta.analyze(factor_sets[static_cast<std::size_t>(k)]);
    }
  });
  const double kern_scalar_us = kern_scalar_s / kernel_lanes * 1e6;
  out.set("kernel_lanes", kernel_lanes);
  out.set("kernel_scalar_us_per_lane", kern_scalar_us);

  // 6. The Scalar draw in isolation (per-gate polar normals + exact pow
  // quotient); printed with section 8's BatchedSimd draw below.
  std::vector<double> scratch_factors;
  const double draw_scalar_us =
      bench::seconds([&] {
        for (int k = 0; k < kernel_lanes; ++k) {
          Rng rng(substream_seed(base.seed, static_cast<std::uint64_t>(k)));
          model.draw_factors(design, sta, systematic, stencils, rng,
                             scratch_factors);
        }
      }) /
      kernel_lanes * 1e6;
  out.set("draw_scalar_us_per_sample", draw_scalar_us);

  // 7. The propagation kernel per dispatch target (DESIGN.md §17).  Pin
  // the dispatcher to every ISA this build compiled, run the batch-8
  // kernel over section 4's pre-drawn factor sets, and demand every
  // lane's StaResult equal the scalar analyze() reference bit-for-bit —
  // the per-lane bit-identity contract enforced in-process across ALL
  // dispatch targets.  The autodetected target's row is the kernel's
  // us/lane.
  double prop_us_per_lane = 0.0;
  {
    Table it({"dispatch", "us/lane", "vs analyze()", "identical"});
    bool all_same = true;
    for (const simd::Arch a : archs) {
      if (!simd::set_arch(a)) continue;  // compiled targets are settable
      std::vector<StaResult> res(8);
      bool same = true;
      const double isa_s = bench::seconds([&] {
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
      });
      const double us = isa_s / kernel_lanes * 1e6;
      if (a == native) prop_us_per_lane = us;
      all_same &= same;
      it.add_row({simd::arch_name(a), Table::num(us, 2),
                  Table::num(kern_scalar_s / isa_s, 2),
                  same ? "yes" : "NO (BUG)"});
      gates.check(same,
                  "BIT-IDENTITY VIOLATION: the pinned %s target's batched "
                  "propagation diverged from scalar analyze() — the per-lane "
                  "contract of DESIGN.md §17 is broken", simd::arch_name(a));
    }
    simd::reset_arch();
    std::printf("propagation kernel per dispatch target (%d lanes, batch 8, "
                "bit-compared against scalar analyze() at %.2f us/lane, "
                "%s):\n%s\n",
                kernel_lanes, kern_scalar_us,
                all_same ? "all bit-identical" : "MISMATCH (BUG)",
                it.render().c_str());
    out.set("kernel_batch8_us_per_lane", prop_us_per_lane);
  }

  // 8. The BatchedSimd stream across dispatch targets.  The SIMD layer's
  // own Box-Muller (Rng::normals_simd -> v_log / v_sincos) must produce
  // the SAME bytes on every target — that is the whole reason the
  // profile is versioned (DESIGN.md §17).  Two gates, both hard:
  //   a) draw isolation: draw_factors_batch byte-compared (memcmp)
  //      across every target;
  //   b) pinned BatchedSimd full runs must fingerprint identically
  //      across targets, plus the profile's own width invariance.
  // The autodetected target's draw time and full run are the profile's
  // draw cost and throughput.
  McResult simd_ref;
  double draw_batch_us = 0.0, simd_s = 0.0;
  {
    const std::size_t n_inst = design.num_instances();
    VariationModel::DrawScratch scratch;
    AlignedVec<double> factor_soa(n_inst * 8);
    std::vector<double> ref_stream;  // first target's full draw stream
    std::string simd_reference;
    bool all_same = true;
    Table st({"dispatch", "draw us/sample", "draw bytes", "run fp"});
    for (const simd::Arch a : archs) {
      if (!simd::set_arch(a)) continue;
      const double dsimd_s = bench::seconds([&] {
        for (int k = 0; k < kernel_lanes; k += 8) {
          model.draw_factors_batch(design, sta, systematic, stencils,
                                   base.seed, static_cast<std::uint64_t>(k),
                                   8, std::span(factor_soa), scratch);
        }
      });
      // Untimed verify pass: regenerate every batch and byte-compare the
      // whole stream against the first target's capture.
      bool bytes_same = true;
      const bool first_target = ref_stream.empty();
      for (int k = 0; k < kernel_lanes; k += 8) {
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
      auto [simd_run, simd_run_s] = run(DrawProfile::BatchedSimd, 8);
      const std::string fp = fingerprint(simd_run);
      bool fp_same = true;
      if (simd_reference.empty()) {
        simd_reference = fp;
        simd_ref = std::move(simd_run);
      } else {
        fp_same = fp == simd_reference;
      }
      const double us = dsimd_s / kernel_lanes * 1e6;
      if (a == native) {
        draw_batch_us = us;
        simd_s = simd_run_s;
      }
      all_same &= bytes_same && fp_same;
      st.add_row({simd::arch_name(a), Table::num(us, 2),
                  bytes_same ? (first_target ? "ref" : "identical")
                             : "MISMATCH",
                  fp_same ? (first_target ? "ref" : "identical")
                          : "MISMATCH"});
      gates.check(bytes_same && fp_same,
                  "BIT-IDENTITY VIOLATION: the BatchedSimd stream on the %s "
                  "target differs from the first target's (DESIGN.md §17)",
                  simd::arch_name(a));
    }
    simd::reset_arch();
    // Width invariance of the BatchedSimd profile itself — the same
    // contract Scalar carries, checked the same way.
    const bool width_same =
        fingerprint(run(DrawProfile::BatchedSimd, 16).first) == simd_reference;
    all_same &= width_same;
    gates.check(width_same,
                "BIT-IDENTITY VIOLATION: the BatchedSimd profile at batch 16 "
                "differs from batch 8");
    std::printf("BatchedSimd stream across dispatch targets (%d draw lanes; "
                "one pinned full run per target):\n%s",
                kernel_lanes, st.render().c_str());
    std::printf("BatchedSimd serial (batch 8, %s dispatch): %.0f samples/sec "
                "(%.2fx scalar), %s\n",
                simd::arch_name(native), samples / simd_s, scalar_s / simd_s,
                all_same ? "arch/width-invariant" : "INVARIANCE BROKEN (BUG)");
    out.set("simd_profile_samples_per_sec", samples / simd_s);
    out.set("simd_profile_speedup_vs_scalar", scalar_s / simd_s);
  }

  // 6, continued.  The batched engine's whole point is that factor
  // generation stops dominating propagation: both draws against the
  // autodetected batch-8 propagation cost per lane.
  {
    const double ratio_scalar = draw_scalar_us / prop_us_per_lane;
    const double ratio_batched = draw_batch_us / prop_us_per_lane;
    std::printf("factor draw alone (%d lanes): scalar %.2f us/sample "
                "(%.1fx propagation), BatchedSimd %.2f us/sample "
                "(%.1fx propagation), draw speedup %.2fx\n",
                kernel_lanes, draw_scalar_us, ratio_scalar, draw_batch_us,
                ratio_batched, draw_scalar_us / draw_batch_us);
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

  // Each instance's factor-table row at the engine's corners, built once
  // as the engine builds it per run.
  const std::vector<std::int32_t> rows = model.table_rows(design, sta);

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
  {
    bool fused_identical = true;
    const std::size_t n_inst = design.num_instances();
    constexpr std::size_t kW = 8;
    const DelayFactorTables& tbl = model.delay_factor_tables();
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
      gates.check(tr_same && rx_same,
                  "BIT-IDENTITY VIOLATION: the %s target's fused draw or "
                  "first-writer relaxation diverged from its scalar "
                  "reference (DESIGN.md §11, §17)", simd::arch_name(a));
    }
    simd::reset_arch();
    std::printf("fused kernels per dispatch target (batch %zu, vs per-lane "
                "normals_simd + std::clamp + eval_row and a -inf-filled "
                "sweep, %s):\n%s\n",
                kW, fused_identical ? "all bit-identical" : "MISMATCH (BUG)",
                ft.render().c_str());
  }

  // The batch-8 BatchedSimd loop of sections 9 and 12, phase by phase:
  // the fused factor draw (draw_batch), SoA propagation (analyze_batch_soa)
  // and the tally (the per-lane endpoint/stage bookkeeping), each timed
  // apart.  Given a cone and its pair runs it draws, propagates and
  // tallies only the cone, as run() does.  1024 samples whatever
  // --samples says: the 5 % gate needs a loop long enough that one
  // preemption cannot break it.
  struct Phases {
    double draw = 0.0, prop = 0.0, tally = 0.0, wall = 0.0;
    double sum_over_wall() const { return (draw + prop + tally) / wall; }
    bool accounted() const {
      return std::abs(draw + prop + tally - wall) <= 0.05 * wall;
    }
  };
  constexpr int kPhaseSamples = 1024;
  StaEngine eng(sta);
  const auto& endpoints = eng.endpoints();
  const std::size_t num_eps = endpoints.size();
  const auto phase_loop = [&](const TimingCone* cone,
                              std::span<const VariationModel::PairRun> runs) {
    VariationModel::DrawScratch scratch;
    AlignedVec<double> factor_soa(design.num_instances() * 8);
    std::vector<StaResult> results(8);
    std::vector<std::uint32_t> crit(num_eps, 0), stage_crit(num_eps, 0);
    std::vector<std::array<double, kNumPipeStages>> stage_wns(kPhaseSamples);
    std::vector<double> min_period(kPhaseSamples);
    Phases ph;
    using clock = std::chrono::steady_clock;
    const auto wall0 = clock::now();
    for (int k = 0; k < kPhaseSamples; k += 8) {
      const auto tp = clock::now();
      model.draw_batch(rows, systematic, stencils, base.seed,
                       static_cast<std::uint64_t>(k), 8,
                       std::span(factor_soa), scratch, runs);
      const auto tq = clock::now();
      if (cone != nullptr) {
        eng.analyze_batch_soa(std::span<const double>(factor_soa), 8,
                              std::span(results), *cone);
      } else {
        eng.analyze_batch_soa(std::span<const double>(factor_soa), 8,
                              std::span(results));
      }
      const auto tr = clock::now();
      for (int l = 0; l < 8; ++l) {
        const StaResult& sr = results[static_cast<std::size_t>(l)];
        stage_wns[static_cast<std::size_t>(k + l)] = sr.stage_wns;
        min_period[static_cast<std::size_t>(k + l)] = sr.min_period_ns;
        const auto tally = [&](std::uint32_t e) {
          const double slack = sr.endpoint_slack[e];
          if (!std::isfinite(slack)) return;
          if (slack < 0.0) ++crit[e];
          if (slack <= sr.stage_wns[static_cast<std::size_t>(
                           endpoints[e].stage)] + 1e-12) {
            ++stage_crit[e];
          }
        };
        if (cone != nullptr) {
          for (const std::uint32_t e : cone->endpoints) tally(e);
        } else {
          for (std::uint32_t e = 0; e < num_eps; ++e) tally(e);
        }
      }
      const auto ts = clock::now();
      ph.draw += std::chrono::duration<double>(tq - tp).count();
      ph.prop += std::chrono::duration<double>(tr - tq).count();
      ph.tally += std::chrono::duration<double>(ts - tr).count();
    }
    ph.wall = std::chrono::duration<double>(clock::now() - wall0).count();
    return ph;
  };
  constexpr double kUs = 1e6 / kPhaseSamples;

  // 9. End-to-end time attribution of one batched sample: the loop above,
  // unpruned, gated against its own wall clock — within 5 % or the
  // attribution (and any conclusion drawn from it) is fiction.  Under the
  // SCALAR profile the per-gate draw (polar normals + pow) dominates wall
  // time at every batch width, so batching barely moves a Scalar sample
  // although the isolated batch-8 kernel beats scalar propagation; the
  // BatchedSimd profile shrinks exactly that phase, which is where
  // section 8's end-to-end speedup comes from.
  const Phases full = phase_loop(nullptr, {});
  std::printf(
      "BatchedSimd time attribution (%d samples, batch 8, serial):\n"
      "  draw       %8.2f us/sample  (%4.1f%% of wall)\n"
      "  prop       %8.2f us/sample  (%4.1f%% of wall)\n"
      "  tally      %8.2f us/sample  (%4.1f%% of wall)\n"
      "  phases sum to %.1f%% of wall — %s (gate: within 5%%)\n",
      kPhaseSamples, full.draw * kUs, 100.0 * full.draw / full.wall,
      full.prop * kUs, 100.0 * full.prop / full.wall, full.tally * kUs,
      100.0 * full.tally / full.wall, 100.0 * full.sum_over_wall(),
      full.accounted() ? "accounted" : "UNACCOUNTED TIME (BUG)");
  std::printf(
      "  -> the Scalar profile draws at %.1f us/sample at every batch width, "
      "dwarfing the %.2f -> %.2f us/lane propagation win; the BatchedSimd "
      "draw cuts that phase to %.1f us/sample, which is where section 8's "
      "end-to-end gain comes from\n\n",
      draw_scalar_us, kern_scalar_us, prop_us_per_lane, draw_batch_us);
  out.set("e2e_draw_us_per_sample", full.draw * kUs);
  out.set("e2e_prop_us_per_sample", full.prop * kUs);
  out.set("e2e_tally_us_per_sample", full.tally * kUs);
  out.set("e2e_phase_sum_over_wall", full.sum_over_wall());
  gates.check(full.accounted(),
              "ATTRIBUTION FAILURE: draw+prop+tally account for %.1f%% of "
              "the replicated batched loop's wall clock (gate: 100%% +/- "
              "5%%) — a phase is being measured outside the split",
              100.0 * full.sum_over_wall());

  // 10. Statistical agreement between the profiles (hard gate):
  // BatchedSimd uses a different stream than Scalar, but both estimate
  // the same population.
  gates.check(stages_statistically_agree("scalar-vs-batchedsimd", scalar_ref,
                                         simd_ref, samples),
              "STATISTICAL DISAGREEMENT: the BatchedSimd stage-slack fits "
              "differ from the Scalar profile's beyond sampling error — one "
              "of the draw engines is biased");

  // 11. Adaptive sequential sampling vs the fixed budget (DESIGN.md §14).
  // The CI target is fixed a priori off the scalar reference fits: pin
  // every stage's sigma to +/-15 % and its mean to +/-40 % of the worst
  // stage sigma, at 95 % — a precision the fixed budget comfortably
  // overshoots, so a correct sequential rule stops well short of it
  // (sample savings, soft target).  The hard gate is prefix equivalence:
  // the adaptive run stopping at N must fingerprint identically to a
  // fixed run with samples = N.
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

    McResult adaptive;
    const double adaptive_s =
        bench::seconds([&] { adaptive = mc.run(loc, acfg); });
    const int adaptive_n = adaptive.samples;
    const std::string adaptive_fp = fingerprint(adaptive);

    McConfig fcfg = base;
    fcfg.samples = adaptive_n;
    const bool fixed_same = fingerprint(mc.run(loc, fcfg)) == adaptive_fp;

    fcfg.samples = fixed_budget;
    const double fixed_s = bench::seconds([&] { (void)mc.run(loc, fcfg); });

    const double adaptive_savings =
        1.0 - static_cast<double>(adaptive_n) / fixed_budget;
    Table at({"config", "samples", "wall [s]", "stop", "identical"});
    at.add_row({"fixed budget", std::to_string(fixed_budget),
                Table::num(fixed_s, 3), "fixed-budget", "-"});
    at.add_row({"adaptive", std::to_string(adaptive_n),
                Table::num(adaptive_s, 3),
                mc_stop_name(adaptive.stopping_reason), "ref"});
    char nlabel[40];
    std::snprintf(nlabel, sizeof nlabel, "fixed at N=%d", adaptive_n);
    at.add_row({nlabel, std::to_string(adaptive_n), "-", "fixed-budget",
                fixed_same ? "yes" : "NO (BUG)"});
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
    out.set("adaptive_wall_s", adaptive_s);
    out.set("adaptive_fixed_budget_wall_s", fixed_s);
    out.set("adaptive_speedup_vs_fixed", fixed_s / adaptive_s);
    gates.check(fixed_same,
                "DETERMINISM VIOLATION: the adaptive run stopping at N=%d is "
                "not bit-identical to a fixed run with samples = N (prefix "
                "equivalence broken)", adaptive_n);
    if (adaptive_savings <= 0.0) {
      std::printf("WARNING: adaptive sampling drew the whole fixed budget — "
                  "no sample savings at the a-priori CI target\n");
    }
  }

  // 12. The bound-pruned engine (DESIGN.md §22).  The reference loop is
  // unpruned: every instance drawn, the whole graph propagated, every
  // endpoint tallied; run() must fingerprint the same on every dispatch
  // target, for both profiles.  Then section 9's loop pruned, phase by
  // phase, against section 9's unpruned run.
  {
    const TimingCone cone = MonteCarloSsta(design, eng, model).cone(systematic);
    const auto runs = VariationModel::pair_runs(cone.instances);
    std::size_t live_pairs = 0;
    for (const auto& r : runs) live_pairs += r.count;
    const std::size_t n_inst = design.num_instances();
    const std::size_t pairs = (n_inst + 1) / 2;
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
        const char* name =
            profile == DrawProfile::Scalar ? "scalar" : "batched-simd";
        ct.add_row({name, std::to_string(n), simd::arch_name(a),
                    same ? "identical" : "MISMATCH"});
        gates.check(same,
                    "BIT-IDENTITY VIOLATION: a pruned %s run on the %s "
                    "target differs from the unpruned reference loop "
                    "(DESIGN.md §22)", name, simd::arch_name(a));
      }
      simd::reset_arch();
    }

    const Phases pruned = phase_loop(&cone, runs);
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
        kPhaseSamples, full.draw * kUs, pruned.draw * kUs, full.prop * kUs,
        pruned.prop * kUs, full.tally * kUs, pruned.tally * kUs,
        full.wall * kUs, pruned.wall * kUs, full.wall / pruned.wall,
        100.0 * pruned.sum_over_wall(),
        pruned.accounted() ? "accounted" : "UNACCOUNTED TIME (BUG)");
    out.set("cone_live_endpoint_frac", ep_frac);
    out.set("cone_live_arc_frac", arc_frac);
    out.set("cone_live_pair_frac", pair_frac);
    out.set("cone_unpruned_us_per_sample", full.wall * kUs);
    out.set("cone_pruned_us_per_sample", pruned.wall * kUs);
    out.set("cone_pruned_speedup", full.wall / pruned.wall);
    out.set("cone_draw_us_per_sample", pruned.draw * kUs);
    out.set("cone_prop_us_per_sample", pruned.prop * kUs);
    out.set("cone_tally_us_per_sample", pruned.tally * kUs);
    out.set("cone_phase_sum_over_wall", pruned.sum_over_wall());
    gates.check(pruned.accounted(),
                "ATTRIBUTION FAILURE: the pruned loop's draw+prop+tally "
                "account for %.1f%% of its wall clock (gate: 100%% +/- 5%%)",
                100.0 * pruned.sum_over_wall());
  }

  out.write(flags.out_path("BENCH_mc.json"));
  return gates.exit_code();
}
