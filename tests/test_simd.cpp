// SIMD dispatch layer tests (DESIGN.md §17).  The layer's contract is
// per-lane bit-identity: every compiled dispatch target (scalar / sse2 /
// avx2 / avx512) must reproduce the ScalarPolicy reference lane
// bit-for-bit — for the folded arc-relaxation kernel, for the fused
// BatchedSimd draw against its two-phase reference (including the
// ±clamp_sigma table edges and exact interval boundaries), and for the
// arch-invariant normal stream behind DrawProfile::BatchedSimd.  Tests that pin the
// dispatcher restore it through an RAII guard so a failing assertion
// cannot leak the pin into later tests.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "netlist/vex.hpp"
#include "placement/placer.hpp"
#include "util/aligned.hpp"
#include "util/rng.hpp"
#include "util/simd/dispatch.hpp"
#include "util/simd/kernels.hpp"
#include "variation/mc_ssta.hpp"
#include "variation/model.hpp"

namespace vipvt {
namespace {

struct ArchGuard {
  ~ArchGuard() { simd::reset_arch(); }
};

TEST(SimdDispatch, AvailableArchsSaneAndSettable) {
  const std::vector<simd::Arch> archs = simd::available_archs();
  ASSERT_FALSE(archs.empty());
  // Narrowest first, scalar always compiled and always supported.
  EXPECT_EQ(archs.front(), simd::Arch::Scalar);
  ArchGuard guard;
  for (const simd::Arch a : archs) {
    EXPECT_TRUE(simd::arch_available(a)) << simd::arch_name(a);
    ASSERT_TRUE(simd::set_arch(a)) << simd::arch_name(a);
    EXPECT_EQ(simd::active_arch(), a);
    ASSERT_NE(simd::kernels_for(a), nullptr);
    EXPECT_EQ(&simd::active_kernels(), simd::kernels_for(a));
  }
  simd::reset_arch();
  // The autodetected default is itself one of the available targets.
  EXPECT_TRUE(simd::arch_available(simd::active_arch()));
  EXPECT_FALSE(simd::cpu_features().empty());
  EXPECT_STREQ(simd::arch_name(simd::Arch::Scalar), "scalar");
}

TEST(SimdDispatch, UnavailableArchRejectedWithoutStateChange) {
  ArchGuard guard;
  const simd::Arch before = simd::active_arch();
  for (const simd::Arch a : {simd::Arch::Sse2, simd::Arch::Avx2,
                             simd::Arch::Avx512}) {
    if (simd::arch_available(a)) continue;
    EXPECT_EQ(simd::kernels_for(a), nullptr);
    EXPECT_FALSE(simd::set_arch(a));
    EXPECT_EQ(simd::active_arch(), before);
  }
}

// Randomized relax kernels over folded arcs: every target must produce
// the documented relaxation's exact bytes — fixed arcs from + d, cell
// arcs from + d * f, folded ones (from + w) + d * f — for widths that
// exercise full vector chunks, remainder lanes (width % W != 0) and the
// width-1 degenerate case.  Rows and delays include -0.0, so an arc that
// folds no net but added a 0.0 wire (-0.0 + 0.0 = +0.0) would show.
TEST(SimdKernels, RelaxArcsBitIdenticalAcrossTargets) {
  const std::vector<simd::Arch> archs = simd::available_archs();

  constexpr std::size_t kNodes = 48;
  constexpr std::size_t kInsts = 40;
  constexpr std::size_t kDelays = 64;
  Rng rng(0xfeedULL);
  std::vector<float> delays(kDelays);
  for (std::size_t k = 0; k < kDelays; ++k) {
    delays[k] =
        k % 9 == 0 ? -0.0f : static_cast<float>(0.01 + rng.uniform() * 0.2);
  }
  std::vector<simd::RelaxArc> arcs;
  std::size_t folded = 0, plain = 0, fixed = 0;
  for (std::size_t i = 0; i < 400; ++i) {
    simd::RelaxArc a;
    a.from = static_cast<std::uint32_t>(rng.next() % kNodes);
    a.to = static_cast<std::uint32_t>(rng.next() % kNodes);
    a.delay = static_cast<std::uint32_t>(rng.next() % kDelays);
    // ~1 in 4 arcs fixed (net edges carry no instance factor); half the
    // cell arcs fold a net.
    if (rng.next() % 4 == 0) {
      ++fixed;
    } else {
      a.inst = static_cast<std::uint32_t>(rng.next() % kInsts);
      if (rng.next() % 2 == 0) {
        a.wire = static_cast<std::uint32_t>(rng.next() % kDelays);
        ++folded;
      } else {
        ++plain;
      }
    }
    arcs.push_back(a);
  }
  ASSERT_GT(folded, 0u);
  ASSERT_GT(plain, 0u);
  ASSERT_GT(fixed, 0u);

  for (const std::size_t width : {std::size_t{1}, std::size_t{2},
                                  std::size_t{3}, std::size_t{4},
                                  std::size_t{5}, std::size_t{7},
                                  std::size_t{8}, std::size_t{16},
                                  std::size_t{17}, std::size_t{32}}) {
    AlignedVec<double> factors(kInsts * width);
    for (auto& f : factors) f = 0.8 + 0.4 * rng.uniform();
    AlignedVec<double> init(kNodes * width);
    for (std::size_t k = 0; k < init.size(); ++k) {
      init[k] = k % 5 == 0   ? -0.0
                : k % 5 == 1 ? -std::numeric_limits<double>::infinity()
                             : rng.uniform();
    }

    // The documented relaxation, arc by arc, without first-writer flags.
    AlignedVec<double> want = init;
    for (const simd::RelaxArc& a : arcs) {
      const auto d = static_cast<double>(delays[a.delay]);
      for (std::size_t b = 0; b < width; ++b) {
        const double from = want[a.from * width + b];
        double cand;
        if (a.inst == simd::kInvalidRelaxInst) {
          cand = from + d;
        } else if (a.wire == simd::kNoRelaxWire) {
          cand = from + d * factors[a.inst * width + b];
        } else {
          cand = (from + static_cast<double>(delays[a.wire])) +
                 d * factors[a.inst * width + b];
        }
        double& to = want[a.to * width + b];
        to = std::max(to, cand);
      }
    }
    const std::vector<std::uint8_t> none(arcs.size(), 0);
    for (const simd::Arch a : archs) {
      const simd::Kernels* k = simd::kernels_for(a);
      ASSERT_NE(k, nullptr);
      AlignedVec<double> got = init;
      k->relax_arcs(arcs.data(), none.data(), arcs.size(), delays.data(),
                    factors.data(), got.data(), width);
      EXPECT_EQ(std::memcmp(want.data(), got.data(),
                            want.size() * sizeof(double)),
                0)
          << "relax_arcs " << simd::arch_name(a) << " width " << width;
    }
  }
}

// A cell arc that folds no net leaves a -0.0 arrival's sign alone:
// -0.0 + (-0.0 * f) is -0.0, while (-0.0 + 0.0) + (-0.0 * f) is +0.0.
TEST(SimdKernels, RelaxArcWithoutWireAddsNoZero) {
  const std::vector<float> delays = {-0.0f, 0.0f};
  simd::RelaxArc plain;
  plain.from = 0;
  plain.to = 1;
  plain.inst = 0;
  plain.delay = 0;
  simd::RelaxArc folded = plain;
  folded.to = 2;
  folded.wire = 1;
  const std::vector<simd::RelaxArc> arcs = {plain, folded};
  const std::vector<std::uint8_t> first = {1, 1};
  for (const simd::Arch a : simd::available_archs()) {
    for (const std::size_t width :
         {std::size_t{1}, std::size_t{8}, std::size_t{9}}) {
      AlignedVec<double> factors(width, 1.25);
      AlignedVec<double> arr(3 * width, std::nan(""));
      std::fill_n(arr.data(), width, -0.0);
      simd::kernels_for(a)->relax_arcs(arcs.data(), first.data(), arcs.size(),
                                       delays.data(), factors.data(),
                                       arr.data(), width);
      for (std::size_t b = 0; b < width; ++b) {
        EXPECT_TRUE(std::signbit(arr[width + b]) && arr[width + b] == 0.0)
            << simd::arch_name(a) << " width " << width << " lane " << b;
        EXPECT_FALSE(std::signbit(arr[2 * width + b]))
            << simd::arch_name(a) << " width " << width << " lane " << b;
      }
    }
  }
}

// ---- the fused BatchedSimd draw kernel (DESIGN.md §11, §17) -------------

/// One fused-draw call: lane l's generator seed, instance rows and
/// systematic Lgates, an optional instance-major offset, sigma and clamp.
struct DrawInput {
  std::vector<std::int32_t> rows;
  std::vector<double> sys;
  std::vector<std::uint64_t> lane_seeds;
  AlignedVec<double> offset;  // empty: no offset
  double sigma = 1.0;
  double clamp = std::numeric_limits<double>::infinity();
  std::size_t n() const { return rows.size(); }
  std::size_t width() const { return lane_seeds.size(); }
};

/// The two-phase reference: each lane's own normals_simd() stream, then
/// std::clamp([offset +] sigma * z), then DelayFactorTables::eval_row.
std::vector<double> two_phase_draw(const DelayFactorTables& tbl,
                                   const DrawInput& in) {
  const std::size_t n = in.n(), width = in.width();
  std::vector<double> out(n * width), z(n);
  for (std::size_t l = 0; l < width; ++l) {
    Rng rng(in.lane_seeds[l]);
    rng.normals_simd(z);
    for (std::size_t i = 0; i < n; ++i) {
      double v = in.sigma * z[i];
      if (!in.offset.empty()) v = in.offset[i * width + l] + v;
      out[i * width + l] =
          tbl.eval_row(tbl.row_data(in.rows[i]),
                       in.sys[i] + std::clamp(v, -in.clamp, in.clamp));
    }
  }
  return out;
}

/// The kernel of one dispatch target on the same input: keys are the two
/// draws normals_simd() takes from each lane's generator.  Slots past
/// the n x width block must stay untouched.
std::vector<double> fused_draw(const simd::Kernels& k,
                               const DelayFactorTables& tbl,
                               const DrawInput& in) {
  const std::size_t n = in.n(), width = in.width();
  std::vector<std::uint64_t> keys;
  for (const std::uint64_t seed : in.lane_seeds) {
    Rng rng(seed);
    keys.push_back(rng.next());
    keys.push_back(rng.next());
  }
  std::vector<double> out(n * width + 3, 42.0);
  k.draw_factors(tbl.kernel_table(), in.rows.data(), in.sys.data(),
                 keys.data(), in.offset.empty() ? nullptr : in.offset.data(),
                 in.sigma, in.clamp, out.data(), n, width, 0);
  for (std::size_t k2 = n * width; k2 < out.size(); ++k2) {
    EXPECT_EQ(out[k2], 42.0) << "slot " << k2 << " written";
  }
  out.resize(n * width);
  return out;
}

/// Bitwise equality of two factor vectors (memcmp needs non-null
/// pointers even for zero bytes, which an empty vector may not give).
bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * 8) == 0);
}

/// Rows cycling through every (corner, Vth) row and systematic Lgates
/// spread over the table, both edges and beyond them included.
DrawInput draw_input(const DelayFactorTables& tbl, std::size_t n,
                     std::size_t width, Rng& rng) {
  const double lo = tbl.lo_nm(), hi = tbl.hi_nm();
  const std::vector<double> edges = {lo, hi, lo - 0.5, hi + 0.5};
  DrawInput in;
  for (std::size_t i = 0; i < n; ++i) {
    in.rows.push_back(static_cast<std::int32_t>(i % DelayFactorTables::kRows));
    in.sys.push_back(i % 5 == 0 ? edges[(i / 5) % edges.size()]
                                : lo + (hi - lo) * rng.uniform());
  }
  for (std::size_t l = 0; l < width; ++l) {
    in.lane_seeds.push_back(0xd5a0 + 977 * n + l);
  }
  return in;
}

// The fused draw against the two-phase reference, byte for byte on every
// dispatch target: lane counts on both sides of every register width
// (remainders step down 8 -> 4 -> 2 -> 1), instance counts around the
// old 128-pair block and odd ones (the last sine dropped), the model's
// scale and clamp, a sigma large enough that the clamp binds on about a
// third of the draws, and an offset (the correlated lanes' field values).
TEST(SimdKernels, FusedDrawMatchesTwoPhaseReference) {
  CharParams cp;
  const ExposureField field = ExposureField::scaled_65nm(cp);
  const VariationModel model(cp, field);
  const DelayFactorTables& tbl = model.delay_factor_tables();
  const double sigma = model.sigma_random_nm();
  const double clamp = model.config().clamp_sigma * sigma;
  Rng rng(0xf05edULL);
  ArchGuard guard;
  for (const std::size_t width :
       {1u, 2u, 3u, 4u, 5u, 7u, 8u, 9u, 12u, 16u, 17u}) {
    for (const std::size_t n : {0u, 1u, 2u, 3u, 255u, 256u, 257u, 2585u}) {
      DrawInput in = draw_input(tbl, n, width, rng);
      for (int mode = 0; mode < 3; ++mode) {
        // Mode 1: sigma = clamp, so every |z| > 1 clamps.  Mode 2: half
        // the variance in the offset, as a correlated lane splits it.
        in.clamp = clamp;
        in.sigma = mode == 1 ? clamp : sigma;
        in.offset.clear();
        if (mode == 2) {
          in.sigma = sigma * std::sqrt(0.5);
          in.offset.resize(n * width);
          for (double& o : in.offset) o = in.sigma * rng.normal();
        }
        const std::vector<double> want = two_phase_draw(tbl, in);
        for (const simd::Arch a : simd::available_archs()) {
          const std::vector<double> got =
              fused_draw(*simd::kernels_for(a), tbl, in);
          EXPECT_TRUE(same_bits(got, want))
              << simd::arch_name(a) << " width " << width << " n " << n
              << " mode " << mode;
        }
      }
    }
  }
}

// A draw that starts at Box–Muller pair p0 (the pruned draw of DESIGN.md
// §22) writes exactly the rows 2 * p0 on of a draw from pair 0, on every
// target: counter keying makes pair k's normals a function of k alone.
// Odd and even starts and lengths, with and without the offset.
TEST(SimdKernels, FusedDrawFromPairOffsetMatchesFullDraw) {
  CharParams cp;
  const ExposureField field = ExposureField::scaled_65nm(cp);
  const VariationModel model(cp, field);
  const DelayFactorTables& tbl = model.delay_factor_tables();
  Rng rng(0x0ff5e7ULL);
  ArchGuard guard;
  for (const std::size_t width : {1u, 3u, 8u, 9u}) {
    DrawInput in = draw_input(tbl, 301, width, rng);
    in.sigma = model.sigma_random_nm();
    in.clamp = model.config().clamp_sigma * in.sigma;
    for (const bool offset : {false, true}) {
      in.offset.clear();
      if (offset) {
        in.offset.resize(in.n() * width);
        for (double& o : in.offset) o = in.sigma * rng.normal();
      }
      for (const simd::Arch a : simd::available_archs()) {
        const simd::Kernels& k = *simd::kernels_for(a);
        const std::vector<double> full = fused_draw(k, tbl, in);
        std::vector<std::uint64_t> keys;
        for (const std::uint64_t seed : in.lane_seeds) {
          Rng lane(seed);
          keys.push_back(lane.next());
          keys.push_back(lane.next());
        }
        for (const std::size_t p0 : {0u, 1u, 16u, 17u, 150u}) {
          for (const std::size_t count : {1u, 2u, 33u}) {
            const std::size_t i0 = 2 * p0;
            const std::size_t m = std::min(2 * count, in.n() - i0);
            std::vector<double> out(m * width + 3, 42.0);
            k.draw_factors(tbl.kernel_table(), in.rows.data() + i0,
                           in.sys.data() + i0, keys.data(),
                           offset ? in.offset.data() + i0 * width : nullptr,
                           in.sigma, in.clamp, out.data(), m, width, p0);
            for (std::size_t j = m * width; j < out.size(); ++j) {
              EXPECT_EQ(out[j], 42.0) << "slot " << j << " written";
            }
            out.resize(m * width);
            const std::vector<double> want(
                full.begin() + static_cast<std::ptrdiff_t>(i0 * width),
                full.begin() + static_cast<std::ptrdiff_t>((i0 + m) * width));
            EXPECT_TRUE(same_bits(out, want))
                << simd::arch_name(a) << " width " << width << " pair "
                << p0 << " count " << count << " offset " << offset;
          }
        }
      }
    }
  }
}

// The table step and the clamp at the hard spots, through the offset
// with sigma = 0 (so the deviation is the offset, exactly): the clamp
// edges, points past the table on both sides, exact interval boundaries,
// deviations at, inside and beyond ±clamp, ±0 and their neighbours.
// Each factor must equal eval_row at sys + std::clamp(offset) directly,
// on every target.  eval_row_slope's value must equal eval_row bitwise,
// and its slope must hold the clamped segment's.
TEST(SimdKernels, FusedDrawTableEdgesAndClampExact) {
  CharParams cp;
  const ExposureField field = ExposureField::scaled_65nm(cp);
  const VariationModel model(cp, field);
  const DelayFactorTables& tbl = model.delay_factor_tables();
  ASSERT_TRUE(tbl.built());
  const double lo = tbl.lo_nm();
  const double hi = tbl.hi_nm();
  const double range = hi - lo;
  const int intervals = tbl.intervals();
  const double inf = std::numeric_limits<double>::infinity();

  // Clamp edges, out-of-range points, interval boundaries, interior.
  std::vector<double> points = {lo,        hi,        lo - 3.0,
                                hi + 3.0,  lo - 1e-9, hi + 1e-9,
                                lo + 0.5 * range / intervals};
  for (const int k : {1, 2, intervals / 2, intervals - 1, intervals}) {
    points.push_back(lo + range * k / intervals);
  }
  Rng rng(0xab1eULL);
  for (int i = 0; i < 16; ++i) points.push_back(lo + range * rng.uniform());

  // eval_row_slope: value bitwise equal to eval_row everywhere; in the
  // clamped region below lo the segment is pinned to j = 0, so value and
  // slope are exactly row_coef[0] + row_coef[1] * (lg - lo) and
  // row_coef[1]; above hi the slope matches any other point of the last
  // segment.
  for (int r = 0; r < DelayFactorTables::kRows; ++r) {
    const double* rd = tbl.row_data(r);
    for (const double lg : points) {
      double slope = 0.0;
      const double v = tbl.eval_row(rd, lg);
      EXPECT_EQ(v, tbl.eval_row_slope(rd, lg, &slope));
      if (lg < lo) {
        EXPECT_EQ(v, rd[0] + rd[1] * (lg - lo));
        EXPECT_EQ(slope, rd[1]);
      }
    }
    double slope_above = 0.0, slope_last = 0.0;
    (void)tbl.eval_row_slope(rd, hi + 3.0, &slope_above);
    (void)tbl.eval_row_slope(rd, hi - 1e-6 * range, &slope_last);
    EXPECT_EQ(slope_above, slope_last);
  }

  const double clamp = model.config().clamp_sigma * model.sigma_random_nm();
  const std::vector<double> specials = {
      clamp,        -clamp,        clamp * 1.5,
      -clamp * 1.5, clamp * 100.0, -clamp * 100.0,
      0.0,          -0.0,          std::nextafter(clamp, inf),
      std::nextafter(-clamp, -inf), std::nextafter(clamp, 0.0)};
  ArchGuard guard;
  for (const std::size_t width : {1u, 3u, 8u, 9u, 17u}) {
    // Instances cycle rows x points.  Pass-through (clamp = +inf): lane 0
    // at exactly zero keeps the boundary points on their boundaries, the
    // others spread around; clamped: the special deviations.
    const std::size_t n = points.size() * DelayFactorTables::kRows;
    DrawInput in = draw_input(tbl, n, width, rng);
    for (std::size_t i = 0; i < n; ++i) {
      in.sys[i] = points[i / DelayFactorTables::kRows];
    }
    in.sigma = 0.0;
    in.offset.resize(n * width);
    for (const bool clamped : {false, true}) {
      in.clamp = clamped ? clamp : inf;
      for (std::size_t k = 0; k < in.offset.size(); ++k) {
        in.offset[k] = clamped ? specials[k % specials.size()]
                               : (k % width == 0 ? 0.0
                                                 : (rng.uniform() - 0.5) *
                                                       range);
      }
      for (const simd::Arch a : simd::available_archs()) {
        const std::vector<double> got =
            fused_draw(*simd::kernels_for(a), tbl, in);
        for (std::size_t i = 0; i < n; ++i) {
          const double* rd = tbl.row_data(in.rows[i]);
          for (std::size_t l = 0; l < width; ++l) {
            const double d =
                std::clamp(in.offset[i * width + l], -in.clamp, in.clamp);
            EXPECT_EQ(got[i * width + l], tbl.eval_row(rd, in.sys[i] + d))
                << simd::arch_name(a) << " width " << width << " inst " << i
                << " lane " << l << (clamped ? " clamped" : " pass-through");
          }
        }
      }
    }
  }
}

// First-writer relaxation (DESIGN.md §17): with only the launch rows and
// the never-written rows pre-filled, flagged relaxation must leave the
// whole arena bit-identical to a full -inf fill followed by the plain
// sweep.  Random DAGs of fixed, cell and net-folding arcs with duplicate
// arcs, launch nodes that are also arc targets, never-written nodes, a
// NaN factor (max against -inf turns it into -inf either way) and
// NaN/+inf garbage in the unfilled rows.
TEST(SimdKernels, FirstWriterRelaxMatchesNegInfFill) {
  constexpr std::size_t kNodes = 64;
  constexpr std::size_t kInsts = 24;
  const double neg_inf = -std::numeric_limits<double>::infinity();
  ArchGuard guard;
  Rng rng(0xf1257ULL);
  for (int trial = 0; trial < 6; ++trial) {
    // Node ids are a topological order: arcs run from lower to higher.
    // Nodes with id % 7 == 3 are never targeted nor launched, but read.
    const auto unwritten = [](std::uint32_t v) { return v % 7 == 3; };
    std::vector<float> delays(32);
    for (float& d : delays) d = static_cast<float>(0.01 + rng.uniform() * 0.2);
    std::vector<simd::RelaxArc> edges;
    while (edges.size() < 220) {
      simd::RelaxArc e;
      e.from = static_cast<std::uint32_t>(rng.below(kNodes - 1));
      e.to = static_cast<std::uint32_t>(e.from + 1 +
                                        rng.below(kNodes - 1 - e.from));
      if (unwritten(e.to)) continue;
      e.delay = static_cast<std::uint32_t>(rng.below(delays.size()));
      if (rng.below(4) != 0) {
        e.inst = static_cast<std::uint32_t>(rng.below(kInsts));
        if (rng.below(2) == 0) {
          e.wire = static_cast<std::uint32_t>(rng.below(delays.size()));
        }
      }
      edges.push_back(e);
      if (rng.below(8) == 0) edges.push_back(e);  // duplicate arc
    }
    std::stable_sort(edges.begin(), edges.end(),
                     [](const simd::RelaxArc& a, const simd::RelaxArc& b) {
                       return a.from < b.from;
                     });
    std::vector<std::uint32_t> launches;
    for (std::uint32_t v = 0; v < kNodes; ++v) {
      if (!unwritten(v) && rng.below(5) == 0) {
        launches.push_back(v);  // some are edge targets too
      }
    }
    // The marks StaEngine::build_graph derives.
    std::vector<std::uint8_t> written(kNodes, 0), first(edges.size(), 0);
    for (const std::uint32_t v : launches) written[v] = 1;
    for (std::size_t ei = 0; ei < edges.size(); ++ei) {
      first[ei] = written[edges[ei].to] == 0 ? 1 : 0;
      written[edges[ei].to] = 1;
    }
    const std::vector<std::uint8_t> none(edges.size(), 0);

    for (const std::size_t width : {std::size_t{1}, std::size_t{3},
                                    std::size_t{8}, std::size_t{17}}) {
      AlignedVec<double> factors(kInsts * width);
      for (auto& f : factors) f = 0.8 + 0.4 * rng.uniform();
      factors[5 * width] = std::nan("");
      std::vector<double> launch_val(launches.size() * width);
      for (auto& l : launch_val) l = rng.uniform();

      const auto init = [&](AlignedVec<double>& arena, bool full_fill) {
        arena.assign(kNodes * width, 0.0);
        for (std::size_t k = 0; k < arena.size(); ++k) {
          arena[k] = full_fill ? neg_inf
                               : (k % 3 == 0 ? std::nan("")
                                             : (k % 3 == 1 ? -neg_inf : 7.0));
        }
        for (std::uint32_t v = 0; v < kNodes; ++v) {
          if (!full_fill && written[v] != 0) continue;
          std::fill_n(arena.data() + v * width, width, neg_inf);
        }
        for (std::size_t li = 0; li < launches.size(); ++li) {
          double* row = arena.data() + launches[li] * width;
          std::fill_n(row, width, neg_inf);
          for (std::size_t b = 0; b < width; ++b) {
            row[b] = std::max(row[b], launch_val[li * width + b]);
          }
        }
      };
      const simd::Kernels* scalar = simd::kernels_for(simd::Arch::Scalar);
      AlignedVec<double> ref;
      init(ref, true);
      scalar->relax_arcs(edges.data(), none.data(), edges.size(),
                         delays.data(), factors.data(), ref.data(), width);
      for (const simd::Arch a : simd::available_archs()) {
        const simd::Kernels* k = simd::kernels_for(a);
        AlignedVec<double> got;
        init(got, false);
        k->relax_arcs(edges.data(), first.data(), edges.size(), delays.data(),
                      factors.data(), got.data(), width);
        EXPECT_EQ(std::memcmp(ref.data(), got.data(), ref.size() * 8), 0)
            << "relax_arcs " << simd::arch_name(a) << " width " << width;
      }
    }
  }
}

// The bulk polar fill (DESIGN.md §20): element k equals the k-th of n
// successive normal() calls, for every count 0..40 and the tiny core's
// 2585 gates, with and without a cached deviate pending on entry; the
// generator afterwards — cached deviate and xoshiro state — must match
// too.  Not a dispatched kernel: it must hold under every pin.
TEST(SimdKernels, NormalsPolarMatchesSuccessiveNormals) {
  ArchGuard guard;
  std::vector<std::size_t> counts;
  for (std::size_t n = 0; n <= 40; ++n) counts.push_back(n);
  counts.push_back(2585);
  for (const simd::Arch a : simd::available_archs()) {
    ASSERT_TRUE(simd::set_arch(a));
    for (const std::size_t n : counts) {
      for (const bool pending : {false, true}) {
        Rng bulk(0x9a1a + n), ref(0x9a1a + n);
        if (pending) {  // one normal() leaves the second deviate cached
          (void)bulk.normal();
          (void)ref.normal();
        }
        std::vector<double> got(n);
        bulk.normals_polar(got);
        for (std::size_t k = 0; k < n; ++k) {
          const double want = ref.normal();
          ASSERT_EQ(std::memcmp(&got[k], &want, 8), 0)
              << simd::arch_name(a) << " n " << n << " pending " << pending
              << " k " << k;
        }
        const double nb = bulk.normal(), nr = ref.normal();
        EXPECT_EQ(std::memcmp(&nb, &nr, 8), 0) << "n " << n;
        EXPECT_EQ(bulk.next(), ref.next()) << "n " << n;
      }
    }
  }
}

// The BatchedSimd normal stream: bit-identical across every dispatch
// target, prefix-stable, correct odd-tail and empty-span RNG
// consumption, and numerically faithful to the libm reference.
TEST(SimdKernels, NormalsSimdArchInvariant) {
  ArchGuard guard;
  const std::vector<simd::Arch> archs = simd::available_archs();
  std::vector<double> ref;
  for (const simd::Arch a : archs) {
    ASSERT_TRUE(simd::set_arch(a));
    Rng rng(0x5eedULL);
    std::vector<double> v(1001);  // odd: exercises the cos-only tail
    rng.normals_simd(v);
    if (ref.empty()) {
      ref = v;
    } else {
      EXPECT_EQ(std::memcmp(ref.data(), v.data(), v.size() * sizeof(double)),
                0)
          << simd::arch_name(a);
    }
    // Exactly two parent draws consumed regardless of length.
    Rng twin(0x5eedULL);
    twin.next();
    twin.next();
    EXPECT_EQ(rng.next(), twin.next()) << simd::arch_name(a);
  }
}

// The BatchedSimd normal stream's absolute bits, pinned: an FNV-1a hash
// over the bit patterns of three seeds' odd-length fills must match the
// recorded constant on every dispatch target.  NormalsSimdArchInvariant
// alone would pass a change that moved every target alike; this pin
// also holds under either glibc libm build, since no libm call feeds it.
TEST(SimdKernels, NormalsSimdStreamPinned) {
  constexpr std::uint64_t kPinned = 0x64f15b7ec9915575ULL;
  ArchGuard guard;
  for (const simd::Arch a : simd::available_archs()) {
    ASSERT_TRUE(simd::set_arch(a));
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const std::uint64_t seed : {0x5eedULL, 0xc0ffeeULL, 0x9e3779b9ULL}) {
      Rng rng(seed);
      std::vector<double> v(1001);
      rng.normals_simd(v);
      for (const double z : v) {
        std::uint64_t bits;
        std::memcpy(&bits, &z, sizeof bits);
        for (int i = 0; i < 8; ++i) {
          h = (h ^ ((bits >> (8 * i)) & 0xffu)) * 0x100000001b3ULL;
        }
      }
    }
    EXPECT_EQ(h, kPinned) << simd::arch_name(a) << std::hex << " hash 0x"
                          << h;
  }
}

TEST(SimdKernels, NormalsSimdPrefixStableAndEmptyConsumes) {
  Rng a(0x11ULL), b(0x11ULL);
  std::vector<double> big(1001), small(257);
  a.normals_simd(big);
  b.normals_simd(small);
  for (std::size_t i = 0; i < small.size(); ++i) {
    EXPECT_EQ(small[i], big[i]) << i;
  }
  // An empty span still advances the two parent draws (so surrounding
  // draws stay aligned whatever the fill length).
  Rng c(0x22ULL), d(0x22ULL);
  std::vector<double> none;
  c.normals_simd(none);
  d.next();
  d.next();
  EXPECT_EQ(c.next(), d.next());
}

TEST(SimdKernels, NormalsSimdMatchesLibmReferenceAndMoments) {
  Rng rng(0x77aaULL);
  const std::uint64_t key_r = Rng(0x77aaULL).next();
  const std::uint64_t key_t = [&] {
    Rng t(0x77aaULL);
    t.next();
    return t.next();
  }();
  constexpr std::size_t kN = 100000;
  std::vector<double> v(kN);
  rng.normals_simd(v);
  constexpr double kTwoPi = 6.283185307179586476925286766559;
  double sum = 0.0, sum2 = 0.0, max_err = 0.0;
  for (std::size_t p = 0; p < kN / 2; ++p) {
    const double u1 =
        (static_cast<double>(Rng::counter_bits(key_r, p) >> 11) + 1.0) *
        0x1.0p-53;
    const double ang =
        kTwoPi *
        (static_cast<double>(Rng::counter_bits(key_t, p) >> 11) * 0x1.0p-53);
    const double rad = std::sqrt(-2.0 * std::log(u1));
    max_err = std::max(max_err, std::abs(v[2 * p] - rad * std::cos(ang)));
    max_err = std::max(max_err, std::abs(v[2 * p + 1] - rad * std::sin(ang)));
  }
  // Own vector log/sincos vs libm: a few ulps at |z| <= ~6.
  EXPECT_LT(max_err, 1e-11);
  for (const double z : v) {
    sum += z;
    sum2 += z * z;
  }
  const double mean = sum / kN;
  const double var = sum2 / kN - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.03);
}

// End-to-end: the BatchedSimd profile is invariant across dispatch
// targets and batch widths.
TEST(SimdMc, BatchedSimdProfileInvariance) {
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
  const DieLocation loc = DieLocation::point('B');

  McConfig cfg;
  cfg.samples = 48;
  cfg.seed = 0xc0ffeeULL;
  cfg.profile = DrawProfile::BatchedSimd;
  cfg.batch = 8;

  const McResult ref = mc.run(loc, cfg);
  const auto same = [&](const McResult& r) {
    ASSERT_EQ(r.min_period_samples, ref.min_period_samples);
    ASSERT_EQ(r.endpoint_crit_prob, ref.endpoint_crit_prob);
    ASSERT_EQ(r.endpoint_stage_crit, ref.endpoint_stage_crit);
    for (std::size_t s = 0; s < ref.stages.size(); ++s) {
      ASSERT_EQ(r.stages[s].samples, ref.stages[s].samples) << s;
    }
  };

  McConfig wide = cfg;
  wide.batch = 16;
  same(mc.run(loc, wide));

  ArchGuard guard;
  for (const simd::Arch a : simd::available_archs()) {
    ASSERT_TRUE(simd::set_arch(a));
    same(mc.run(loc, cfg));
  }
}

}  // namespace
}  // namespace vipvt
