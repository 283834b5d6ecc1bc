// SIMD dispatch layer tests (DESIGN.md §17).  The layer's contract is
// per-lane bit-identity: every compiled dispatch target (scalar / sse2 /
// avx2 / avx512) must reproduce the ScalarPolicy reference lane
// bit-for-bit — for the edge-relaxation kernels, for the
// DelayFactorTables row transform (including the ±clamp_sigma table
// edges and exact interval boundaries), and for the arch-invariant
// normal stream behind DrawProfile::BatchedSimd.  Tests that pin the
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
#include "util/parallel.hpp"
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

// Randomized relax kernels: every target must produce the scalar
// target's exact bytes for widths that exercise full vector chunks,
// remainder lanes (width % W != 0) and the width-1 degenerate case.
TEST(SimdKernels, RelaxEdgesBitIdenticalAcrossTargets) {
  const std::vector<simd::Arch> archs = simd::available_archs();
  const simd::Kernels* scalar = simd::kernels_for(simd::Arch::Scalar);
  ASSERT_NE(scalar, nullptr);

  constexpr std::size_t kNodes = 48;
  constexpr std::size_t kInsts = 40;
  Rng rng(0xfeedULL);
  std::vector<simd::RelaxEdge> edges;
  for (std::size_t i = 0; i < 400; ++i) {
    simd::RelaxEdge e;
    e.from = static_cast<std::uint32_t>(rng.next() % kNodes);
    e.to = static_cast<std::uint32_t>(rng.next() % kNodes);
    // ~1 in 4 edges fixed (net edges carry no instance factor).
    e.inst = (rng.next() % 4 == 0)
                 ? simd::kInvalidRelaxInst
                 : static_cast<std::uint32_t>(rng.next() % kInsts);
    e.base_delay = static_cast<float>(0.01 + rng.uniform() * 0.2);
    edges.push_back(e);
  }

  for (const std::size_t width : {std::size_t{1}, std::size_t{2},
                                  std::size_t{3}, std::size_t{4},
                                  std::size_t{5}, std::size_t{7},
                                  std::size_t{8}, std::size_t{16},
                                  std::size_t{17}, std::size_t{32}}) {
    AlignedVec<double> factors(kInsts * width);
    for (auto& f : factors) f = 0.8 + 0.4 * rng.uniform();
    AlignedVec<double> init(kNodes * width);
    for (auto& a : init) a = rng.uniform();

    // No first-writer flags: every edge reads its target row.
    const std::vector<std::uint8_t> none(edges.size(), 0);
    AlignedVec<double> ref = init;
    scalar->relax_edges(edges.data(), none.data(), edges.size(),
                        factors.data(), ref.data(), width);
    for (const simd::Arch a : archs) {
      const simd::Kernels* k = simd::kernels_for(a);
      ASSERT_NE(k, nullptr);
      AlignedVec<double> got = init;
      k->relax_edges(edges.data(), none.data(), edges.size(), factors.data(),
                     got.data(), width);
      EXPECT_EQ(std::memcmp(ref.data(), got.data(),
                            ref.size() * sizeof(double)),
                0)
          << "relax_edges " << simd::arch_name(a) << " width " << width;
    }
  }
}

// The table transform at the hard spots: the ±clamp_sigma table edges
// (everything a clamped draw can reach), points clamped below/above the
// range, and exact interval boundaries — bit-equal to eval_row on every
// compiled dispatch target, for every (corner, Vth) row.
TEST(SimdKernels, DrawTransformMatchesEvalRowAtEdges) {
  CharParams cp;
  const ExposureField field = ExposureField::scaled_65nm(cp);
  const VariationModel model(cp, field);
  const DelayFactorTables& tbl = model.delay_factor_tables();
  ASSERT_TRUE(tbl.built());
  const double lo = tbl.lo_nm();
  const double hi = tbl.hi_nm();
  const double range = hi - lo;
  const int intervals = tbl.intervals();

  // Clamp edges, out-of-range points, interval boundaries, interior.
  std::vector<double> points = {lo,
                                hi,
                                lo - 3.0,
                                hi + 3.0,
                                lo - 1e-9,
                                hi + 1e-9,
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

  // Batched, pass-through (sigma = 1, clamp = +inf): instances cycle rows
  // x points; lane eps spread around zero plus a lane pinned at exactly
  // zero so the boundary points stay on their boundaries in at least one
  // lane.  eps and out are instance-major.
  const std::size_t n = points.size() * DelayFactorTables::kRows;
  std::vector<std::int32_t> rows(n);
  std::vector<double> sys(n);
  for (std::size_t i = 0; i < n; ++i) {
    rows[i] = static_cast<std::int32_t>(i % DelayFactorTables::kRows);
    sys[i] = points[i / DelayFactorTables::kRows];
  }
  const double inf = std::numeric_limits<double>::infinity();
  ArchGuard guard;
  for (const std::size_t width : {std::size_t{1}, std::size_t{3},
                                  std::size_t{8}, std::size_t{9}}) {
    AlignedVec<double> eps(n * width);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t l = 0; l < width; ++l) {
        eps[i * width + l] = l == 0 ? 0.0 : (rng.uniform() - 0.5) * range;
      }
    }
    std::vector<double> out(n * width);
    for (const simd::Arch a : simd::available_archs()) {
      ASSERT_TRUE(simd::set_arch(a));
      tbl.eval_rows_batch(rows.data(), sys.data(), eps.data(), 1.0, inf, n,
                          width, out.data());
      for (std::size_t i = 0; i < n; ++i) {
        const double* rd = tbl.row_data(rows[i]);
        for (std::size_t l = 0; l < width; ++l) {
          EXPECT_EQ(out[i * width + l],
                    tbl.eval_row(rd, sys[i] + eps[i * width + l]))
              << simd::arch_name(a) << " width " << width << " inst " << i
              << " lane " << l;
        }
      }
    }
  }
}

// The fused draw transform (DESIGN.md §11): scale, std::clamp and
// eval_row in one kernel.  Deviations sit exactly on the clamp edges
// (eps = ±clamp/σ) and beyond them; every target at every width must
// equal the scalar std::clamp + eval_row, and the pass-through mode
// (σ = 1, clamp = +inf) on pre-clamped input must equal it too.
TEST(SimdKernels, FusedTransformScaleAndClampExact) {
  CharParams cp;
  const ExposureField field = ExposureField::scaled_65nm(cp);
  const VariationModel model(cp, field);
  const DelayFactorTables& tbl = model.delay_factor_tables();
  const double sigma = model.sigma_random_nm();
  const double clamp = model.config().clamp_sigma * sigma;
  const double edge = clamp / sigma;
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> specials = {edge,         -edge,        edge * 1.5,
                                  -edge * 1.5,  edge * 100.0, -edge * 100.0,
                                  0.0,          -0.0,         std::nextafter(edge, inf),
                                  std::nextafter(-edge, -inf)};
  Rng rng(0xc1a4ULL);
  const std::size_t n = 4 * DelayFactorTables::kRows;
  std::vector<std::int32_t> rows(n);
  std::vector<double> sys(n);
  for (std::size_t i = 0; i < n; ++i) {
    rows[i] = static_cast<std::int32_t>(i % DelayFactorTables::kRows);
    sys[i] = cp.lgate_nom + (rng.uniform() - 0.5) * 4.0;
  }
  ArchGuard guard;
  for (const std::size_t width : {std::size_t{1}, std::size_t{3},
                                  std::size_t{5}, std::size_t{7},
                                  std::size_t{8}, std::size_t{17}}) {
    AlignedVec<double> eps(n * width), pre(n * width);
    std::vector<double> ref(n * width);
    for (std::size_t k = 0; k < eps.size(); ++k) {
      eps[k] = k % 3 == 0 ? specials[(k / 3) % specials.size()]
                          : 3.0 * rng.normal();
      pre[k] = std::clamp(sigma * eps[k], -clamp, clamp);
      ref[k] = tbl.eval_row(tbl.row_data(rows[k / width]),
                            sys[k / width] + pre[k]);
    }
    std::vector<double> out(n * width), pass(n * width);
    for (const simd::Arch a : simd::available_archs()) {
      ASSERT_TRUE(simd::set_arch(a));
      tbl.eval_rows_batch(rows.data(), sys.data(), eps.data(), sigma, clamp,
                          n, width, out.data());
      tbl.eval_rows_batch(rows.data(), sys.data(), pre.data(), 1.0, inf, n,
                          width, pass.data());
      EXPECT_EQ(std::memcmp(out.data(), ref.data(), ref.size() * 8), 0)
          << "fused " << simd::arch_name(a) << " width " << width;
      EXPECT_EQ(std::memcmp(pass.data(), ref.data(), ref.size() * 8), 0)
          << "pass-through " << simd::arch_name(a) << " width " << width;
    }
  }
}

// First-writer relaxation (DESIGN.md §17): with only the launch rows and
// the never-written rows pre-filled, flagged relaxation must leave the
// whole arena bit-identical to a full -inf fill followed by the plain
// sweep.  Random DAGs with duplicate edges, launch nodes that are also
// edge targets, never-written nodes, a NaN factor (max against -inf turns
// it into -inf either way) and NaN/+inf garbage in the unfilled rows.
TEST(SimdKernels, FirstWriterRelaxMatchesNegInfFill) {
  constexpr std::size_t kNodes = 64;
  constexpr std::size_t kInsts = 24;
  const double neg_inf = -std::numeric_limits<double>::infinity();
  ArchGuard guard;
  Rng rng(0xf1257ULL);
  for (int trial = 0; trial < 6; ++trial) {
    // Node ids are a topological order: edges run from lower to higher.
    // Nodes with id % 7 == 3 are never targeted nor launched, but read.
    const auto unwritten = [](std::uint32_t v) { return v % 7 == 3; };
    std::vector<simd::RelaxEdge> edges;
    while (edges.size() < 220) {
      simd::RelaxEdge e;
      e.from = static_cast<std::uint32_t>(rng.below(kNodes - 1));
      e.to = static_cast<std::uint32_t>(e.from + 1 +
                                        rng.below(kNodes - 1 - e.from));
      if (unwritten(e.to)) continue;
      e.inst = rng.below(4) == 0
                   ? simd::kInvalidRelaxInst
                   : static_cast<std::uint32_t>(rng.below(kInsts));
      e.base_delay = static_cast<float>(0.01 + rng.uniform() * 0.2);
      edges.push_back(e);
      if (rng.below(8) == 0) edges.push_back(e);  // duplicate edge
    }
    std::stable_sort(edges.begin(), edges.end(),
                     [](const simd::RelaxEdge& a, const simd::RelaxEdge& b) {
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
      scalar->relax_edges(edges.data(), none.data(), edges.size(),
                          factors.data(), ref.data(), width);
      for (const simd::Arch a : simd::available_archs()) {
        const simd::Kernels* k = simd::kernels_for(a);
        AlignedVec<double> got;
        init(got, false);
        k->relax_edges(edges.data(), first.data(), edges.size(),
                       factors.data(), got.data(), width);
        EXPECT_EQ(std::memcmp(ref.data(), got.data(), ref.size() * 8), 0)
            << "relax_edges " << simd::arch_name(a) << " width " << width;
      }
    }
  }
}

// The lane-interleaved normal fill (DESIGN.md §11): lane l's deviate k
// at out[k * stride + l] must equal element k of that generator's own
// contiguous normals_simd() on every target, for lane counts below and
// above the fill's key group, touch no other slot, and consume the same
// two parent draws per lane.
TEST(SimdKernels, NormalsSimdLanesMatchContiguous) {
  ArchGuard guard;
  for (const simd::Arch a : simd::available_archs()) {
    ASSERT_TRUE(simd::set_arch(a));
    for (const std::size_t n : {std::size_t{0}, std::size_t{1},
                                std::size_t{2}, std::size_t{3},
                                std::size_t{255}, std::size_t{256},
                                std::size_t{257}, std::size_t{1001}}) {
      for (const std::size_t lanes : {std::size_t{1}, std::size_t{3},
                                      std::size_t{8}, std::size_t{17}}) {
        const std::size_t stride = lanes + (lanes % 2);  // = lanes or + 1
        std::vector<Rng> flat_rngs, lane_rngs;
        for (std::size_t l = 0; l < lanes; ++l) {
          flat_rngs.emplace_back(0xab0 + 31 * n + l);
          lane_rngs.emplace_back(0xab0 + 31 * n + l);
        }
        std::vector<double> wide(n * stride + 1, 42.0);
        Rng::normals_simd_lanes(lane_rngs, wide.data(), n, stride);
        for (std::size_t l = 0; l < lanes; ++l) {
          std::vector<double> flat(n);
          flat_rngs[l].normals_simd(flat);
          for (std::size_t k = 0; k < n; ++k) {
            ASSERT_EQ(std::memcmp(&wide[k * stride + l], &flat[k], 8), 0)
                << simd::arch_name(a) << " n " << n << " lanes " << lanes
                << " lane " << l << " k " << k;
          }
          EXPECT_EQ(flat_rngs[l].next(), lane_rngs[l].next())
              << simd::arch_name(a) << " lane " << l;
        }
        for (std::size_t k = 0; k < wide.size(); ++k) {
          if (k % stride < lanes && k / stride < n) continue;
          EXPECT_EQ(wide[k], 42.0) << "slot " << k << " written";
        }
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
// targets, batch widths and thread counts.
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
  ThreadPool pool(2);
  same(mc.run(loc, cfg, &pool));

  ArchGuard guard;
  for (const simd::Arch a : simd::available_archs()) {
    ASSERT_TRUE(simd::set_arch(a));
    same(mc.run(loc, cfg));
  }
}

}  // namespace
}  // namespace vipvt
