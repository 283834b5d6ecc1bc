#pragma once
// Width-agnostic kernel bodies for the SIMD dispatch layer (DESIGN.md §17).
//
// Every kernel is a template over a vec.hpp policy class; the per-ISA TUs
// (kernels_scalar.cpp / _sse2.cpp / _avx2.cpp / _avx512.cpp) instantiate
// these SAME bodies at their width, so the operation sequence — and with
// contraction disabled, the per-lane result bits — is defined once, here.
// ScalarPolicy, which runs the relaxation kernel's remainder lanes, is
// also the W=1 reference instantiation; the draw kernel steps its lane
// remainder down through the narrower policies (Half) instead.
//
// The relax kernel mirrors StaEngine::analyze()'s edge relaxation (over
// the folded arcs, DESIGN.md §17) and the draw
// kernel's table step mirrors DelayFactorTables::eval_row, so swapping
// ISA never changes result bits.  The Box–Muller normals have no libm
// counterpart (own vector log/sincos) and are only reachable through
// DrawProfile::BatchedSimd and Rng::normals_simd.
//
// The vector log/sincos are double-precision Cephes evaluations
// (Moshier, netlib cephes/cmath: log.c, sin.c).  Their domains here are
// narrow — log on [2^-53, 1], sincos on [0, 2pi) — so the argument
// reduction needs no inf/nan/denormal handling and the quadrant logic can
// run entirely in doubles (no per-ISA 64-bit integer multiplies).
//
// Everything here has internal linkage: a TU that steps down instantiates
// narrower policies' bodies under its own -m flags, and a shared (COMDAT)
// instantiation could resolve to another TU's copy built for a wider ISA.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>

#include "util/rng.hpp"
#include "util/simd/kernels.hpp"
#include "util/simd/vec.hpp"

namespace vipvt::simd {
namespace {

namespace cephes {
// log(1+x) rational P/Q on [sqrt(1/2)-1, sqrt(2)-1].
inline constexpr double kLogP[6] = {
    1.01875663804580931796e-4, 4.97494994976747001425e-1,
    4.70579119878881725854e0,  1.44989225341610930846e1,
    1.79368678507819816313e1,  7.70838733755885391666e0,
};
inline constexpr double kLogQ[5] = {
    // leading coefficient 1.0 implicit
    1.12873587189167450590e1, 4.52279145837532221105e1,
    8.29875266912776603211e1, 7.11544750618563894466e1,
    2.31251620126765340583e1,
};
inline constexpr double kSqrtHalf = 0.70710678118654752440;
// ln(2) split hi/lo with ln2 = kLn2Hi - kLn2Lo (note the subtraction).
inline constexpr double kLn2Hi = 0.693359375;
inline constexpr double kLn2Lo = 2.121944400546905827679e-4;

// sin/cos polynomials on [-pi/4, pi/4].
inline constexpr double kSinC[6] = {
    1.58962301576546568060e-10, -2.50507477628578072866e-8,
    2.75573136213857245213e-6,  -1.98412698295895385996e-4,
    8.33333333332211858878e-3,  -1.66666666666666307295e-1,
};
inline constexpr double kCosC[6] = {
    -1.13585365213876817300e-11, 2.08757008419747316778e-9,
    -2.75573141792967388112e-7,  2.48015872888517179954e-5,
    -1.38888888888730564116e-3,  4.16666666666665929218e-2,
};
// pi/4 split into three parts for extended-precision reduction.
inline constexpr double kDp1 = 7.85398125648498535156e-1;
inline constexpr double kDp2 = 3.77489470793079817668e-8;
inline constexpr double kDp3 = 2.69515142907905952645e-15;
inline constexpr double kFourOverPi = 1.27323954473516268615;
}  // namespace cephes

/// Natural log for x in [2^-53, 1] (no zero/negative/denormal/inf inputs).
/// Bit-identical across policies: frexp is done by bit surgery, the rest is
/// correctly-rounded arithmetic in a fixed order.
template <class P>
inline typename P::D v_log(typename P::D x) {
  using cephes::kLogP;
  using cephes::kLogQ;
  typename P::D e = P::sub(P::exp_bits(x), P::bcast(1022.0));
  typename P::D m = P::mant_half(x);  // in [0.5, 1)
  const typename P::M lo = P::lt(m, P::bcast(cephes::kSqrtHalf));
  e = P::sub(e, P::select(lo, P::bcast(1.0), P::bcast(0.0)));
  // m < sqrt(1/2): x = 2m - 1, else x = m - 1  (both exact)
  m = P::select(lo, P::sub(P::add(m, m), P::bcast(1.0)),
                P::sub(m, P::bcast(1.0)));
  const typename P::D z = P::mul(m, m);
  typename P::D p = P::bcast(kLogP[0]);
  for (int i = 1; i < 6; ++i) p = P::add(P::mul(p, m), P::bcast(kLogP[i]));
  typename P::D q = P::add(m, P::bcast(kLogQ[0]));
  for (int i = 1; i < 5; ++i) q = P::add(P::mul(q, m), P::bcast(kLogQ[i]));
  typename P::D y = P::mul(m, P::div(P::mul(z, p), q));
  y = P::sub(y, P::mul(e, P::bcast(cephes::kLn2Lo)));
  y = P::sub(y, P::mul(z, P::bcast(0.5)));
  typename P::D r = P::add(m, y);
  return P::add(r, P::mul(e, P::bcast(cephes::kLn2Hi)));
}

/// Simultaneous sin/cos for a in [0, 2pi).  Quadrant selection runs in
/// doubles: j = trunc(a*4/pi) rounded up to even, m = (j/2) mod 4 with the
/// j==8 wrap folding to m==0.
template <class P>
inline void v_sincos(typename P::D a, typename P::D& s, typename P::D& c) {
  using cephes::kCosC;
  using cephes::kSinC;
  typename P::D y = P::trunc_nonneg(P::mul(a, P::bcast(cephes::kFourOverPi)));
  // y += y & 1  (fold odd j to j+1): parity = y - 2*trunc(y/2)
  const typename P::D half = P::trunc_nonneg(P::mul(y, P::bcast(0.5)));
  y = P::add(y, P::sub(y, P::add(half, half)));
  // extended-precision x = a - y*pi/4
  typename P::D x = P::sub(a, P::mul(y, P::bcast(cephes::kDp1)));
  x = P::sub(x, P::mul(y, P::bcast(cephes::kDp2)));
  x = P::sub(x, P::mul(y, P::bcast(cephes::kDp3)));
  // quadrant m = (y/2) mod 4, exact small integers throughout
  const typename P::D kd = P::mul(y, P::bcast(0.5));
  const typename P::D m = P::sub(
      kd, P::mul(P::bcast(4.0), P::trunc_nonneg(P::mul(kd, P::bcast(0.25)))));
  const typename P::M m1 = P::eq(m, P::bcast(1.0));
  const typename P::M m2 = P::eq(m, P::bcast(2.0));
  const typename P::M m3 = P::eq(m, P::bcast(3.0));
  const typename P::D z = P::mul(x, x);
  typename P::D ps = P::bcast(kSinC[0]);
  for (int i = 1; i < 6; ++i) ps = P::add(P::mul(ps, z), P::bcast(kSinC[i]));
  ps = P::add(P::mul(P::mul(ps, z), x), x);  // sin(x) on [-pi/4, pi/4]
  typename P::D pc = P::bcast(kCosC[0]);
  for (int i = 1; i < 6; ++i) pc = P::add(P::mul(pc, z), P::bcast(kCosC[i]));
  pc = P::mul(P::mul(pc, z), z);
  pc = P::sub(pc, P::mul(z, P::bcast(0.5)));
  pc = P::add(pc, P::bcast(1.0));  // cos(x) on [-pi/4, pi/4]
  // sin(a): m=0 -> sin x, 1 -> cos x, 2 -> -sin x, 3 -> -cos x
  // cos(a): m=0 -> cos x, 1 -> -sin x, 2 -> -cos x, 3 -> sin x
  const typename P::M swap = P::mor(m1, m3);
  s = P::flipsign_if(P::select(swap, pc, ps), P::mor(m2, m3));
  c = P::flipsign_if(P::select(swap, ps, pc), P::mor(m1, m2));
}

/// One edge's lanes: to[b] = max(cand(b), prev), where prev is to[b] —
/// or, for the edge that writes the row first, -inf from a register, so
/// the row needs no -inf pre-fill and is never read (the first-writer
/// contract, DESIGN.md §17).  vcand/lcand give the candidate for a vector
/// chunk / one remainder lane starting at lane b.
template <class P, class VecCand, class LaneCand>
inline void relax_row(double* __restrict to, std::size_t width, bool first,
                      VecCand vcand, LaneCand lcand) {
  using S = ScalarPolicy;
  constexpr double kNegInf = -std::numeric_limits<double>::infinity();
  std::size_t b = 0;
  if (first) {
    const typename P::D vneg = P::bcast(kNegInf);
    for (; b + P::W <= width; b += P::W)
      P::store(to + b, P::max(vcand(b), vneg));
    for (; b < width; ++b) to[b] = S::max(lcand(b), kNegInf);
  } else {
    for (; b + P::W <= width; b += P::W)
      P::store(to + b, P::max(vcand(b), P::load(to + b)));
    for (; b < width; ++b) to[b] = S::max(lcand(b), to[b]);
  }
}

/// Batched arc relaxation (StaEngine::analyze_batch_core hot loop):
/// reproduces analyze()'s `to[b] = std::max(to[b], from[b] + base [* f[b]])`
/// over the folded arcs, where an arc that folds a net first adds its wire
/// — (from[b] + wire) + base * f[b], the two roundings analyze() makes
/// through the net's sink pin, in its order.  Policy max(cand, to) has
/// exactly std::max(to, cand) semantics, and a first writer's
/// max(cand, -inf) is exactly what a -inf pre-fill fed it.
template <class P>
inline void relax_arcs_body(const RelaxArc* arcs,
                            const std::uint8_t* first_write,
                            std::size_t num_arcs, const float* delays,
                            const double* factor_soa, double* arrival_soa,
                            std::size_t width) {
  using S = ScalarPolicy;
  for (std::size_t ai = 0; ai < num_arcs; ++ai) {
    const RelaxArc& a = arcs[ai];
    const double base = static_cast<double>(delays[a.delay]);
    const double* __restrict from =
        arrival_soa + static_cast<std::size_t>(a.from) * width;
    double* to = arrival_soa + static_cast<std::size_t>(a.to) * width;
    const bool first = first_write[ai] != 0;
    const typename P::D vb = P::bcast(base);
    if (a.inst == kInvalidRelaxInst) {
      relax_row<P>(
          to, width, first,
          [&](std::size_t b) { return P::add(P::load(from + b), vb); },
          [&](std::size_t b) { return S::add(from[b], base); });
      continue;
    }
    const double* __restrict f =
        factor_soa + static_cast<std::size_t>(a.inst) * width;
    if (a.wire == kNoRelaxWire) {
      relax_row<P>(
          to, width, first,
          [&](std::size_t b) {
            return P::add(P::load(from + b), P::mul(vb, P::load(f + b)));
          },
          [&](std::size_t b) { return S::add(from[b], S::mul(base, f[b])); });
      continue;
    }
    const double wire = static_cast<double>(delays[a.wire]);
    const typename P::D vw = P::bcast(wire);
    relax_row<P>(
        to, width, first,
        [&](std::size_t b) {
          return P::add(P::add(P::load(from + b), vw),
                        P::mul(vb, P::load(f + b)));
        },
        [&](std::size_t b) {
          return S::add(S::add(from[b], wire), S::mul(base, f[b]));
        });
  }
}

/// Counter-keyed Box–Muller uniforms of pair i (Rng::counter_bits
/// streams keyed key_r, key_t): u1 in (0, 1] from a 53-bit mantissa + 1
/// scaled by 2^-53, and the angle in [0, 2pi).
inline void pair_uniforms(std::uint64_t key_r, std::uint64_t key_t,
                          std::uint64_t i, double& u1, double& ang) {
  constexpr double kTwoPi = 6.283185307179586476925286766559;
  u1 = (static_cast<double>(Rng::counter_bits(key_r, i) >> 11) + 1.0) *
       0x1.0p-53;
  ang = kTwoPi *
        (static_cast<double>(Rng::counter_bits(key_t, i) >> 11) * 0x1.0p-53);
}

/// Both deviates of a pair: r = sqrt(-2 log u1), (r cos, r sin).
template <class P>
inline void box_muller(typename P::D u1, typename P::D ang,
                       typename P::D& zc, typename P::D& zs) {
  const typename P::D rad = P::sqrt(P::mul(P::bcast(-2.0), v_log<P>(u1)));
  typename P::D s, c;
  v_sincos<P>(ang, s, c);
  zc = P::mul(rad, c);
  zs = P::mul(rad, s);
}

/// Bulk Box–Muller fill of one stream (Rng::normals_simd engine):
/// interleaved (cos, sin) output, an odd tail keeps only the cosine
/// branch.  Uniforms are made in scalar blocks of up to 128 pairs (padded
/// to a whole vector; the padding pairs are computed and dropped), then
/// the log/sqrt/sincos run through the policy.  Pair k reads counter k of
/// each stream, so a fill of m deviates is a prefix of a fill of n.
template <class P>
void normals_fill_body(std::uint64_t key_r, std::uint64_t key_t,
                       double* out, std::size_t n) {
  constexpr std::size_t kBlock = 128;
  static_assert(kBlock % P::W == 0);
  const std::size_t total = (n + 1) / 2;  // pairs incl. a possible odd tail
  alignas(64) double u1[kBlock], ang[kBlock], zc[kBlock], zs[kBlock];
  for (std::size_t base = 0; base < total; base += kBlock) {
    const std::size_t m = std::min(kBlock, total - base);
    const std::size_t mv = (m + P::W - 1) / P::W * P::W;
    for (std::size_t j = 0; j < mv; ++j) {
      pair_uniforms(key_r, key_t, base + j, u1[j], ang[j]);
    }
    for (std::size_t j = 0; j < mv; j += P::W) {
      typename P::D c, s;
      box_muller<P>(P::load(u1 + j), P::load(ang + j), c, s);
      P::store(zc + j, c);
      P::store(zs + j, s);
    }
    for (std::size_t j = 0; j < m; ++j) {
      const std::size_t k = 2 * (base + j);
      out[k] = zc[j];
      if (k + 1 < n) out[k + 1] = zs[j];
    }
  }
}

/// The fused draw (DrawFactorsFn) for lanes [l0, l0 + P::W): pairs of
/// instances share one Box–Muller pair per lane, hashed in blocks of
/// kPairs counters per lane from counter first_pair on; every later step
/// runs on a register of lanes:
///   d = std::clamp([offset +] sigma * z, -clamp, clamp)
/// (libstdc++'s clamp is min(max(v, lo), hi), exactly the policy's
/// min(hi, max(lo, v)) — same tie and NaN behaviour), then
/// DelayFactorTables::eval_row at lg = sys + d:
///   x = (lg - lo) * inv_step, bounded to [0, intervals - 1]; j = trunc;
///   t = lg - (lo + j*step); out = c[2j] + c[2j+1]*t
/// and the factors go straight to out's instance-major rows.
template <class P>
void draw_lane_group(const FactorTable& tb, const std::int32_t* rows,
                     const double* sys, const std::uint64_t* keys,
                     const double* offset, double sigma, double clamp,
                     double* out, std::size_t n, std::size_t width,
                     std::uint64_t first_pair, std::size_t l0) {
  using D = typename P::D;
  constexpr std::size_t W = P::W;
  constexpr std::size_t kPairs = 16;
  const D vsigma = P::bcast(sigma);
  const D vclo = P::bcast(-clamp);
  const D vchi = P::bcast(clamp);
  const D vlo = P::bcast(tb.lo);
  const D vstep = P::bcast(tb.step);
  const D vinv = P::bcast(tb.inv_step);
  const D vzero = P::bcast(0.0);
  const D vimax = P::bcast(static_cast<double>(tb.intervals - 1));
  const auto emit = [&](std::size_t i, D z) {
    D d = P::mul(vsigma, z);
    if (offset != nullptr) d = P::add(P::load(offset + i * width + l0), d);
    d = P::min(vchi, P::max(vclo, d));
    const D lg = P::add(P::bcast(sys[i]), d);
    D x = P::mul(P::sub(lg, vlo), vinv);
    x = P::min(P::max(x, vzero), vimax);
    const D jd = P::trunc_nonneg(x);
    const D t = P::sub(lg, P::add(vlo, P::mul(jd, vstep)));
    D c0, c1;
    P::gather_pair(tb.coef + static_cast<std::size_t>(rows[i]) *
                                 static_cast<std::size_t>(tb.row_stride),
                   jd, c0, c1);
    P::store(out + i * width + l0, P::add(c0, P::mul(c1, t)));
  };
  alignas(64) double u1[kPairs * W], ang[kPairs * W], z[2 * kPairs * W];
  const std::size_t total = (n + 1) / 2;  // pairs incl. a possible odd tail
  for (std::size_t base = 0; base < total; base += kPairs) {
    const std::size_t m = std::min(kPairs, total - base);
    for (std::size_t w = 0; w < W; ++w) {
      const std::uint64_t key_r = keys[2 * (l0 + w)];
      const std::uint64_t key_t = keys[2 * (l0 + w) + 1];
      for (std::size_t j = 0; j < m; ++j) {
        pair_uniforms(key_r, key_t, first_pair + base + j, u1[j * W + w],
                      ang[j * W + w]);
      }
    }
    // The block's normals first, then its factors: two short independent
    // loops overlap in the core far better than one long dependent chain
    // per pair (measured ~15 % on AVX2 and AVX-512).
    for (std::size_t j = 0; j < m; ++j) {
      D zc, zs;
      box_muller<P>(P::load(u1 + j * W), P::load(ang + j * W), zc, zs);
      P::store(z + 2 * j * W, zc);
      P::store(z + (2 * j + 1) * W, zs);
    }
    // Deviate k of the block is instance 2 * base + k; an odd n drops the
    // last pair's sine.
    const std::size_t count = std::min(2 * m, n - 2 * base);
    for (std::size_t k = 0; k < count; ++k) {
      emit(2 * base + k, P::load(z + k * W));
    }
  }
}

/// The fused draw from lane l0 on: whole registers of lanes, then the
/// remainder at the next narrower policy (8 -> 4 -> 2 -> 1), never one
/// scalar lane at a time.
template <class P>
void draw_lanes(const FactorTable& tb, const std::int32_t* rows,
                const double* sys, const std::uint64_t* keys,
                const double* offset, double sigma, double clamp, double* out,
                std::size_t n, std::size_t width, std::uint64_t first_pair,
                std::size_t l0) {
  for (; l0 + P::W <= width; l0 += P::W) {
    draw_lane_group<P>(tb, rows, sys, keys, offset, sigma, clamp, out, n,
                       width, first_pair, l0);
  }
  if constexpr (P::W > 1) {
    if (l0 < width) {
      draw_lanes<typename P::Half>(tb, rows, sys, keys, offset, sigma, clamp,
                                   out, n, width, first_pair, l0);
    }
  }
}

template <class P>
void draw_factors_body(const FactorTable& tb, const std::int32_t* rows,
                       const double* sys, const std::uint64_t* keys,
                       const double* offset, double sigma, double clamp,
                       double* out, std::size_t n, std::size_t width,
                       std::uint64_t first_pair) {
  draw_lanes<P>(tb, rows, sys, keys, offset, sigma, clamp, out, n, width,
                first_pair, 0);
}

/// The kernel table of policy P: each per-ISA TU defines its table as
/// kernels_of<ItsPolicy>().
template <class P>
constexpr Kernels kernels_of() {
  return {&relax_arcs_body<P>, &draw_factors_body<P>, &normals_fill_body<P>};
}

}  // namespace
}  // namespace vipvt::simd
