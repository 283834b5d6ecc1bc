#pragma once
// Width-agnostic kernel bodies for the SIMD dispatch layer (DESIGN.md §17).
//
// Every kernel is a template over a vec.hpp policy class; the per-ISA TUs
// (kernels_scalar.cpp / _sse2.cpp / _avx2.cpp / _avx512.cpp) instantiate
// these SAME bodies at their width, so the operation sequence — and with
// contraction disabled, the per-lane result bits — is defined once, here.
// Lanes beyond the last full vector chunk run the identical sequence
// through ScalarPolicy, which is also the W=1 reference instantiation.
//
// The relax/transform kernels mirror pre-existing scalar code exactly
// (StaEngine::relax_edges, DelayFactorTables::eval_row) and are therefore
// transparently dispatchable: swapping ISA never changes result bits.
// normals_fill_body has no libm counterpart (own vector log/sincos) and is
// only reachable through DrawProfile::BatchedSimd.
//
// The vector log/sincos are double-precision Cephes evaluations
// (Moshier, netlib cephes/cmath: log.c, sin.c).  Their domains here are
// narrow — log on [2^-53, 1], sincos on [0, 2pi) — so the argument
// reduction needs no inf/nan/denormal handling and the quadrant logic can
// run entirely in doubles (no per-ISA 64-bit integer multiplies).

#include <cstddef>
#include <cstdint>
#include <limits>

#include "util/rng.hpp"
#include "util/simd/kernels.hpp"
#include "util/simd/vec.hpp"

namespace vipvt::simd {

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

/// Batched edge relaxation (StaEngine::analyze_batch_core hot loop):
/// reproduces `to[b] = std::max(to[b], from[b] + base [* f[b]])` — policy
/// max(cand, to) has exactly std::max(to, cand) semantics, and a first
/// writer's max(cand, -inf) is exactly what a -inf pre-fill fed it.
template <class P>
inline void relax_edges_body(const RelaxEdge* edges,
                             const std::uint8_t* first_write,
                             std::size_t num_edges, const double* factor_soa,
                             double* arrival_soa, std::size_t width) {
  using S = ScalarPolicy;
  for (std::size_t ei = 0; ei < num_edges; ++ei) {
    const RelaxEdge& e = edges[ei];
    const double base = static_cast<double>(e.base_delay);
    const double* __restrict from =
        arrival_soa + static_cast<std::size_t>(e.from) * width;
    double* to = arrival_soa + static_cast<std::size_t>(e.to) * width;
    const bool first = first_write[ei] != 0;
    const typename P::D vb = P::bcast(base);
    if (e.inst == kInvalidRelaxInst) {
      relax_row<P>(
          to, width, first,
          [&](std::size_t b) { return P::add(P::load(from + b), vb); },
          [&](std::size_t b) { return S::add(from[b], base); });
    } else {
      const double* __restrict f =
          factor_soa + static_cast<std::size_t>(e.inst) * width;
      relax_row<P>(
          to, width, first,
          [&](std::size_t b) {
            return P::add(P::load(from + b), P::mul(vb, P::load(f + b)));
          },
          [&](std::size_t b) { return S::add(from[b], S::mul(base, f[b])); });
    }
  }
}

/// Fused draw transform: reproduces, lane by lane, the scalar draw's
///   d = std::clamp(sigma * eps, -clamp, clamp)
/// (libstdc++ defines clamp as min(max(v, lo), hi), which is exactly the
/// policy's min(hi, max(lo, v)) — same tie and NaN behaviour), then
/// DelayFactorTables::eval_row (tables.hpp) at lg = sys + d:
///   x = (lg - lo) * inv_step; clamp below at 0; j = trunc; clamp above;
///   t = lg - (lo + j*step); out = c[2j] + c[2j+1]*t
/// eps and out are both instance-major [n x width], so every lane load is
/// contiguous; only the (value, slope) pair is fetched per lane.
template <class P>
inline void draw_transform_body(const double* coef, std::int32_t row_stride,
                                double lo, double step, double inv_step,
                                std::int32_t intervals,
                                const std::int32_t* rows, const double* sys,
                                const double* eps, double sigma, double clamp,
                                double* out, std::size_t n,
                                std::size_t width) {
  using S = ScalarPolicy;
  const typename P::D vsigma = P::bcast(sigma);
  const typename P::D vclo = P::bcast(-clamp);
  const typename P::D vchi = P::bcast(clamp);
  const typename P::D vlo = P::bcast(lo);
  const typename P::D vstep = P::bcast(step);
  const typename P::D vinv = P::bcast(inv_step);
  const typename P::D vzero = P::bcast(0.0);
  const typename P::D vimax = P::bcast(static_cast<double>(intervals - 1));
  const double imax = static_cast<double>(intervals - 1);
  for (std::size_t i = 0; i < n; ++i) {
    const double* rc = coef + static_cast<std::size_t>(rows[i]) * row_stride;
    const typename P::D vsys = P::bcast(sys[i]);
    const double* e = eps + i * width;
    double* o = out + i * width;
    std::size_t l = 0;
    for (; l + P::W <= width; l += P::W) {
      typename P::D d = P::mul(vsigma, P::load(e + l));
      d = P::min(vchi, P::max(vclo, d));
      const typename P::D lg = P::add(vsys, d);
      typename P::D x = P::mul(P::sub(lg, vlo), vinv);
      x = P::max(x, vzero);
      typename P::D jd = P::trunc_nonneg(x);
      jd = P::min(jd, vimax);
      const typename P::D t = P::sub(lg, P::add(vlo, P::mul(jd, vstep)));
      typename P::D c0, c1;
      P::gather_pair(rc, jd, c0, c1);
      P::store(o + l, P::add(c0, P::mul(c1, t)));
    }
    for (; l < width; ++l) {
      double d = S::mul(sigma, e[l]);
      d = S::min(clamp, S::max(-clamp, d));
      const double lg = S::add(sys[i], d);
      double x = S::mul(S::sub(lg, lo), inv_step);
      x = S::max(x, 0.0);
      double jd = S::trunc_nonneg(x);
      jd = S::min(jd, imax);
      const double t = S::sub(lg, S::add(lo, S::mul(jd, step)));
      double c0, c1;
      S::gather_pair(rc, jd, c0, c1);
      o[l] = S::add(c0, S::mul(c1, t));
    }
  }
}

/// Counter-driven bulk Box–Muller fill (Rng::normals_simd engine): fixed
/// 128-pair blocks, full-block padding for prefix stability, interleaved
/// (cos, sin) output, odd tail keeps only the cosine branch.  Counter
/// generation stays scalar
/// (splitmix64 is cheap); the log/sqrt/sincos run through the policy, and
/// 128 % W == 0 for every policy so blocks never need a remainder lane.
/// Lane l's deviate k is stored at out[k * stride + l]; lanes run block
/// by block, so where a value is stored never changes how it is computed.
template <class P>
inline void normals_fill_body(const std::uint64_t* keys, std::size_t lanes,
                              double* out, std::size_t n,
                              std::size_t stride) {
  constexpr std::size_t kBlock = 128;
  static_assert(kBlock % P::W == 0);
  constexpr double kTwoPi = 6.283185307179586476925286766559;
  const std::size_t pairs = n / 2;          // full (cos, sin) pairs
  const std::size_t total = (n + 1) / 2;    // pairs incl. a possible odd tail
  alignas(64) double u1[kBlock], ang[kBlock], rad[kBlock];
  alignas(64) double zc[kBlock], zs[kBlock];
  for (std::size_t base = 0; base < total; base += kBlock) {
    for (std::size_t l = 0; l < lanes; ++l) {
      const std::uint64_t key_r = keys[2 * l];
      const std::uint64_t key_t = keys[2 * l + 1];
      for (std::size_t j = 0; j < kBlock; ++j) {
        const std::uint64_t i = static_cast<std::uint64_t>(base + j);
        // u1 in (0, 1]: 53-bit mantissa + 1, scaled by 2^-53
        u1[j] =
            (static_cast<double>(Rng::counter_bits(key_r, i) >> 11) + 1.0) *
            0x1.0p-53;
        ang[j] =
            kTwoPi * (static_cast<double>(Rng::counter_bits(key_t, i) >> 11) *
                      0x1.0p-53);
      }
      for (std::size_t j = 0; j < kBlock; j += P::W) {
        const typename P::D u = P::load(u1 + j);
        P::store(rad + j, P::sqrt(P::mul(P::bcast(-2.0), v_log<P>(u))));
        typename P::D s, c;
        v_sincos<P>(P::load(ang + j), s, c);
        P::store(zc + j, c);
        P::store(zs + j, s);
      }
      double* o = out + l;
      const std::size_t limit = pairs < base + kBlock ? pairs : base + kBlock;
      for (std::size_t p = base; p < limit; ++p) {
        o[2 * p * stride] = rad[p - base] * zc[p - base];
        o[(2 * p + 1) * stride] = rad[p - base] * zs[p - base];
      }
      if ((n & 1u) != 0 && total <= base + kBlock && total > base)
        o[(n - 1) * stride] = rad[total - 1 - base] * zc[total - 1 - base];
    }
  }
}

}  // namespace vipvt::simd
