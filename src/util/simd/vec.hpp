#pragma once
// Width-agnostic vector abstraction for the SIMD kernel layer
// (DESIGN.md §17).  Each policy class exposes the same static-op surface
// over one register width:
//
//   ScalarPolicy  W=1  plain double        (the reference lane, always built)
//   Sse2Policy    W=2  __m128d             (x86-64 baseline)
//   Avx2Policy    W=4  __m256d             (gated TU, -mavx2)
//   Avx512Policy  W=8  __m512d             (gated TU, -mavx512f -mavx512dq)
//
// Each wide policy names the next narrower one as Half (8 -> 4 -> 2 -> 1),
// so a kernel can run a lane remainder at the widest width that fits.
//
// Bit-identity contract: every op here is either an IEEE-754
// correctly-rounded operation (add/sub/mul/div/sqrt), an exact conversion /
// bit manipulation, or has explicitly pinned tie semantics:
//
//   max(a, b) == (a > b) ? a : b      min(a, b) == (a < b) ? a : b
//
// which is exactly the x86 MAXPD/MINPD definition with a as SRC1 — and also
// exactly std::max(b, a) — so the same kernel template instantiated at any
// width produces per-lane identical bits.  trunc_nonneg is exact for
// inputs in [0, 2^31).  Nothing here may introduce FMA contraction: the
// per-ISA TUs compile with -ffp-contract=off and never -mfma.
//
// The guarded policies only exist when the TU is compiled with the matching
// -m flags, so this header is safe to include from any TU.

#include <cstddef>
#include <cstdint>
#include <cstring>

#if defined(__SSE2__)
#include <immintrin.h>
#endif

namespace vipvt::simd {

namespace detail {
inline std::uint64_t bits_of(double x) {
  std::uint64_t u;
  std::memcpy(&u, &x, sizeof(u));
  return u;
}
inline double double_of(std::uint64_t u) {
  double x;
  std::memcpy(&x, &u, sizeof(x));
  return x;
}
}  // namespace detail

/// Makes the compiler store `v` and reload it, instead of forwarding the
/// stored value in registers.  The wide gather_pair policies use it on
/// their lane indices: scalar reloads run on the load ports, where the
/// element extracts the compiler would emit compete with the arithmetic
/// for the vector ports (measured ~5 % on the fused draw, AVX2 and
/// AVX-512).  Emits no instruction; the stored bits are unchanged.
template <class T>
inline void keep_in_memory(T& v) {
  asm("" : "+m"(v));
}

// Shared bit-manipulation constants (see exp_bits / mant_half below).
inline constexpr std::uint64_t kMantMask = 0x000FFFFFFFFFFFFFull;
inline constexpr std::uint64_t kHalfExp = 0x3FE0000000000000ull;   // 0.5 bits
inline constexpr std::uint64_t kMagic52 = 0x4330000000000000ull;   // 2^52 bits
inline constexpr std::uint64_t kSignBit = 0x8000000000000000ull;

// ---------------------------------------------------------------------------
// Scalar reference lane.  The other policies must match this lane bit-for-
// bit; it also runs the width % W remainder of the relaxation kernel and
// the last step of the draw kernel's step-down.
// ---------------------------------------------------------------------------
struct ScalarPolicy {
  static constexpr std::size_t W = 1;
  using D = double;
  using M = bool;

  static D bcast(double v) { return v; }
  static D load(const double* p) { return *p; }
  static void store(double* p, D v) { *p = v; }
  static D add(D a, D b) { return a + b; }
  static D sub(D a, D b) { return a - b; }
  static D mul(D a, D b) { return a * b; }
  static D div(D a, D b) { return a / b; }
  static D sqrt(D a) { return __builtin_sqrt(a); }
  static D max(D a, D b) { return a > b ? a : b; }
  static D min(D a, D b) { return a < b ? a : b; }
  static M lt(D a, D b) { return a < b; }
  static M eq(D a, D b) { return a == b; }
  static M mor(M a, M b) { return a || b; }
  static D select(M m, D a, D b) { return m ? a : b; }
  static D flipsign_if(D x, M m) {
    return m ? detail::double_of(detail::bits_of(x) ^ kSignBit) : x;
  }
  /// double(int32(x)) — truncation toward zero, exact for x in [0, 2^31).
  static D trunc_nonneg(D x) {
    return static_cast<double>(static_cast<std::int32_t>(x));
  }
  /// double(bits(x) >> 52): the biased exponent (x positive normal).
  static D exp_bits(D x) {
    return static_cast<double>(detail::bits_of(x) >> 52);
  }
  /// x's mantissa re-biased into [0.5, 1) (frexp's fraction, x > 0 normal).
  static D mant_half(D x) {
    return detail::double_of((detail::bits_of(x) & kMantMask) | kHalfExp);
  }
  /// rc[2j] and rc[2j+1] for the lane-wise integral j held in jd.  The
  /// wide policies load each lane's (value, slope) pair as one 16-byte
  /// load and transpose in registers instead of issuing two hardware
  /// gathers: loads are exact, so the lanes' bits cannot differ.
  static void gather_pair(const double* rc, D jd, D& c0, D& c1) {
    const std::int32_t j = static_cast<std::int32_t>(jd);
    c0 = rc[2 * j];
    c1 = rc[2 * j + 1];
  }
};

#if defined(__SSE2__)
struct Sse2Policy {
  static constexpr std::size_t W = 2;
  using Half = ScalarPolicy;
  using D = __m128d;
  using M = __m128d;  // all-ones / all-zeros per lane

  static D bcast(double v) { return _mm_set1_pd(v); }
  static D load(const double* p) { return _mm_loadu_pd(p); }
  static void store(double* p, D v) { _mm_storeu_pd(p, v); }
  static D add(D a, D b) { return _mm_add_pd(a, b); }
  static D sub(D a, D b) { return _mm_sub_pd(a, b); }
  static D mul(D a, D b) { return _mm_mul_pd(a, b); }
  static D div(D a, D b) { return _mm_div_pd(a, b); }
  static D sqrt(D a) { return _mm_sqrt_pd(a); }
  static D max(D a, D b) { return _mm_max_pd(a, b); }
  static D min(D a, D b) { return _mm_min_pd(a, b); }
  static M lt(D a, D b) { return _mm_cmplt_pd(a, b); }
  static M eq(D a, D b) { return _mm_cmpeq_pd(a, b); }
  static M mor(M a, M b) { return _mm_or_pd(a, b); }
  static D select(M m, D a, D b) {
    return _mm_or_pd(_mm_and_pd(m, a), _mm_andnot_pd(m, b));
  }
  static D flipsign_if(D x, M m) {
    const D sign = _mm_castsi128_pd(_mm_set1_epi64x(
        static_cast<long long>(kSignBit)));
    return _mm_xor_pd(x, _mm_and_pd(m, sign));
  }
  static D trunc_nonneg(D x) {
    return _mm_cvtepi32_pd(_mm_cvttpd_epi32(x));
  }
  static D exp_bits(D x) {
    __m128i u = _mm_srli_epi64(_mm_castpd_si128(x), 52);
    // int->double via the 2^52 magic constant: OR the small integer into
    // the mantissa of 2^52, subtract 2^52 — exact for u < 2^52.
    u = _mm_or_si128(u, _mm_set1_epi64x(static_cast<long long>(kMagic52)));
    return _mm_sub_pd(_mm_castsi128_pd(u),
                      _mm_set1_pd(4503599627370496.0));  // 2^52
  }
  static D mant_half(D x) {
    __m128i u = _mm_castpd_si128(x);
    u = _mm_and_si128(u, _mm_set1_epi64x(static_cast<long long>(kMantMask)));
    u = _mm_or_si128(u, _mm_set1_epi64x(static_cast<long long>(kHalfExp)));
    return _mm_castsi128_pd(u);
  }
  static void gather_pair(const double* rc, D jd, D& c0, D& c1) {
    const __m128i ji = _mm_cvttpd_epi32(jd);
    const std::int32_t j0 = _mm_cvtsi128_si32(ji);
    const std::int32_t j1 = _mm_cvtsi128_si32(_mm_shuffle_epi32(ji, 0x55));
    const __m128d p0 = _mm_loadu_pd(rc + 2 * j0);
    const __m128d p1 = _mm_loadu_pd(rc + 2 * j1);
    c0 = _mm_unpacklo_pd(p0, p1);
    c1 = _mm_unpackhi_pd(p0, p1);
  }
};
#endif  // __SSE2__

#if defined(__AVX2__)
struct Avx2Policy {
  static constexpr std::size_t W = 4;
  using Half = Sse2Policy;
  using D = __m256d;
  using M = __m256d;

  static D bcast(double v) { return _mm256_set1_pd(v); }
  static D load(const double* p) { return _mm256_loadu_pd(p); }
  static void store(double* p, D v) { _mm256_storeu_pd(p, v); }
  static D add(D a, D b) { return _mm256_add_pd(a, b); }
  static D sub(D a, D b) { return _mm256_sub_pd(a, b); }
  static D mul(D a, D b) { return _mm256_mul_pd(a, b); }
  static D div(D a, D b) { return _mm256_div_pd(a, b); }
  static D sqrt(D a) { return _mm256_sqrt_pd(a); }
  static D max(D a, D b) { return _mm256_max_pd(a, b); }
  static D min(D a, D b) { return _mm256_min_pd(a, b); }
  static M lt(D a, D b) { return _mm256_cmp_pd(a, b, _CMP_LT_OQ); }
  static M eq(D a, D b) { return _mm256_cmp_pd(a, b, _CMP_EQ_OQ); }
  static M mor(M a, M b) { return _mm256_or_pd(a, b); }
  static D select(M m, D a, D b) { return _mm256_blendv_pd(b, a, m); }
  static D flipsign_if(D x, M m) {
    const D sign = _mm256_castsi256_pd(_mm256_set1_epi64x(
        static_cast<long long>(kSignBit)));
    return _mm256_xor_pd(x, _mm256_and_pd(m, sign));
  }
  static D trunc_nonneg(D x) {
    return _mm256_cvtepi32_pd(_mm256_cvttpd_epi32(x));
  }
  static D exp_bits(D x) {
    __m256i u = _mm256_srli_epi64(_mm256_castpd_si256(x), 52);
    u = _mm256_or_si256(u,
                        _mm256_set1_epi64x(static_cast<long long>(kMagic52)));
    return _mm256_sub_pd(_mm256_castsi256_pd(u),
                         _mm256_set1_pd(4503599627370496.0));
  }
  static D mant_half(D x) {
    __m256i u = _mm256_castpd_si256(x);
    u = _mm256_and_si256(u,
                         _mm256_set1_epi64x(static_cast<long long>(kMantMask)));
    u = _mm256_or_si256(u,
                        _mm256_set1_epi64x(static_cast<long long>(kHalfExp)));
    return _mm256_castsi256_pd(u);
  }
  static void gather_pair(const double* rc, D jd, D& c0, D& c1) {
    alignas(16) std::int32_t j[4];
    _mm_store_si128(reinterpret_cast<__m128i*>(j), _mm256_cvttpd_epi32(jd));
    keep_in_memory(j);
    // a = (c0, c1) of lanes 0 | 2, b = of lanes 1 | 3; unpack transposes.
    const __m256d a = _mm256_insertf128_pd(
        _mm256_castpd128_pd256(_mm_loadu_pd(rc + 2 * j[0])),
        _mm_loadu_pd(rc + 2 * j[2]), 1);
    const __m256d b = _mm256_insertf128_pd(
        _mm256_castpd128_pd256(_mm_loadu_pd(rc + 2 * j[1])),
        _mm_loadu_pd(rc + 2 * j[3]), 1);
    c0 = _mm256_unpacklo_pd(a, b);
    c1 = _mm256_unpackhi_pd(a, b);
  }
};
#endif  // __AVX2__

#if defined(__AVX512F__) && defined(__AVX512DQ__)
struct Avx512Policy {
  static constexpr std::size_t W = 8;
  using Half = Avx2Policy;  // -mavx512f implies AVX2
  using D = __m512d;
  using M = __mmask8;

  static D bcast(double v) { return _mm512_set1_pd(v); }
  static D load(const double* p) { return _mm512_loadu_pd(p); }
  static void store(double* p, D v) { _mm512_storeu_pd(p, v); }
  static D add(D a, D b) { return _mm512_add_pd(a, b); }
  static D sub(D a, D b) { return _mm512_sub_pd(a, b); }
  static D mul(D a, D b) { return _mm512_mul_pd(a, b); }
  static D div(D a, D b) { return _mm512_div_pd(a, b); }
  static D sqrt(D a) { return _mm512_sqrt_pd(a); }
  // VMAXPD/VMINPD keep the x86 SRC1/SRC2 tie rules: (a>b)?a:b, (a<b)?a:b.
  static D max(D a, D b) { return _mm512_max_pd(a, b); }
  static D min(D a, D b) { return _mm512_min_pd(a, b); }
  static M lt(D a, D b) { return _mm512_cmp_pd_mask(a, b, _CMP_LT_OQ); }
  static M eq(D a, D b) { return _mm512_cmp_pd_mask(a, b, _CMP_EQ_OQ); }
  static M mor(M a, M b) { return static_cast<M>(a | b); }
  static D select(M m, D a, D b) { return _mm512_mask_blend_pd(m, b, a); }
  static D flipsign_if(D x, M m) {
    const __m512i sign = _mm512_set1_epi64(static_cast<long long>(kSignBit));
    const __m512i xi = _mm512_castpd_si512(x);
    return _mm512_castsi512_pd(_mm512_mask_xor_epi64(xi, m, xi, sign));
  }
  static D trunc_nonneg(D x) {
    return _mm512_cvtepi32_pd(_mm512_cvttpd_epi32(x));
  }
  static D exp_bits(D x) {
    __m512i u = _mm512_srli_epi64(_mm512_castpd_si512(x), 52);
    u = _mm512_or_si512(u,
                        _mm512_set1_epi64(static_cast<long long>(kMagic52)));
    return _mm512_sub_pd(_mm512_castsi512_pd(u),
                         _mm512_set1_pd(4503599627370496.0));
  }
  static D mant_half(D x) {
    __m512i u = _mm512_castpd_si512(x);
    u = _mm512_and_si512(u,
                         _mm512_set1_epi64(static_cast<long long>(kMantMask)));
    u = _mm512_or_si512(u,
                        _mm512_set1_epi64(static_cast<long long>(kHalfExp)));
    return _mm512_castsi512_pd(u);
  }
  static void gather_pair(const double* rc, D jd, D& c0, D& c1) {
    alignas(32) std::int32_t j[8];
    _mm256_store_si256(reinterpret_cast<__m256i*>(j), _mm512_cvttpd_epi32(jd));
    keep_in_memory(j);
    // a = (c0, c1) of lanes 0|2|4|6, b = of lanes 1|3|5|7; unpack
    // transposes within each 128-bit block.
    __m512d a = _mm512_zextpd128_pd512(_mm_loadu_pd(rc + 2 * j[0]));
    __m512d b = _mm512_zextpd128_pd512(_mm_loadu_pd(rc + 2 * j[1]));
    a = _mm512_insertf64x2(a, _mm_loadu_pd(rc + 2 * j[2]), 1);
    b = _mm512_insertf64x2(b, _mm_loadu_pd(rc + 2 * j[3]), 1);
    a = _mm512_insertf64x2(a, _mm_loadu_pd(rc + 2 * j[4]), 2);
    b = _mm512_insertf64x2(b, _mm_loadu_pd(rc + 2 * j[5]), 2);
    a = _mm512_insertf64x2(a, _mm_loadu_pd(rc + 2 * j[6]), 3);
    b = _mm512_insertf64x2(b, _mm_loadu_pd(rc + 2 * j[7]), 3);
    c0 = _mm512_unpacklo_pd(a, b);
    c1 = _mm512_unpackhi_pd(a, b);
  }
};
#endif  // __AVX512F__ && __AVX512DQ__

}  // namespace vipvt::simd
