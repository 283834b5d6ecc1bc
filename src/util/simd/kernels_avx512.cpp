// AVX-512 (W=8) instantiation of the kernel bodies.  Compiled with
// "-mavx512f -mavx512dq -ffp-contract=off"; -mavx512f implies FMA
// availability to the compiler, which is exactly why contraction must be
// switched off here — a fused from+base*f would change per-lane bits and
// break the dispatch contract (DESIGN.md §17).  Only reachable through
// runtime CPUID dispatch (avx512f && avx512dq).

#include "util/simd/kernels.hpp"

#if defined(VIPVT_SIMD_HAVE_AVX512)

#if defined(__GNUC__) && !defined(__clang__) && __GNUC__ < 13
// GCC 12's AVX-512 intrinsics pass _mm512_undefined_pd() through their
// unmasked builtins, which -Wmaybe-uninitialized misreports once inlined
// into these loops (GCC PR 105593, fixed in GCC 13).
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

#include "util/simd/kernels_body.hpp"

namespace vipvt::simd {

const Kernels kKernelsAvx512 = kernels_of<Avx512Policy>();

}  // namespace vipvt::simd

#endif  // VIPVT_SIMD_HAVE_AVX512
