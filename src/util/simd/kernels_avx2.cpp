// AVX2 (W=4) instantiation of the kernel bodies.  Compiled with
// "-mavx2 -ffp-contract=off" and deliberately WITHOUT -mfma: contraction
// would change per-lane bits and break the dispatch contract
// (DESIGN.md §17).  Only reachable through runtime CPUID dispatch.

#include "util/simd/kernels.hpp"

#if defined(VIPVT_SIMD_HAVE_AVX2)

#include "util/simd/kernels_body.hpp"

namespace vipvt::simd {

const Kernels kKernelsAvx2 = kernels_of<Avx2Policy>();

}  // namespace vipvt::simd

#endif  // VIPVT_SIMD_HAVE_AVX2
