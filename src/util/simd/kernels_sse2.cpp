// SSE2 (W=2) instantiation of the kernel bodies.  SSE2 is the x86-64
// baseline, so this TU needs no extra -m flags — only -ffp-contract=off
// to uphold the bit-identity contract (DESIGN.md §17).

#include "util/simd/kernels.hpp"

#if defined(VIPVT_SIMD_HAVE_SSE2)

#include "util/simd/kernels_body.hpp"

namespace vipvt::simd {

const Kernels kKernelsSse2 = kernels_of<Sse2Policy>();

}  // namespace vipvt::simd

#endif  // VIPVT_SIMD_HAVE_SSE2
