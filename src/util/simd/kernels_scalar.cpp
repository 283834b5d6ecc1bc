// Scalar (W=1) reference instantiation of the kernel bodies — the lane
// every other ISA table must match bit-for-bit (DESIGN.md §17).  Compiled
// with -ffp-contract=off like all kernel TUs so no FMA contraction can
// slip in even under -march overrides.

#include "util/simd/kernels.hpp"
#include "util/simd/kernels_body.hpp"

namespace vipvt::simd {

const Kernels kKernelsScalar = kernels_of<ScalarPolicy>();

}  // namespace vipvt::simd
