// AVX2 (W=4) instantiation of the kernel bodies.  Compiled with
// "-mavx2 -ffp-contract=off" and deliberately WITHOUT -mfma: contraction
// would change per-lane bits and break the dispatch contract
// (DESIGN.md §17).  Only reachable through runtime CPUID dispatch.

#include "util/simd/kernels.hpp"

#if defined(VIPVT_SIMD_HAVE_AVX2)

#include "util/simd/kernels_body.hpp"
#include "util/simd/vec.hpp"

namespace vipvt::simd {
namespace {

using P = Avx2Policy;

void relax(const RelaxEdge* edges, const std::uint8_t* first_write,
           std::size_t num_edges, const double* factor_soa,
           double* arrival_soa, std::size_t width) {
  relax_edges_body<P>(edges, first_write, num_edges, factor_soa, arrival_soa,
                      width);
}

void transform(const double* coef, std::int32_t row_stride, double lo,
               double step, double inv_step, std::int32_t intervals,
               const std::int32_t* rows, const double* sys, const double* eps,
               double sigma, double clamp, double* out, std::size_t n,
               std::size_t width) {
  draw_transform_body<P>(coef, row_stride, lo, step, inv_step, intervals,
                         rows, sys, eps, sigma, clamp, out, n, width);
}

void normals(const std::uint64_t* keys, std::size_t lanes, double* out,
             std::size_t n, std::size_t stride) {
  normals_fill_body<P>(keys, lanes, out, n, stride);
}

}  // namespace

const Kernels kKernelsAvx2{&relax, &transform, &normals};

}  // namespace vipvt::simd

#endif  // VIPVT_SIMD_HAVE_AVX2
