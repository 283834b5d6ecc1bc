// SSE2 (W=2) instantiation of the kernel bodies.  SSE2 is the x86-64
// baseline, so this TU needs no extra -m flags — only -ffp-contract=off
// to uphold the bit-identity contract (DESIGN.md §17).

#include "util/simd/kernels.hpp"

#if defined(VIPVT_SIMD_HAVE_SSE2)

#include "util/simd/kernels_body.hpp"
#include "util/simd/vec.hpp"

namespace vipvt::simd {
namespace {

using P = Sse2Policy;

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

const Kernels kKernelsSse2{&relax, &transform, &normals};

}  // namespace vipvt::simd

#endif  // VIPVT_SIMD_HAVE_SSE2
