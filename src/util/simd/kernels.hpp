#pragma once
// Kernel table for the runtime-dispatched SIMD layer (DESIGN.md §17).
//
// Each entry points at one of the three hot kernels compiled per-ISA
// (scalar / SSE2 / AVX2 / AVX-512) from the shared width-agnostic bodies in
// kernels_body.hpp.  Every variant is per-lane BIT-IDENTICAL to the scalar
// reference lane: the kernels use only IEEE-754 correctly-rounded operations
// (add/sub/mul/div/sqrt/max/min and exact conversions), the per-ISA TUs are
// compiled with -ffp-contract=off and never with -mfma, and any numeric path
// that intentionally differs must ship as a new versioned DrawProfile —
// never as a silent change (see mc_ssta.hpp).
//
// This header only declares the POD types and tables so that hot-path
// headers (timing/sta.hpp) can name them without pulling in dispatch state;
// use dispatch.hpp to obtain the active table.

#include <cstddef>
#include <cstdint>

namespace vipvt::simd {

/// Sentinel instance id for arcs with a fixed (variation-free) delay.
/// Matches vipvt::kInvalidInst; sta.cpp static_asserts the equality.
inline constexpr std::uint32_t kInvalidRelaxInst = 0xffffffffu;
/// Sentinel wire index of an arc that folds no net.
inline constexpr std::uint32_t kNoRelaxWire = 0xffffffffu;

/// One arc of StaEngine's folded propagation graph (DESIGN.md §17).  Its
/// delays are indices into the delay array the kernel is handed — the
/// engine's per-edge base delays, or a snapshot of them — so every delay
/// has one home and an arc reads whichever bases it is run against.
struct RelaxArc {
  std::uint32_t from = 0;  // source node: the folded net's driver, if any
  std::uint32_t to = 0;    // destination node
  std::uint32_t inst = kInvalidRelaxInst;  // scaling instance, or sentinel
  std::uint32_t delay = 0;                 // delays[delay]: the base delay
  std::uint32_t wire = kNoRelaxWire;       // delays[wire]: the folded net's
};

/// Batched arc relaxation over an arrival SoA arena, with d = delays[delay]
/// and w = delays[wire]:
///   to[b] = max(to[b], from[b] + d)                           (fixed arcs)
///   to[b] = max(to[b], from[b] + d * factor[inst][b])         (cell arcs)
///   to[b] = max(to[b], (from[b] + w) + d * factor[inst][b])   (folding a net)
/// An arc that folds no net adds no wire at all: x + 0.0 is not x for
/// x = -0.0.  arrival_soa rows are node-major [num_nodes x width];
/// factor_soa rows are instance-major [num_inst x width].  first_write[a]
/// != 0 marks the arc that writes its target row first: it takes
/// max(cand, -inf) instead of reading to[b], so the caller need not
/// pre-fill that row (the first-writer contract, DESIGN.md §17).  All-zero
/// flags give the plain sweep.
using RelaxArcsFn = void (*)(const RelaxArc* arcs,
                             const std::uint8_t* first_write,
                             std::size_t num_arcs, const float* delays,
                             const double* factor_soa, double* arrival_soa,
                             std::size_t width);

/// One DelayFactorTables view (tables.hpp) for the fused draw: row r's
/// interleaved (value, slope) pairs start at coef + r * row_stride, and
/// segment j of every row covers [lo + j * step, lo + (j + 1) * step).
struct FactorTable {
  const double* coef = nullptr;
  std::int32_t row_stride = 0;  // doubles per row: 2 * intervals
  std::int32_t intervals = 0;
  double lo = 0.0;
  double step = 0.0;
  double inv_step = 0.0;
};

/// Fused BatchedSimd factor draw, from counter keys to delay factors.
/// Lane l is keyed by (keys[2l], keys[2l+1]), the two parent draws
/// Rng::normals_simd takes; z(i, l) is element i of that lane's
/// normals_simd stream.  The call covers the n instances that start at
/// stream element 2 * first_pair (Box–Muller pair first_pair); rows,
/// sys, offset and out already point at that first instance.  For i < n
/// and lane l < width, with offset and out both instance-major
/// [n x width]:
///   v  = sigma * z(2 * first_pair + i, l), plus offset[i * width + l]
///        when offset != null
///   d  = std::clamp(v, -clamp, clamp)
///   out[i * width + l] = eval_row(coef + rows[i] * row_stride, sys[i] + d)
/// reproducing the two-phase computation (normals_simd, scale, std::clamp,
/// DelayFactorTables::eval_row) bit-for-bit.  Pair k reads counter k of
/// each key's stream alone, so a call from first_pair writes the same
/// bits as the matching rows of a call from pair 0 (DESIGN.md §22).  The
/// kernel vectorizes across lanes; a lane count that is not a multiple of
/// the register width runs its remainder at the next narrower policy.
using DrawFactorsFn = void (*)(const FactorTable& table,
                               const std::int32_t* rows, const double* sys,
                               const std::uint64_t* keys,
                               const double* offset, double sigma,
                               double clamp, double* out, std::size_t n,
                               std::size_t width, std::uint64_t first_pair);

/// Counter-driven bulk Box–Muller fill for Rng::normals_simd: the stream
/// keyed by (key_r, key_t), n deviates into out.  The log/sin/cos run
/// through the layer's own vector math, so the output bits are identical
/// across ISAs, compilers and build flags, and deviate k depends on the
/// keys and k alone (prefix-stable).
using NormalsFillFn = void (*)(std::uint64_t key_r, std::uint64_t key_t,
                               double* out, std::size_t n);

struct Kernels {
  RelaxArcsFn relax_arcs = nullptr;
  DrawFactorsFn draw_factors = nullptr;
  NormalsFillFn normals_fill = nullptr;
};

// Per-ISA tables, defined in the matching kernels_<isa>.cpp TU.  The scalar
// table is always compiled; the others exist only when the build gates in
// src/util/CMakeLists.txt enabled their TU (VIPVT_SIMD_HAVE_*).
extern const Kernels kKernelsScalar;
#if defined(VIPVT_SIMD_HAVE_SSE2)
extern const Kernels kKernelsSse2;
#endif
#if defined(VIPVT_SIMD_HAVE_AVX2)
extern const Kernels kKernelsAvx2;
#endif
#if defined(VIPVT_SIMD_HAVE_AVX512)
extern const Kernels kKernelsAvx512;
#endif

}  // namespace vipvt::simd
