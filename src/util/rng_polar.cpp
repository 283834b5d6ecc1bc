// Bulk Marsaglia polar normals (Rng::normals_polar, DESIGN.md §20): the
// exact arithmetic of Rng::normal(), reorganized into phases so the
// rejection branch, the sqrt and the division stop serializing one
// deviate pair at a time.  Compiled with -ffp-contract=off: every value
// must be the bits normal() computes, so log stays libm's scalar std::log
// and the vector phases use only correctly-rounded operations
// (util/simd/vec.hpp).

#include <algorithm>
#include <cmath>

#include "util/rng.hpp"
#include "util/simd/vec.hpp"

namespace vipvt {

namespace {
#if defined(__SSE2__)
using V = simd::Sse2Policy;
#else
using V = simd::ScalarPolicy;
#endif
}  // namespace

void Rng::normals_polar(std::span<double> out) noexcept {
  const std::size_t n = out.size();
  std::size_t k = 0;
  if (n > 0 && has_cached_) {
    has_cached_ = false;
    out[k++] = cached_;
  }
  constexpr std::size_t kChunk = 256;
  alignas(64) double u[kChunk], v[kChunk], s[kChunk], f[kChunk];
  while (k < n) {
    // At most as many candidate pairs as pairs still owed: every accepted
    // pair is used, so the generator stops exactly where normal() would.
    const std::size_t cand = std::min(kChunk, (n - k + 1) / 2);
    for (std::size_t c = 0; c < cand; ++c) {
      u[c] = uniform(-1.0, 1.0);
      v[c] = uniform(-1.0, 1.0);
    }
    std::size_t c = 0;
    for (; c + V::W <= cand; c += V::W) {
      const V::D vu = V::load(u + c);
      const V::D vv = V::load(v + c);
      V::store(s + c, V::add(V::mul(vu, vu), V::mul(vv, vv)));
    }
    for (; c < cand; ++c) s[c] = u[c] * u[c] + v[c] * v[c];
    // Keep accepted pairs in draw order (normal() rejects s >= 1, s == 0).
    std::size_t m = 0;
    for (c = 0; c < cand; ++c) {
      const double sc = s[c];
      u[m] = u[c];
      v[m] = v[c];
      s[m] = sc;
      m += static_cast<std::size_t>(!(sc >= 1.0 || sc == 0.0));
    }
    for (std::size_t j = 0; j < m; ++j) f[j] = std::log(s[j]);
    // f = sqrt(-2 * log(s) / s), normal()'s operation order.
    std::size_t j = 0;
    for (; j + V::W <= m; j += V::W) {
      V::store(f + j, V::sqrt(V::div(V::mul(V::bcast(-2.0), V::load(f + j)),
                                     V::load(s + j))));
    }
    for (; j < m; ++j) f[j] = std::sqrt(-2.0 * f[j] / s[j]);
    for (j = 0; j < m; ++j) {
      out[k++] = u[j] * f[j];
      const double second = v[j] * f[j];
      if (k < n) {
        out[k++] = second;
      } else {
        cached_ = second;
        has_cached_ = true;
      }
    }
  }
}

}  // namespace vipvt
