// Runtime ISA dispatch (DESIGN.md §17): CPU probing, table selection, the
// VIPVT_SIMD override, and the Rng::normals_simd entry point that routes
// the bulk normal fill through the active table.

#include "util/simd/dispatch.hpp"

#include <atomic>
#include <cstdlib>
#include <cstring>

#include "util/rng.hpp"

namespace vipvt::simd {

namespace {

#if defined(__x86_64__) || defined(_M_X64)
constexpr bool kX86 = true;
bool cpu_supports(const char* feature) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_cpu_init();
  if (std::strcmp(feature, "sse2") == 0) return __builtin_cpu_supports("sse2");
  if (std::strcmp(feature, "sse4.2") == 0)
    return __builtin_cpu_supports("sse4.2");
  if (std::strcmp(feature, "avx") == 0) return __builtin_cpu_supports("avx");
  if (std::strcmp(feature, "avx2") == 0) return __builtin_cpu_supports("avx2");
  if (std::strcmp(feature, "fma") == 0) return __builtin_cpu_supports("fma");
  if (std::strcmp(feature, "avx512f") == 0)
    return __builtin_cpu_supports("avx512f");
  if (std::strcmp(feature, "avx512dq") == 0)
    return __builtin_cpu_supports("avx512dq");
  if (std::strcmp(feature, "avx512bw") == 0)
    return __builtin_cpu_supports("avx512bw");
  if (std::strcmp(feature, "avx512vl") == 0)
    return __builtin_cpu_supports("avx512vl");
  return false;
#else
  (void)feature;
  return false;
#endif
}
#else
constexpr bool kX86 = false;
bool cpu_supports(const char*) { return false; }
#endif

const Kernels* table_for(Arch a) {
  switch (a) {
    case Arch::Scalar:
      return &kKernelsScalar;
    case Arch::Sse2:
#if defined(VIPVT_SIMD_HAVE_SSE2)
      if (cpu_supports("sse2")) return &kKernelsSse2;
#endif
      return nullptr;
    case Arch::Avx2:
#if defined(VIPVT_SIMD_HAVE_AVX2)
      if (cpu_supports("avx2")) return &kKernelsAvx2;
#endif
      return nullptr;
    case Arch::Avx512:
#if defined(VIPVT_SIMD_HAVE_AVX512)
      if (cpu_supports("avx512f") && cpu_supports("avx512dq"))
        return &kKernelsAvx512;
#endif
      return nullptr;
  }
  return nullptr;
}

Arch parse_arch_name(const char* s, Arch fallback) {
  if (s == nullptr) return fallback;
  if (std::strcmp(s, "scalar") == 0) return Arch::Scalar;
  if (std::strcmp(s, "sse2") == 0) return Arch::Sse2;
  if (std::strcmp(s, "avx2") == 0) return Arch::Avx2;
  if (std::strcmp(s, "avx512") == 0) return Arch::Avx512;
  return fallback;
}

Arch detect_default() {
  Arch best = Arch::Scalar;
  for (Arch a : {Arch::Sse2, Arch::Avx2, Arch::Avx512})
    if (table_for(a) != nullptr) best = a;
  // Env override (VIPVT_SIMD=scalar|sse2|avx2|avx512); an unavailable or
  // unknown request silently keeps the autodetected best — the contract
  // guarantees identical results either way.
  const Arch wanted = parse_arch_name(std::getenv("VIPVT_SIMD"), best);
  return table_for(wanted) != nullptr ? wanted : best;
}

struct Dispatch {
  Arch default_arch;
  std::atomic<int> active;
  Dispatch() : default_arch(detect_default()) {
    active.store(static_cast<int>(default_arch), std::memory_order_relaxed);
  }
};

Dispatch& state() {
  static Dispatch d;
  return d;
}

}  // namespace

const Kernels& active_kernels() {
  return *table_for(active_arch());
}

Arch active_arch() {
  return static_cast<Arch>(state().active.load(std::memory_order_relaxed));
}

const Kernels* kernels_for(Arch a) { return table_for(a); }

bool arch_available(Arch a) { return table_for(a) != nullptr; }

std::vector<Arch> available_archs() {
  std::vector<Arch> out;
  for (Arch a : {Arch::Scalar, Arch::Sse2, Arch::Avx2, Arch::Avx512})
    if (table_for(a) != nullptr) out.push_back(a);
  return out;
}

bool set_arch(Arch a) {
  if (table_for(a) == nullptr) return false;
  state().active.store(static_cast<int>(a), std::memory_order_relaxed);
  return true;
}

void reset_arch() {
  Dispatch& d = state();
  d.active.store(static_cast<int>(d.default_arch), std::memory_order_relaxed);
}

const char* arch_name(Arch a) {
  switch (a) {
    case Arch::Scalar:
      return "scalar";
    case Arch::Sse2:
      return "sse2";
    case Arch::Avx2:
      return "avx2";
    case Arch::Avx512:
      return "avx512";
  }
  return "unknown";
}

std::string cpu_features() {
  if (!kX86) return "non-x86";
  std::string out;
  for (const char* f : {"sse2", "sse4.2", "avx", "avx2", "fma", "avx512f",
                        "avx512dq", "avx512bw", "avx512vl"}) {
    if (cpu_supports(f)) {
      if (!out.empty()) out += ' ';
      out += f;
    }
  }
  return out.empty() ? "x86-64 (no probed features)" : out;
}

}  // namespace vipvt::simd

namespace vipvt {

// The bulk Box-Muller fill is defined beside the dispatcher whose kernels
// compute it.  The two parent draws happen regardless of the request
// size, keeping downstream streams length-independent.
void Rng::normals_simd(std::span<double> out) noexcept {
  const std::uint64_t key_r = next();
  const std::uint64_t key_t = next();
  if (!out.empty()) {
    simd::active_kernels().normals_fill(key_r, key_t, out.data(), out.size());
  }
}

}  // namespace vipvt
