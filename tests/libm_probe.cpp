// Prints an FNV-1a hash over the bit patterns of pow(x, 1.5), pow(x, 1.3),
// exp(-x) and log(x) on a fixed input sweep.  Two libm builds that differ
// in the last bit anywhere on the sweep print different hashes, so a run
// under GLIBC_TUNABLES=glibc.cpu.hwcaps=-AVX2,-FMA can prove the tunable
// switched glibc to its non-FMA code paths.
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>

int main() {
  std::uint64_t h = 14695981039346656037ull;
  const auto mix = [&h](double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    for (int i = 0; i < 8; ++i) {
      h = (h ^ ((bits >> (8 * i)) & 0xffu)) * 1099511628211ull;
    }
  };
  for (int i = 1; i <= 200000; ++i) {
    const double x = 50.0 + 30.0 * i / 200000.0;  // gate lengths [nm]
    const double y = 0.3 + 0.9 * i / 200000.0;    // overdrives [V]
    mix(std::pow(x, 1.5));
    mix(std::pow(y, 1.3));
    mix(std::exp(-0.045 * x));
    mix(std::log(y));
  }
  std::printf("%016llx\n", static_cast<unsigned long long>(h));
}
