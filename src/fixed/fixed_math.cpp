#include "fixed/fixed_math.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace odenet::fixed {

std::uint64_t isqrt_u64(std::uint64_t x) {
  // The double estimate lands within a step or two of floor(sqrt(x)); the
  // integer fix-up makes it exact. floor(sqrt(x)) < 2^32 for any 64-bit
  // x, which also keeps (r + 1)^2 from overflowing.
  constexpr std::uint64_t kMaxRoot = 0xFFFFFFFFull;
  std::uint64_t r = std::min<std::uint64_t>(
      static_cast<std::uint64_t>(std::sqrt(static_cast<double>(x))),
      kMaxRoot);
  while (r * r > x) --r;
  while (r < kMaxRoot && (r + 1) * (r + 1) <= x) ++r;
  return r;
}

std::int64_t idiv_i64(std::int64_t num, std::int64_t den) {
  ODENET_CHECK(den != 0, "fixed-point division by zero");
  // The one quotient int64 cannot hold, INT64_MIN / -1, wraps as the
  // divider's register does; negating in uint64 covers it.
  if (den == -1) {
    return static_cast<std::int64_t>(0 - static_cast<std::uint64_t>(num));
  }
  return num / den;
}

}  // namespace odenet::fixed
