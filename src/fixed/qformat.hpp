// Parameterized fixed-point number: `Storage` bits with `FracBits`
// fractional bits, saturating arithmetic.
//
// The paper's datapath uses the 32-bit Q20 format (11 integer bits + sign +
// 20 fractional bits), here `Q20 = Fixed<20>`. Narrower formats (footnote 2:
// "using reduced bit widths (e.g., 16-bit or less) can implement more
// layers in PL part") instantiate the same template with int16_t storage
// and feed the quantization ablation bench.
#pragma once

#include <cstdint>
#include <limits>
#include <type_traits>

#include "fixed/fixed_math.hpp"
#include "util/check.hpp"

namespace odenet::fixed {

template <int FracBits, typename Storage = std::int32_t>
class Fixed {
  static_assert(std::is_signed_v<Storage>, "storage must be signed");
  static_assert(FracBits > 0, "need at least one fractional bit");
  static_assert(FracBits < static_cast<int>(sizeof(Storage) * 8) - 1,
                "need at least one integer bit");

 public:
  using storage_type = Storage;
  static constexpr int kFracBits = FracBits;
  static constexpr int kTotalBits = static_cast<int>(sizeof(Storage) * 8);
  static constexpr int kIntBits = kTotalBits - 1 - FracBits;
  static constexpr std::int64_t kOneRaw = std::int64_t{1} << FracBits;
  static constexpr std::int64_t kMaxRaw = std::numeric_limits<Storage>::max();
  static constexpr std::int64_t kMinRaw = std::numeric_limits<Storage>::min();

  constexpr Fixed() = default;

  static constexpr Fixed from_raw(Storage raw) {
    Fixed f;
    f.raw_ = raw;
    return f;
  }

  /// Nearest-even-free rounding (round half away from zero), saturating.
  /// NaN quantizes to 0; ±inf and out-of-range magnitudes saturate. The
  /// range check happens in the DOUBLE domain: casting an out-of-range
  /// double to an integer type is undefined behaviour, so the bounds are
  /// compared as exactly-representable doubles before any conversion.
  static Fixed from_float(float v) { return from_double(static_cast<double>(v)); }
  static Fixed from_double(double v) {
    const double scaled = v * static_cast<double>(kOneRaw);
    if (scaled != scaled) return from_raw(0);  // NaN
    const double rounded = scaled >= 0.0 ? scaled + 0.5 : scaled - 0.5;
    if (rounded >= static_cast<double>(kMaxRaw) + 1.0) {
      return from_raw(static_cast<Storage>(kMaxRaw));
    }
    if (rounded <= static_cast<double>(kMinRaw) - 1.0) {
      return from_raw(static_cast<Storage>(kMinRaw));
    }
    return from_raw(saturate_cast(static_cast<std::int64_t>(rounded)));
  }
  static constexpr Fixed from_int(int v) {
    // Multiply, not <<: left-shifting a negative int64 is UB in C++17,
    // and v * 2^FracBits fits int64 for any int v (|v| < 2^31, FracBits
    // < 31). Identical raw result for every in-range value.
    return from_raw(saturate_cast(static_cast<std::int64_t>(v) * kOneRaw));
  }

  constexpr Storage raw() const { return raw_; }
  double to_double() const {
    return static_cast<double>(raw_) / static_cast<double>(kOneRaw);
  }

  /// Largest / smallest representable values and the quantization step.
  static constexpr double max_value() {
    return static_cast<double>(kMaxRaw) / static_cast<double>(kOneRaw);
  }
  static constexpr double min_value() {
    return static_cast<double>(kMinRaw) / static_cast<double>(kOneRaw);
  }
  static constexpr double resolution() {
    return 1.0 / static_cast<double>(kOneRaw);
  }

  friend constexpr Fixed operator+(Fixed a, Fixed b) {
    return from_raw(saturate_cast(static_cast<std::int64_t>(a.raw_) + b.raw_));
  }
  friend constexpr Fixed operator-(Fixed a, Fixed b) {
    return from_raw(saturate_cast(static_cast<std::int64_t>(a.raw_) - b.raw_));
  }
  friend constexpr Fixed operator-(Fixed a) {
    return from_raw(saturate_cast(-static_cast<std::int64_t>(a.raw_)));
  }
  /// Full-width product then arithmetic shift with round-half-away-from-zero
  /// — the behaviour of a DSP48 multiply followed by a rounding stage.
  friend constexpr Fixed operator*(Fixed a, Fixed b) {
    const std::int64_t prod =
        static_cast<std::int64_t>(a.raw_) * static_cast<std::int64_t>(b.raw_);
    const std::int64_t half = std::int64_t{1} << (FracBits - 1);
    const std::int64_t rounded =
        prod >= 0 ? (prod + half) >> FracBits : -((-prod + half) >> FracBits);
    return from_raw(saturate_cast(rounded));
  }
  friend Fixed operator/(Fixed a, Fixed b) {
    // Multiply, not <<: a.raw_ can be negative (see from_int).
    const std::int64_t num = static_cast<std::int64_t>(a.raw_) * kOneRaw;
    return from_raw(saturate_cast(idiv_i64(num, b.raw_)));
  }

  Fixed& operator+=(Fixed b) { return *this = *this + b; }
  Fixed& operator-=(Fixed b) { return *this = *this - b; }
  Fixed& operator*=(Fixed b) { return *this = *this * b; }
  Fixed& operator/=(Fixed b) { return *this = *this / b; }

  friend constexpr bool operator==(Fixed a, Fixed b) { return a.raw_ == b.raw_; }
  friend constexpr bool operator!=(Fixed a, Fixed b) { return a.raw_ != b.raw_; }
  friend constexpr bool operator<(Fixed a, Fixed b) { return a.raw_ < b.raw_; }
  friend constexpr bool operator<=(Fixed a, Fixed b) { return a.raw_ <= b.raw_; }
  friend constexpr bool operator>(Fixed a, Fixed b) { return a.raw_ > b.raw_; }
  friend constexpr bool operator>=(Fixed a, Fixed b) { return a.raw_ >= b.raw_; }

  /// Hardware-style sqrt: isqrt(raw << FracBits). Requires non-negative.
  friend Fixed sqrt(Fixed a) {
    ODENET_CHECK(a.raw_ >= 0, "fixed sqrt of negative value");
    const std::uint64_t radicand = static_cast<std::uint64_t>(a.raw_)
                                   << FracBits;
    return from_raw(saturate_cast(
        static_cast<std::int64_t>(isqrt_u64(radicand))));
  }

  friend constexpr Fixed abs(Fixed a) { return a.raw_ < 0 ? -a : a; }

 private:
  static constexpr Storage saturate_cast(std::int64_t v) {
    if (v > kMaxRaw) return static_cast<Storage>(kMaxRaw);
    if (v < kMinRaw) return static_cast<Storage>(kMinRaw);
    return static_cast<Storage>(v);
  }

  Storage raw_ = 0;
};

/// The paper's format: 32-bit, 20 fractional bits.
using Q20 = Fixed<20, std::int32_t>;
/// Ablation formats.
using Q16 = Fixed<16, std::int32_t>;
using Q24 = Fixed<24, std::int32_t>;
using Q8_16bit = Fixed<8, std::int16_t>;
using Q12_16bit = Fixed<12, std::int16_t>;

}  // namespace odenet::fixed
