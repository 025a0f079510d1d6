// Fixed-point arithmetic: the paper's 32-bit Q20 format plus the narrower
// ablation formats, the sqrt/divide hardware units (against the bit-serial
// algorithms they stand for), and tensor quantization (including the
// int16 channel-pair planes of the implicit integer conv).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "core/gemm_kernels.hpp"
#include "fixed/fixed_math.hpp"
#include "fixed/fixed_tensor.hpp"
#include "fixed/qformat.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

using namespace odenet::fixed;
namespace ou = odenet::util;

namespace {
/// The sequential non-restoring square root: two radicand bits in, one
/// result bit out per iteration, MSB first — the golden isqrt_u64.
std::uint64_t bit_serial_isqrt(std::uint64_t x) {
  std::uint64_t result = 0, remainder = 0;
  for (int i = 62; i >= 0; i -= 2) {
    remainder = (remainder << 2) | ((x >> i) & 0x3u);
    const std::uint64_t trial = (result << 2) | 1u;
    result <<= 1;
    if (remainder >= trial) {
      remainder -= trial;
      result |= 1u;
    }
  }
  return result;
}

/// The sequential restoring shift-subtract divider on magnitudes, one
/// quotient bit per iteration, sign applied last — the golden idiv_i64.
std::int64_t bit_serial_idiv(std::int64_t num, std::int64_t den) {
  const bool neg = (num < 0) != (den < 0);
  const std::uint64_t n = num < 0 ? 0 - static_cast<std::uint64_t>(num)
                                  : static_cast<std::uint64_t>(num);
  const std::uint64_t d = den < 0 ? 0 - static_cast<std::uint64_t>(den)
                                  : static_cast<std::uint64_t>(den);
  std::uint64_t q = 0, r = 0;
  for (int i = 63; i >= 0; --i) {
    r = (r << 1) | ((n >> i) & 1u);
    q <<= 1;
    if (r >= d) {
      r -= d;
      q |= 1u;
    }
  }
  return static_cast<std::int64_t>(neg ? 0 - q : q);
}
}  // namespace

TEST(QFormat, StaticProperties) {
  EXPECT_EQ(Q20::kFracBits, 20);
  EXPECT_EQ(Q20::kIntBits, 11);
  EXPECT_EQ(Q20::kTotalBits, 32);
  EXPECT_NEAR(Q20::resolution(), std::pow(2.0, -20), 1e-12);
  // Representable range: ~±2048.
  EXPECT_NEAR(Q20::max_value(), 2048.0, 0.001);
  EXPECT_NEAR(Q20::min_value(), -2048.0, 0.001);
}

TEST(QFormat, FloatRoundTripWithinResolution) {
  ou::Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(-100.0, 100.0);
    const double back = Q20::from_double(v).to_double();
    EXPECT_NEAR(back, v, Q20::resolution());
  }
}

TEST(QFormat, IntegersExact) {
  for (int v : {-2048, -17, -1, 0, 1, 42, 2047}) {
    EXPECT_EQ(Q20::from_int(v).to_double(), static_cast<double>(v));
  }
}

TEST(QFormat, AdditionAndSubtraction) {
  const auto a = Q20::from_double(1.5);
  const auto b = Q20::from_double(-0.25);
  EXPECT_NEAR((a + b).to_double(), 1.25, Q20::resolution());
  EXPECT_NEAR((a - b).to_double(), 1.75, Q20::resolution());
  EXPECT_NEAR((-a).to_double(), -1.5, Q20::resolution());
}

TEST(QFormat, SaturatesInsteadOfWrapping) {
  const auto big = Q20::from_double(2000.0);
  const auto sum = big + big;
  EXPECT_NEAR(sum.to_double(), Q20::max_value(), 0.01);
  const auto neg = Q20::from_double(-2000.0);
  EXPECT_NEAR((neg + neg).to_double(), Q20::min_value(), 0.01);
  // from_double saturates too.
  EXPECT_NEAR(Q20::from_double(1e9).to_double(), Q20::max_value(), 0.01);
}

TEST(QFormat, MultiplicationAccuracy) {
  ou::Rng rng(2);
  for (int i = 0; i < 1000; ++i) {
    const double a = rng.uniform(-30.0, 30.0);
    const double b = rng.uniform(-30.0, 30.0);
    const double got = (Q20::from_double(a) * Q20::from_double(b)).to_double();
    EXPECT_NEAR(got, a * b, 64 * Q20::resolution()) << a << " * " << b;
  }
}

TEST(QFormat, DivisionAccuracy) {
  ou::Rng rng(3);
  for (int i = 0; i < 500; ++i) {
    const double a = rng.uniform(-50.0, 50.0);
    double b = rng.uniform(0.5, 20.0);
    if (rng.bernoulli(0.5)) b = -b;
    const double got = (Q20::from_double(a) / Q20::from_double(b)).to_double();
    EXPECT_NEAR(got, a / b, 1e-4) << a << " / " << b;
  }
}

TEST(QFormat, SqrtAccuracy) {
  ou::Rng rng(4);
  for (int i = 0; i < 500; ++i) {
    const double v = rng.uniform(0.0, 1000.0);
    const double got = sqrt(Q20::from_double(v)).to_double();
    EXPECT_NEAR(got, std::sqrt(v), 1e-3) << "sqrt(" << v << ")";
  }
  EXPECT_THROW(sqrt(Q20::from_double(-1.0)), odenet::Error);
}

TEST(QFormat, ComparisonOperators) {
  const auto a = Q20::from_double(1.0);
  const auto b = Q20::from_double(2.0);
  EXPECT_TRUE(a < b);
  EXPECT_TRUE(b > a);
  EXPECT_TRUE(a == Q20::from_double(1.0));
  EXPECT_EQ(abs(Q20::from_double(-3.5)).to_double(), 3.5);
}

TEST(QFormat, SixteenBitFormats) {
  // Q8 in 16 bits: range ±128, resolution 2^-8.
  EXPECT_EQ(Q8_16bit::kIntBits, 7);
  EXPECT_NEAR(Q8_16bit::max_value(), 128.0, 0.01);
  const double v = 3.14159;
  EXPECT_NEAR(Q8_16bit::from_double(v).to_double(), v,
              Q8_16bit::resolution());
  // Coarser than Q20.
  EXPECT_GT(Q8_16bit::resolution(), Q20::resolution());
  // Saturation at the narrow range.
  EXPECT_NEAR(Q12_16bit::from_double(100.0).to_double(),
              Q12_16bit::max_value(), 0.01);
}

TEST(QFormat, MulIsCommutativeOnRaws) {
  ou::Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    const auto a = Q20::from_double(rng.uniform(-10, 10));
    const auto b = Q20::from_double(rng.uniform(-10, 10));
    EXPECT_EQ((a * b).raw(), (b * a).raw());
  }
}

TEST(FixedMath, IsqrtExactOnPerfectSquares) {
  for (std::uint64_t r : {0ull, 1ull, 2ull, 100ull, 65535ull, 1000000ull}) {
    EXPECT_EQ(isqrt_u64(r * r), r);
  }
}

TEST(FixedMath, IsqrtIsFloor) {
  ou::Rng rng(6);
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t x = rng.next_u64() >> (i % 32);
    const std::uint64_t s = isqrt_u64(x);
    // s^2 <= x < (s+1)^2, guarding overflow on s+1.
    EXPECT_LE(s * s, x);
    if (s < 0xFFFFFFFFull) {
      EXPECT_GT((s + 1) * (s + 1), x);
    }
  }
}

TEST(FixedMath, IdivMatchesHardwareTruncation) {
  ou::Rng rng(7);
  for (int i = 0; i < 2000; ++i) {
    std::int64_t num = static_cast<std::int64_t>(rng.next_u64() >> 20);
    std::int64_t den = static_cast<std::int64_t>(rng.next_u64() >> 40) + 1;
    if (rng.bernoulli(0.5)) num = -num;
    if (rng.bernoulli(0.5)) den = -den;
    EXPECT_EQ(idiv_i64(num, den), num / den) << num << "/" << den;
  }
  EXPECT_THROW(idiv_i64(1, 0), odenet::Error);
}

TEST(FixedMath, UnitsMatchTheBitSerialAlgorithms) {
  constexpr std::uint64_t kTop = std::numeric_limits<std::uint64_t>::max();
  std::vector<std::uint64_t> radicands = {0, 1, 2, 3, 4, kTop, kTop - 1,
                                          std::uint64_t{1} << 63};
  // Perfect squares and their neighbours, up to the largest 32-bit root.
  for (std::uint64_t r : {1ull, 2ull, 3037000499ull, 3037000500ull,
                          4294967294ull, 4294967295ull}) {
    radicands.push_back(r * r - 1);
    radicands.push_back(r * r);
    radicands.push_back(r * r + 1);
  }
  ou::Rng rng(17);
  for (int i = 0; i < 20000; ++i) radicands.push_back(rng.next_u64() >> (i % 64));
  for (std::uint64_t x : radicands) {
    ASSERT_EQ(isqrt_u64(x), bit_serial_isqrt(x)) << x;
  }

  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  std::vector<std::pair<std::int64_t, std::int64_t>> divisions = {
      {kMin, -1}, {kMin, 1}, {kMin, 2}, {kMin, kMin}, {kMax, -1},
      {kMax, kMin}, {0, -7}, {-1, kMax}, {std::int64_t{1} << 40, 3238}};
  for (int i = 0; i < 20000; ++i) {
    // Non-negative draws of every magnitude, then random signs.
    const auto num = static_cast<std::int64_t>(rng.next_u64() >> (1 + i % 63));
    auto den = static_cast<std::int64_t>(rng.next_u64() >> (1 + (i * 7) % 63));
    if (den == 0) den = 1;
    divisions.emplace_back(rng.bernoulli(0.5) ? num : -num,
                           rng.bernoulli(0.5) ? den : -den);
  }
  for (const auto& [num, den] : divisions) {
    ASSERT_EQ(idiv_i64(num, den), bit_serial_idiv(num, den))
        << num << "/" << den;
  }
}

TEST(FixedTensor, QuantizeDequantizeRoundTrip) {
  ou::Rng rng(8);
  odenet::core::Tensor t({3, 4});
  for (std::size_t i = 0; i < t.numel(); ++i) {
    t.data()[i] = static_cast<float>(rng.uniform(-5.0, 5.0));
  }
  FixedTensor q = quantize(t, 20);
  EXPECT_EQ(q.shape, t.shape());
  odenet::core::Tensor back = dequantize(q);
  for (std::size_t i = 0; i < t.numel(); ++i) {
    EXPECT_NEAR(back.data()[i], t.data()[i], 1e-5f);
  }
}

TEST(FixedTensor, QuantizationErrorShrinksWithMoreFracBits) {
  ou::Rng rng(9);
  odenet::core::Tensor t({1000});
  for (std::size_t i = 0; i < t.numel(); ++i) {
    t.data()[i] = static_cast<float>(rng.normal(0.0, 1.0));
  }
  const auto e8 = measure_quantization(t, 8);
  const auto e16 = measure_quantization(t, 16);
  const auto e20 = measure_quantization(t, 20);
  EXPECT_GT(e8.rmse, e16.rmse);
  EXPECT_GT(e16.rmse, e20.rmse);
  EXPECT_LT(e8.snr_db, e16.snr_db);
  EXPECT_EQ(e20.saturated, 0u);
}

TEST(FixedTensor, SaturationCounted) {
  odenet::core::Tensor t({2});
  t.at1(0) = 1e9f;  // far beyond Q20 range
  t.at1(1) = 0.5f;
  const auto e = measure_quantization(t, 20);
  EXPECT_EQ(e.saturated, 1u);
  EXPECT_THROW(quantize(t, 0), odenet::Error);
  EXPECT_THROW(quantize(t, 31), odenet::Error);
}

TEST(QFormat, FromDoubleSpecialsSaturateWithoutUndefinedCasts) {
  // Regression: the scaled double used to be cast to int64 BEFORE the
  // saturation clamp, which is undefined behaviour for out-of-range,
  // inf and NaN inputs. The clamp now happens in the double domain.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(Q20::from_double(1e300).raw(), Q20::from_double(1e9).raw());
  EXPECT_EQ(Q20::from_double(inf).raw(), Q20::from_double(1e9).raw());
  EXPECT_EQ(Q20::from_double(-1e300).raw(), Q20::from_double(-1e9).raw());
  EXPECT_EQ(Q20::from_double(-inf).raw(), Q20::from_double(-1e9).raw());
  EXPECT_EQ(Q20::from_double(nan).raw(), 0);
  EXPECT_NEAR(Q20::from_double(inf).to_double(), Q20::max_value(), 1e-6);
  EXPECT_NEAR(Q20::from_double(-inf).to_double(), Q20::min_value(), 1e-6);
  // The 16-bit ablation formats ride the same template.
  EXPECT_EQ(Q12_16bit::from_double(inf).raw(),
            std::numeric_limits<std::int16_t>::max());
  EXPECT_EQ(Q12_16bit::from_double(-inf).raw(),
            std::numeric_limits<std::int16_t>::min());
  EXPECT_EQ(Q12_16bit::from_double(nan).raw(), 0);
}

TEST(FixedTensor, QuantizeSpecialsSaturateWithoutUndefinedCasts) {
  // Same regression for the tensor-level quantizer: +-huge and +-inf pin
  // to the format rails, NaN lands on zero — no UB float->int casts.
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  odenet::core::Tensor t({6});
  t.at1(0) = inf;
  t.at1(1) = -inf;
  t.at1(2) = nan;
  t.at1(3) = 1e30f;
  t.at1(4) = -1e30f;
  t.at1(5) = 0.5f;
  FixedTensor q = quantize(t, 20);
  odenet::core::Tensor back = dequantize(q);
  EXPECT_NEAR(back.at1(0), 2048.0f, 0.01);
  EXPECT_NEAR(back.at1(1), -2048.0f, 0.01);
  EXPECT_EQ(back.at1(2), 0.0f);
  EXPECT_NEAR(back.at1(3), 2048.0f, 0.01);
  EXPECT_NEAR(back.at1(4), -2048.0f, 0.01);
  EXPECT_NEAR(back.at1(5), 0.5f, 1e-5);

  // And the in-place qdq (the SIMD-dispatched serving path) agrees.
  odenet::core::Tensor t2({6});
  for (int i = 0; i < 6; ++i) t2.at1(i) = t.at1(i);
  qdq_inplace(t2, 20);
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(t2.at1(i), back.at1(i)) << "qdq vs quantize at " << i;
  }
}

TEST(FixedTensor, ZeroTensorReportsZeroSnrNotInfinity) {
  // Regression: all-zero signal with zero noise used to report +inf dB
  // (0/0 through the log); the report now pins that case to 0 dB.
  odenet::core::Tensor t({16});
  for (std::size_t i = 0; i < t.numel(); ++i) t.data()[i] = 0.0f;
  const auto e = measure_quantization(t, 12);
  EXPECT_EQ(e.snr_db, 0.0);
  EXPECT_EQ(e.rmse, 0.0);
  EXPECT_EQ(e.max_abs_error, 0.0);
  // A nonzero exactly-representable tensor still reports +inf (signal
  // with literally zero noise), which is the honest answer there.
  odenet::core::Tensor ones({4});
  for (std::size_t i = 0; i < ones.numel(); ++i) ones.data()[i] = 1.0f;
  EXPECT_TRUE(std::isinf(measure_quantization(ones, 12).snr_db));
}

TEST(FixedTensor, QuantizeI16HandlesSpecialsAndRails) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float src[6] = {inf, -inf, nan, 100.0f, -100.0f, 1.0f};
  std::int16_t q[6];
  quantize_i16(src, q, 6, 12);
  EXPECT_EQ(q[0], 32767);
  EXPECT_EQ(q[1], -32768);
  EXPECT_EQ(q[2], 0);
  EXPECT_EQ(q[3], 32767);   // 100 * 4096 saturates
  EXPECT_EQ(q[4], -32768);
  EXPECT_EQ(q[5], 4096);
}

TEST(FixedTensor, RequantizeI32RoundsHalfAwayFromZero) {
  // The rounding shift is the Fixed::operator* semantics: add half, shift,
  // negate symmetrically — NOT truncate-toward-zero and NOT half-to-even.
  const std::int32_t acc[8] = {24, -24, 23, -23, 8, -8, 0, 40};
  float dst[8];
  requantize_i32(acc, dst, 8, /*shift=*/4, /*out_frac_bits=*/4);
  // raw: 24/16=1.5 -> 2, 23/16 -> 1, 8/16=0.5 -> 1, 40/16=2.5 -> 3.
  EXPECT_EQ(dst[0], 2.0f / 16.0f);
  EXPECT_EQ(dst[1], -2.0f / 16.0f);
  EXPECT_EQ(dst[2], 1.0f / 16.0f);
  EXPECT_EQ(dst[3], -1.0f / 16.0f);
  EXPECT_EQ(dst[4], 1.0f / 16.0f);
  EXPECT_EQ(dst[5], -1.0f / 16.0f);
  EXPECT_EQ(dst[6], 0.0f);
  EXPECT_EQ(dst[7], 3.0f / 16.0f);
  // shift == 0: the accumulator is already on the output grid.
  requantize_i32(acc, dst, 8, 0, 4);
  EXPECT_EQ(dst[0], 24.0f / 16.0f);
  EXPECT_EQ(dst[7], 40.0f / 16.0f);
}

TEST(FixedTensor, QuantizeI16PairsMatchesQuantizeI16PerLane) {
  // quantize_i16_pairs of an NCHW tensor against quantize_i16 of the same
  // tensor, lane by lane: pair q of sample n holds channels 2q and 2q + 1,
  // and an odd channel count leaves the last pair's hi lane 0. Specials
  // (NaN, +-inf, values past the rails) sit in the data; plane lengths
  // leave vector tails; the large shape takes the per-plane thread split
  // on a 4-worker kernel pool, the small one the calling thread.
  struct Shape {
    int batch, channels;
    std::size_t plane;
  };
  const Shape shapes[] = {{1, 1, 9}, {3, 5, 20}, {2, 4, 64}, {2, 7, 8200}};
  const float specials[] = {std::numeric_limits<float>::quiet_NaN(),
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(), 9.0f,
                            -9.0f};
  ou::Rng rng(47);
  odenet::util::ThreadPool pool(4);
  struct KernelPoolPin {
    explicit KernelPoolPin(odenet::util::ThreadPool* p) {
      odenet::core::set_kernel_pool(p);
    }
    ~KernelPoolPin() { odenet::core::set_kernel_pool(nullptr); }
  } pin(&pool);
  for (const Shape& s : shapes) {
    SCOPED_TRACE(testing::Message() << s.batch << " x " << s.channels
                                    << " x " << s.plane);
    std::vector<float> x(static_cast<std::size_t>(s.batch) * s.channels *
                         s.plane);
    for (std::size_t i = 0; i < x.size(); ++i) {
      x[i] = i % 97 < 5 ? specials[i % 97]
                        : static_cast<float>(rng.normal(0.0, 3.0));
    }
    std::vector<std::int16_t> want(x.size());
    quantize_i16(x.data(), want.data(), x.size(), 12);
    const int pairs = (s.channels + 1) / 2;
    std::vector<odenet::core::I16Pair> got(
        static_cast<std::size_t>(s.batch) * pairs * s.plane,
        odenet::core::I16Pair{7, 7});
    quantize_i16_pairs(x.data(), s.batch, s.channels, s.plane, got.data(),
                       12);
    for (int n = 0; n < s.batch; ++n) {
      for (int c = 0; c < 2 * pairs; ++c) {
        for (std::size_t px = 0; px < s.plane; ++px) {
          const odenet::core::I16Pair& p =
              got[(static_cast<std::size_t>(n) * pairs + c / 2) * s.plane +
                  px];
          const std::int16_t lane = c % 2 == 0 ? p.lo : p.hi;
          const std::int16_t expect =
              c < s.channels
                  ? want[(static_cast<std::size_t>(n) * s.channels + c) *
                             s.plane +
                         px]
                  : std::int16_t{0};
          ASSERT_EQ(lane, expect)
              << "sample " << n << " channel " << c << " pixel " << px;
        }
      }
    }
  }
}
