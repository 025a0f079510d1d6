#include "fixed/fixed_tensor.hpp"

#include <algorithm>
#include <cmath>

#include "core/gemm_kernels.hpp"
#include "util/thread_pool.hpp"

namespace odenet::fixed {

namespace {

std::int32_t quantize_value(float v, int frac_bits, bool* saturated) {
  const double one = static_cast<double>(std::int64_t{1} << frac_bits);
  const double scaled = static_cast<double>(v) * one;
  if (scaled != scaled) return 0;  // NaN quantizes to 0 (documented)
  const double rounded = scaled >= 0.0 ? scaled + 0.5 : scaled - 0.5;
  // Saturate in the DOUBLE domain before any integer conversion: casting
  // an out-of-range double (±huge, ±inf) to an integer type is UB. Both
  // bounds are exactly representable doubles.
  if (rounded >= 2147483648.0) {
    if (saturated) *saturated = true;
    return std::numeric_limits<std::int32_t>::max();
  }
  if (rounded <= -2147483649.0) {
    if (saturated) *saturated = true;
    return std::numeric_limits<std::int32_t>::min();
  }
  return static_cast<std::int32_t>(rounded);
}

/// Chunk size for parallel_chunks / max_abs — boundaries depend only on
/// n, never on the worker count.
constexpr std::size_t kChunk = std::size_t{1} << 15;

/// Splits an elementwise kernel over the shared GEMM thread pool in
/// fixed-size chunks. Chunk boundaries depend only on n, and the kernels
/// are strictly elementwise, so the result is bitwise invariant for any
/// worker count. Small spans stay on the calling thread.
template <typename Fn>
void parallel_chunks(std::size_t n, Fn&& fn) {
  util::ThreadPool& pool = core::kernel_pool();
  if (n < 2 * kChunk || pool.worker_count() <= 1) {
    if (n > 0) fn(std::size_t{0}, n);
    return;
  }
  const std::size_t chunks = (n + kChunk - 1) / kChunk;
  util::parallel_for(pool, 0, chunks, [&](std::size_t ci) {
    const std::size_t lo = ci * kChunk;
    fn(lo, std::min(kChunk, n - lo));
  });
}

}  // namespace

FixedTensor quantize(const core::Tensor& t, int frac_bits) {
  FixedTensor out;
  out.shape = t.shape();
  out.frac_bits = frac_bits;
  out.raw.resize(t.numel());
  quantize(t.data(), out.raw.data(), t.numel(), frac_bits);
  return out;
}

void quantize(const float* src, std::int32_t* dst, std::size_t n,
              int frac_bits) {
  ODENET_CHECK(frac_bits > 0 && frac_bits < 31, "bad frac_bits " << frac_bits);
  for (std::size_t i = 0; i < n; ++i) {
    dst[i] = quantize_value(src[i], frac_bits, nullptr);
  }
}

float qdq_value(float v, int frac_bits) {
  const double inv = 1.0 / static_cast<double>(std::int64_t{1} << frac_bits);
  return static_cast<float>(quantize_value(v, frac_bits, nullptr) * inv);
}

void qdq_inplace(core::Tensor& t, int frac_bits) {
  ODENET_CHECK(frac_bits > 0 && frac_bits < 31, "bad frac_bits " << frac_bits);
  // The elementwise round trip runs through the dispatched kernel table
  // (AVX2 when usable) and thread-splits large tensors; every variant is
  // bitwise identical to qdq_value per element.
  const auto fn = core::active_gemm_kernels().qdq_f32;
  float* data = t.data();
  parallel_chunks(t.numel(), [&](std::size_t lo, std::size_t len) {
    fn(data + lo, len, frac_bits);
  });
}

void quantize_i16(const float* src, std::int16_t* dst, std::size_t n,
                  int frac_bits) {
  ODENET_CHECK(frac_bits > 0 && frac_bits < 16, "bad frac_bits " << frac_bits);
  const auto fn = core::active_gemm_kernels().quant_f32_i16;
  parallel_chunks(n, [&](std::size_t lo, std::size_t len) {
    fn(src + lo, dst + lo, len, frac_bits);
  });
}

void requantize_i32(const std::int32_t* acc, float* dst, std::size_t n,
                    int shift, int out_frac_bits) {
  ODENET_CHECK(shift >= 0 && shift < 32, "bad requantize shift " << shift);
  ODENET_CHECK(out_frac_bits > 0 && out_frac_bits < 31,
               "bad frac_bits " << out_frac_bits);
  // One rounding shift per accumulator (Fixed::operator* semantics),
  // through the dispatched kernel table — the AVX2 variant is bitwise
  // equal to the int64 scalar (both land exactly on the Q grid).
  const auto fn = core::active_gemm_kernels().requant_i32;
  parallel_chunks(n, [&](std::size_t lo, std::size_t len) {
    fn(acc + lo, dst + lo, len, shift, out_frac_bits);
  });
}

float max_abs(const float* src, std::size_t n) {
  // Exact float max is associative and commutative, so the chunked
  // reduction below is bitwise invariant for any worker count, chunk
  // split, or ISA (the dispatched kernel's doc guarantees the same).
  const auto fn = core::active_gemm_kernels().max_abs_f32;
  if (n == 0) return 0.0f;
  const std::size_t chunks = (n + kChunk - 1) / kChunk;
  if (chunks == 1) return fn(src, n);
  std::vector<float> partials(chunks, 0.0f);
  parallel_chunks(n, [&](std::size_t lo, std::size_t len) {
    partials[lo / kChunk] = fn(src + lo, len);
  });
  float best = 0.0f;
  for (float v : partials) best = std::max(best, v);
  return best;
}

core::Tensor dequantize(const FixedTensor& t) {
  core::Tensor out(t.shape);
  dequantize(t.raw.data(), out.data(), t.raw.size(), t.frac_bits);
  return out;
}

void dequantize(const std::int32_t* src, float* dst, std::size_t n,
                int frac_bits) {
  const double inv = 1.0 / static_cast<double>(std::int64_t{1} << frac_bits);
  for (std::size_t i = 0; i < n; ++i) dst[i] = static_cast<float>(src[i] * inv);
}

QuantizationError measure_quantization(const core::Tensor& t, int frac_bits) {
  QuantizationError err;
  const double inv = 1.0 / static_cast<double>(std::int64_t{1} << frac_bits);
  double sq_signal = 0.0, sq_noise = 0.0, abs_sum = 0.0;
  for (std::size_t i = 0; i < t.numel(); ++i) {
    bool sat = false;
    const std::int32_t q = quantize_value(t.data()[i], frac_bits, &sat);
    if (sat) ++err.saturated;
    const double back = q * inv;
    const double e = back - static_cast<double>(t.data()[i]);
    err.max_abs_error = std::max(err.max_abs_error, std::fabs(e));
    abs_sum += std::fabs(e);
    sq_noise += e * e;
    sq_signal += static_cast<double>(t.data()[i]) * t.data()[i];
  }
  const auto n = static_cast<double>(t.numel());
  err.mean_abs_error = n > 0 ? abs_sum / n : 0.0;
  err.rmse = n > 0 ? std::sqrt(sq_noise / n) : 0.0;
  if (sq_noise > 0.0) {
    err.snr_db = 10.0 * std::log10(sq_signal / sq_noise);
  } else {
    // Exact round trip. +inf dB is only meaningful when there was signal;
    // an all-zero (or empty) tensor carries no information, so its SNR is
    // reported as 0 dB instead of the former spurious +inf.
    err.snr_db = sq_signal > 0.0 ? std::numeric_limits<double>::infinity()
                                 : 0.0;
  }
  return err;
}

}  // namespace odenet::fixed
