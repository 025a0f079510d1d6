// Quantization between float tensors and raw fixed-point buffers, plus the
// error statistics the bit-width ablation reports.
#pragma once

#include <cstdint>
#include <vector>

#include "core/tensor.hpp"
#include "fixed/qformat.hpp"

namespace odenet::fixed {

/// Raw Q-format buffer with shape metadata. The FPGA engines operate on
/// int32 raw words regardless of the logical format; `frac_bits` records
/// the binary point.
struct FixedTensor {
  std::vector<int> shape;
  std::vector<std::int32_t> raw;
  int frac_bits = 20;

  std::size_t numel() const { return raw.size(); }
};

/// Quantizes a float tensor to the given fractional precision (saturating).
FixedTensor quantize(const core::Tensor& t, int frac_bits = 20);

/// quantize() over `n` floats into a caller-owned raw buffer.
void quantize(const float* src, std::int32_t* dst, std::size_t n,
              int frac_bits);

/// Back to float.
core::Tensor dequantize(const FixedTensor& t);

/// dequantize() of `n` Q(frac_bits) raws into a caller-owned buffer.
void dequantize(const std::int32_t* src, float* dst, std::size_t n,
                int frac_bits);

/// One value through the saturating Q(frac_bits) round trip.
float qdq_value(float v, int frac_bits);

/// Saturating quantize/dequantize round trip in place — the boundary-point
/// requantization of the fixed path (BN outputs, Euler updates, and
/// anywhere else a float buffer must be snapped to the Q grid without an
/// allocation). Runs through the dispatched SIMD kernel table and
/// thread-splits large tensors; bitwise identical to
/// dequantize(quantize(t)) for any ISA and worker count. NaN -> 0, ±inf
/// and out-of-range magnitudes saturate.
void qdq_inplace(core::Tensor& t, int frac_bits);

/// Saturating quantize of `n` floats to int16 raw values at Q(frac_bits)
/// (frac_bits in [1, 15]) — the activation-side entry into the integer
/// GEMM. Same rounding/NaN/saturation semantics as qdq_inplace, bounds
/// ±int16. SIMD-dispatched and thread-split like qdq_inplace.
void quantize_i16(const float* src, std::int16_t* dst, std::size_t n,
                  int frac_bits);

/// Largest |src[i]| over `n` floats (0 for n == 0) — the activation-range
/// scan that picks the integer path's per-call scale. SIMD-dispatched and
/// thread-split; exact float max is associative, so the result is bitwise
/// identical for any ISA or worker count.
float max_abs(const float* src, std::size_t n);

/// Requantizes int32 integer-GEMM accumulators (at frac_bits_in =
/// out_frac_bits + shift) down to the Q(out_frac_bits) grid, dequantized
/// to float: r = round-half-away-from-zero(acc >> shift) — bit-exactly the
/// Fixed::operator* rounding stage — then dst = r * 2^-out_frac_bits
/// (exact in double). shift must be >= 0.
void requantize_i32(const std::int32_t* acc, float* dst, std::size_t n,
                    int shift, int out_frac_bits);

struct QuantizationError {
  double max_abs_error = 0.0;
  double mean_abs_error = 0.0;
  double rmse = 0.0;
  /// Signal-to-quantization-noise ratio in dB: +inf when the round trip
  /// is exact on a non-zero signal; 0 when BOTH signal and noise are zero
  /// (empty or all-zero tensor — no information, so "infinitely good" is
  /// the wrong report).
  double snr_db = 0.0;
  /// Elements clipped by saturation.
  std::size_t saturated = 0;
};

/// Round-trip error of quantizing `t` at `frac_bits` (32-bit storage).
QuantizationError measure_quantization(const core::Tensor& t, int frac_bits);

}  // namespace odenet::fixed
