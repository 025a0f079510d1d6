// PL batch-normalization engine (§3.1: "multiply-add units, division unit,
// and square root unit are used in the batch normalization steps for
// computing mean, variance, and standard deviation").
//
// Cycle model: three streaming passes over the feature map per BN step:
//   1. mean pass       (5 cycles/element: read + accumulate)
//   2. variance pass   (7 cycles/element: read, subtract, square, accumulate)
//   3. normalize pass  (8 cycles/element: read, subtract, two multiplies,
//                       add, write; the optional fused ReLU and the residual
//                       accumulate ride the same writeback stage for free)
// plus a per-channel constant for the sequential sqrt and divide units
// (partially hidden under the next channel's streaming; the visible cost is
// kPerChannelCycles). The division computes inv_std once per channel so the
// per-element work is multiply-only — the shape that makes the published
// layer3_2 fixed part (~0.165 Mcycles) come out.
//
// Functional model: the same values from two host passes per channel.
//   1. statistics: Σx (int64) and Σx² (unsigned 128-bit) together. The
//      hardware's variance pass sums (x - m)² at Q(2F), saturating at
//      INT64_MAX; here Σ(x - m)² = Σx² - 2mΣx + n·m² is derived exactly in
//      128-bit integers and clamped to INT64_MAX. Every term of the
//      hardware's running sum is non-negative, so that sum saturates to
//      exactly min(exact total, INT64_MAX): the result is bit for bit the
//      same.
//   2. normalize: ((x - mean) * inv_std) * gamma + beta with branch-free
//      round-half-away-from-zero products, the optional ReLU, saturation
//      to int32 and, for BN2 of an Euler step, the update z += h*y on the
//      writeback adder (Q20 operators), so no separate Euler pass runs.
// The mean uses an exact power-of-two shift when H*W allows (all paper
// fmaps are powers of two), sqrt/divide use the bit-serial integer units
// in fixed/fixed_math.hpp.
#pragma once

#include <cstdint>

#include "fixed/fixed_tensor.hpp"

namespace odenet::fpga {

inline constexpr std::uint64_t kBnMeanPassCyclesPerElem = 5;
inline constexpr std::uint64_t kBnVarPassCyclesPerElem = 7;
inline constexpr std::uint64_t kBnNormPassCyclesPerElem = 8;
inline constexpr std::uint64_t kBnCyclesPerElem =
    kBnMeanPassCyclesPerElem + kBnVarPassCyclesPerElem +
    kBnNormPassCyclesPerElem;
/// Visible sqrt+divide cost per channel (see file comment).
inline constexpr std::uint64_t kPerChannelCycles = 40;

struct BnEngineConfig {
  int channels = 0;
  int extent = 0;  // H == W
  int frac_bits = 20;
  /// Fuse max(0, x) into the normalize writeback (used after BN1).
  bool fused_relu = false;
  /// Variance epsilon in float units (quantized internally).
  float eps = 1e-5f;
};

class BnEngine {
 public:
  explicit BnEngine(const BnEngineConfig& cfg);

  /// Loads quantized gamma/beta ([C] each).
  void load_params(const fixed::FixedTensor& gamma,
                   const fixed::FixedTensor& beta);

  /// Normalizes the [C,H,W] raws at `in` with statistics computed from
  /// them (the hardware has no running statistics) and writes the result
  /// to `out`. With `euler_h`, the writeback adder instead applies the
  /// Euler update out[i] = out[i] + h * y[i] in Q20 operators, `out`
  /// holding the state z. Elementwise after the statistics, so `out` may
  /// alias `in`. Allocates nothing.
  void run(const std::int32_t* in, std::int32_t* out,
           const fixed::Q20* euler_h = nullptr) const;

  /// run() on a [C,H,W] raw fmap into a new tensor; adds cycles if given.
  fixed::FixedTensor run(const fixed::FixedTensor& input,
                         std::uint64_t* cycles = nullptr) const;

  std::uint64_t cycles_per_run() const;

  /// Static model for the latency planner.
  static std::uint64_t bn_cycles(int channels, int extent);

 private:
  BnEngineConfig cfg_;
  std::vector<std::int32_t> gamma_;
  std::vector<std::int32_t> beta_;
};

}  // namespace odenet::fpga
