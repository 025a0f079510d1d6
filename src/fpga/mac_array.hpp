// Multiply-add unit array (the paper's conv_xn scaling knob, §3.1).
//
// One MAC beat on the unpipelined Verilog datapath takes five cycles:
// read activation, read weight, multiply, accumulate, write back. With n
// units the convolution parallelizes across output channels (capped at
// Cout), so execution cycles shrink by ceil(Cout/n)/Cout — the published
// layer3_2 series 23.78/6.07/3.12/1.64/0.90 Mcycles for n=1/4/8/16/32
// falls out of exactly this model plus the BN fixed part.
//
// Functionally a MAC unit multiplies two Q-format raws into a 48-bit-style
// wide accumulator (modeled as int64) — precision loss only happens at the
// final writeback rounding, like a DSP48 cascade. The products and sums
// themselves run on the exact int32 x int32 -> int64 GEMM tile
// (core/gemm_kernels.hpp, see ConvEngine::run); only timing and the
// writeback live here. The writeback is inline: ConvEngine applies it to
// every element of each 4x8 tile, together with the time-plane bias, in
// the one pass that stores the tile.
#pragma once

#include <cstdint>
#include <limits>

#include "util/check.hpp"

namespace odenet::fpga {

/// Cycles per multiply-accumulate beat (see file comment).
inline constexpr std::uint64_t kCyclesPerMacBeat = 5;

/// DSP48 slices consumed: 4 per 32x32-bit MAC unit plus 4 shared by the BN
/// multiplier path (matches every Table-3 point: DSP = 4n + 4).
int dsp_for_parallelism(int parallelism);

class MacArray {
 public:
  explicit MacArray(int units);

  int units() const { return units_; }

  /// Cycles to issue `beats` MAC operations over `channels` output channels:
  /// channel groups execute sequentially, channels inside a group in
  /// lockstep across units. `beats` counts per-channel MACs.
  std::uint64_t cycles(std::uint64_t beats_per_channel, int channels) const;

  /// Rounding writeback: wide Q(2F) accumulator -> saturated Q(F) raw,
  /// rounding half away from zero. Defined for every int64 accumulator.
  static std::int32_t writeback(std::int64_t acc, int frac_bits) {
    // Round half away from zero on the magnitude, (|acc| + half) >> F,
    // then cap the magnitude at INT32_MAX (2^31 for a negative result) and
    // restore the sign. Branch-free; |acc| <= 2^63 and half < 2^30, so in
    // uint64 nothing overflows, INT64_MIN and the rails included.
    const auto sign = static_cast<std::uint64_t>(acc >> 63);  // ~0 if < 0
    const std::uint64_t mag = (static_cast<std::uint64_t>(acc) ^ sign) - sign;
    const std::uint64_t rounded =
        (mag + (std::uint64_t{1} << (frac_bits - 1))) >> frac_bits;
    constexpr std::uint64_t kMaxMag =
        static_cast<std::uint64_t>(std::numeric_limits<std::int32_t>::max());
    const std::uint64_t cap = kMaxMag - sign;  // kMaxMag + 1 when negative
    const std::uint64_t sat = rounded < cap ? rounded : cap;
    return static_cast<std::int32_t>(
        static_cast<std::uint32_t>((sat ^ sign) - sign));
  }

 private:
  int units_;
};

}  // namespace odenet::fpga
