// PL convolution engine: 3x3, stride 1, pad 1, fixed-point, with the
// conv_xn output-channel parallelism of §3.1.
//
// Functional semantics match core::Conv2d bit-for-bit at the Q-format
// resolution: activations and weights are Q(frac_bits) raws, products
// accumulate in a wide (DSP48-cascade-like) accumulator, and a single
// rounding happens at writeback.
//
// The host runs that function as one GEMM on the exact int32 x int32 ->
// int64 tile (core::GemmKernels::tile4x8_i32): weights packed once into
// row panels at load, each run's input lowered (im2col) into column
// panels. Products are exact and integer sums associative, so the result
// is bitwise that of the per-pixel MAC loop on any ISA.
//
// The constant time plane of ODE-capable blocks is folded into a
// precomputed per-position bias (a constant input plane contributes an
// affine term); this costs no MAC beats, which is required to reproduce
// the published cycle counts (DESIGN.md §3.2).
#pragma once

#include <cstdint>
#include <optional>

#include "fixed/fixed_tensor.hpp"
#include "fpga/mac_array.hpp"

namespace odenet::fpga {

struct ConvEngineConfig {
  int in_channels = 0;   // data channels (excluding any time channel)
  int out_channels = 0;
  int extent = 0;        // H == W
  int parallelism = 16;  // conv_xn
  int frac_bits = 20;
};

class ConvEngine {
 public:
  explicit ConvEngine(const ConvEngineConfig& cfg);

  /// Loads quantized weights. Accepts [Cout, Cin, 3, 3] (no time channel)
  /// or [Cout, Cin+1, 3, 3] (last input plane = time weights, folded into
  /// the bias).
  void load_weights(const fixed::FixedTensor& weights);

  /// Whether loaded weights carry a time plane.
  bool has_time_weights() const { return has_time_weights_; }

  /// Runs one convolution over a [C,H,W] (or [1,C,H,W]) raw fmap; `t` is
  /// the integration time used for the bias fold. Returns the [Cout,H,W]
  /// raw output and adds the engine cycles to *cycles if given.
  fixed::FixedTensor run(const fixed::FixedTensor& input, float t,
                         std::uint64_t* cycles = nullptr) const;

  /// Cycle count of one run (independent of data).
  std::uint64_t cycles_per_run() const;

  /// Static model used by the latency planner:
  /// ceil(Cout/n) * H * W * Cin * 9 * kCyclesPerMacBeat.
  static std::uint64_t conv_cycles(int out_channels, int in_channels,
                                   int extent, int parallelism);

  const ConvEngineConfig& config() const { return cfg_; }

 private:
  ConvEngineConfig cfg_;
  MacArray macs_;
  /// Data weights [Cout, Cin*9] as ceil(Cout/4) row panels of [Cin*9][4]
  /// raws (the GEMM tile's A operand), phantom rows zero.
  std::vector<std::int32_t> weight_panels_;
  /// Time plane per (out channel, position): the sum of the time-kernel
  /// taps whose input position is in bounds, [Cout, H*W]. Empty without
  /// time weights. t_raw * sum == the sum of t_raw * tap, exactly.
  std::vector<std::int64_t> time_tap_sums_;
  bool has_time_weights_ = false;
};

}  // namespace odenet::fpga
