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
// row panels at load; per run, each [Cin*9][8] column panel is filled
// straight from the feature map and swept by every row panel before the
// next is filled. A panel row (channel, tap) is one 8-wide copy of the
// tap-shifted image row with its out-of-image columns zeroed; a tile
// whose 8 columns straddle image rows (extents that are not a multiple
// of 8) takes a masked gather instead. Each finished 4x8 tile gets its
// time-plane bias, rounding and saturation in the one pass that stores
// it. Products are exact and integer sums associative, so the result is
// bitwise that of the per-pixel MAC loop on any ISA.
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

  /// Runs one convolution from the [Cin,H,W] raws at `in` into the
  /// [Cout,H,W] raws at `out` (the two must not overlap); `t` is the
  /// integration time used for the bias fold. Allocates nothing once the
  /// calling thread has run an engine of this size.
  void run(const std::int32_t* in, float t, std::int32_t* out) const;

  /// run() on a [C,H,W] (or [1,C,H,W]) raw fmap into a new [Cout,H,W]
  /// tensor; adds the engine cycles to *cycles if given.
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
  /// How one tap fills its rows of one column panel, for every channel.
  /// Copy (gather < 0): columns [lo, hi) read the channel plane from
  /// offset src on, the rest are zero (lo == hi: all zero). Gather: the
  /// eight plane offsets at gather_[gather], -1 reading zero.
  struct TapRow {
    int src = 0;
    int lo = 0, hi = 0;
    int gather = -1;
  };

  /// Fills column panel jt ([Cin*9][8]) from the feature map at `in`.
  void fill_panel(const std::int32_t* in, int jt,
                  std::int32_t* panel) const;

  ConvEngineConfig cfg_;
  MacArray macs_;
  /// Data weights [Cout, Cin*9] as ceil(Cout/4) row panels of [Cin*9][4]
  /// raws (the GEMM tile's A operand), phantom rows zero.
  std::vector<std::int32_t> weight_panels_;
  /// Time plane per (out channel, position): the sum of the time-kernel
  /// taps whose input position is in bounds, [Cout, H*W]. Empty without
  /// time weights. t_raw * sum == the sum of t_raw * tap, exactly.
  std::vector<std::int64_t> time_tap_sums_;
  /// Panel-fill plan, [column tile][tap]; fixed by the extent.
  std::vector<TapRow> tap_rows_;
  std::vector<int> gather_;
  bool has_time_weights_ = false;
};

}  // namespace odenet::fpga
