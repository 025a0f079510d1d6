// The ODEBlock accelerator (paper Figure 3): the five-step layer pipeline
// conv -> BN(+ReLU) -> conv -> BN on the PL part, plus the Euler update.
//
// This is a functional-and-timed simulator: it executes the same Q-format
// arithmetic the Verilog datapath performs (so outputs can be compared
// against the float software path) and counts cycles with the calibrated
// microarchitectural model (so latencies can be compared against Table 5).
//
// The functional model works in the three raw buffers of the BRAM plan,
// fmap.in, fmap.mid and fmap.out, allocated once at construction: conv1
// reads fmap.in into fmap.mid, BN1 writes fmap.out, conv2 writes
// fmap.mid, and BN2 writes fmap.out — or, in an Euler solve, applies
// z += h*f on its writeback adder straight into the state in fmap.in.
// Once warm, a solve allocates nothing but the tensor it returns, and the
// raw-pointer solve_euler nothing at all.
#pragma once

#include <cstdint>
#include <vector>

#include "core/block.hpp"
#include "fpga/axi.hpp"
#include "fpga/bn_engine.hpp"
#include "fpga/bram.hpp"
#include "fpga/conv_engine.hpp"

namespace odenet::fpga {

struct CycleBreakdown {
  std::uint64_t conv1 = 0;
  std::uint64_t bn1 = 0;
  std::uint64_t conv2 = 0;
  std::uint64_t bn2 = 0;
  std::uint64_t total() const { return conv1 + bn1 + conv2 + bn2; }
};

struct AcceleratorReport {
  CycleBreakdown per_execution;
  std::uint64_t transfer_cycles_per_execution = 0;
  int executions = 0;
  double clock_mhz = 100.0;

  std::uint64_t compute_cycles() const {
    return per_execution.total() * static_cast<std::uint64_t>(executions);
  }
  std::uint64_t total_cycles() const {
    return compute_cycles() + transfer_cycles_per_execution *
                                  static_cast<std::uint64_t>(executions);
  }
  double seconds() const {
    return static_cast<double>(total_cycles()) / (clock_mhz * 1e6);
  }
};

class OdeBlockAccelerator {
 public:
  struct Config {
    int channels = 0;
    int extent = 0;        // feature map H == W
    int parallelism = 16;  // conv_xn
    int frac_bits = 20;
    double clock_mhz = 100.0;
    AxiConfig axi{};
    /// Reject configurations that fail timing closure (paper: conv_x32).
    bool enforce_timing = true;
  };

  explicit OdeBlockAccelerator(const Config& cfg,
                               const FpgaDevice& device = xc7z020());

  /// Quantizes and loads the block's weights (conv1/bn1/conv2/bn2) into
  /// the simulated BRAM. The block may be time-augmented or plain.
  void load_weights(core::BuildingBlock& block);

  /// One dynamics evaluation f(z, t) on the PL. z: [1,C,H,W] or [C,H,W]
  /// float; returns float (the AXI boundary dequantizes).
  core::Tensor eval_branch(const core::Tensor& z, float t,
                           CycleBreakdown* cycles = nullptr);

  /// Full on-PL Euler solve: M steps with step size h (the residual update
  /// z += h*f rides the BN2 writeback adder). The report charges one fmap
  /// round-trip per execution, matching the paper's accounting.
  core::Tensor solve_euler(const core::Tensor& z0, int steps, float h,
                           AcceleratorReport* report = nullptr);

  /// solve_euler() on one [C,H,W] float image at `z0`, written to `z1`
  /// (which may alias `z0`): quantized straight into fmap.in and
  /// dequantized straight out of it.
  void solve_euler(const float* z0, int steps, float h, float* z1,
                   AcceleratorReport* report = nullptr);

  /// Cycle cost of one f(z,t) evaluation (data independent).
  CycleBreakdown cycles_per_execution() const;
  /// One fmap in + one fmap out over AXI.
  std::uint64_t transfer_cycles_per_execution() const;

  /// BRAM demand of this configuration (weights + three fmap buffers).
  const BramAllocator& bram() const { return bram_; }

  const Config& config() const { return cfg_; }

 private:
  /// conv1 -> BN1(+ReLU) -> conv2 -> BN2 on fmap.in at time t. BN2 writes
  /// f to fmap.out, or with euler_h adds h*f into fmap.in.
  void branch(float t, const fixed::Q20* euler_h);
  /// Checks a [C,H,W] or [1,C,H,W] fmap against the configuration.
  void check_fmap(const core::Tensor& z) const;
  std::size_t fmap_words() const { return fmap_in_.size(); }

  Config cfg_;
  ConvEngine conv1_;
  BnEngine bn1_;
  ConvEngine conv2_;
  BnEngine bn2_;
  BramAllocator bram_;
  std::vector<std::int32_t> fmap_in_, fmap_mid_, fmap_out_;
  bool weights_loaded_ = false;
};

}  // namespace odenet::fpga
