// Pluggable stage-execution backends.
//
// A StageExecutor runs one network stage over a batch; a StagePlan maps
// each stage to the executor that should run it. Network::forward_stages
// is the single dispatch loop — the float software path, the fixed-point
// path and the simulated PL (sched/fpga_executor.hpp) all route through
// it, differing only in the plan they pass.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "core/execution.hpp"
#include "models/stage.hpp"

namespace odenet::models {

class StageExecutor {
 public:
  virtual ~StageExecutor() = default;

  virtual const std::string& name() const = 0;
  virtual core::ExecBackend backend() const = 0;

  /// Runs one stage over a batch: x [N,C,S,S] -> [N,C',S',S']. The stage
  /// must be non-empty. When `stats` is non-null the executor records what
  /// the run cost (measured or modeled, see each implementation).
  virtual core::Tensor run(Stage& stage, const core::Tensor& x,
                           core::StageRunStats* stats) = 0;
};

/// Float32 reference backend: delegates to Stage::forward (the training
/// path — forward caches survive for Network::backward). `seconds` is
/// measured wall clock.
class FloatStageExecutor final : public StageExecutor {
 public:
  const std::string& name() const override { return name_; }
  core::ExecBackend backend() const override {
    return core::ExecBackend::kFloat;
  }
  core::Tensor run(Stage& stage, const core::Tensor& x,
                   core::StageRunStats* stats) override;

 private:
  std::string name_ = "float_cpu";
};

/// Q-format fixed-point CPU backend: quantizes the weights AND saturates
/// every stage-internal feature map to Qx.frac_bits. Its convolutions are
/// a true INTEGER datapath (the behaviour of a DSP-block MAC array with a
/// wide accumulator followed by a rounding stage): activations quantize
/// once into int16 at a per-call dynamic precision (the finest grid that
/// cannot saturate the observed range), the whole micro-batch lowers into
/// one int16 column matrix, one packed integer GEMM accumulates into
/// int32, and a single shift-based requantization (round half away from
/// zero, the Fixed::operator* semantics) lands the output back on the
/// Q(frac_bits) grid. Per-conv weight scales keep the int32 accumulators
/// overflow-free. A conv (or a single call) whose weights or activation
/// range cannot satisfy that envelope at the requested frac_bits falls
/// back to the float carrier for that call — Q-grid float operands, one
/// float GEMM, a post-GEMM elementwise requantize — counted by
/// float_carrier_calls(). The quantized packed weights live on each conv
/// (Conv2d::fixed_pack()), beside its float pack and under the same
/// version rule, keyed also by frac_bits: serving steady state
/// requantizes + packs each layer once per hot-swap, and a replica's packs
/// go with the replica. The executor keeps no per-layer state. ODE stages
/// integrate with explicit Euler steps, mirroring the hardware solver,
/// regardless of the stage's configured software solver.
class FixedStageExecutor final : public StageExecutor {
 public:
  explicit FixedStageExecutor(int frac_bits = 20);

  const std::string& name() const override { return name_; }
  core::ExecBackend backend() const override {
    return core::ExecBackend::kFixed;
  }
  core::Tensor run(Stage& stage, const core::Tensor& x,
                   core::StageRunStats* stats) override;

  int frac_bits() const { return frac_bits_; }

  /// Times this executor quantized + packed a conv's weights.
  std::uint64_t weight_packs() const { return weight_packs_; }

  /// Conv calls that fell back to the float carrier because the int16
  /// envelope could not hold them (weights or activation range).
  std::uint64_t float_carrier_calls() const { return float_carrier_calls_; }

  /// Most fractional bits a conv call's int16 activations may carry. The
  /// actual per-call precision fa is dynamic: the largest fa <= this cap
  /// with max|x| * 2^fa saturation-free, so ODE stages whose Euler sweeps
  /// grow activations past +-8 keep full int16 range instead of clipping.
  static constexpr int kActFracMax = 15;
  /// Most fractional bits a conv's int16 weights may carry.
  static constexpr int kWeightFracMax = 13;

 private:
  /// One building block in fixed-point arithmetic: conv -> requantize ->
  /// BN -> requantize -> ReLU -> conv -> requantize -> BN -> requantize,
  /// plus (unless branch_only) the option-A shortcut and a final
  /// requantize — each op reading/writing Q-grid activations like the
  /// staged PL datapath.
  core::Tensor run_block(core::BuildingBlock& block, const core::Tensor& x,
                         float t, bool branch_only);
  /// One convolution through the int16 lowering, or its float-carrier
  /// fallback.
  core::Tensor fixed_conv(core::Conv2d& conv, const core::Tensor& x, float t);
  /// The conv's fixed pack at this executor's frac_bits, rebuilt unless
  /// the conv's weight version and frac_bits both match it.
  const core::FixedPackedWeights& packed_weights(core::Conv2d& conv);

  std::string name_;
  int frac_bits_;
  std::uint64_t weight_packs_ = 0;
  std::uint64_t float_carrier_calls_ = 0;
  // Recycled integer scratch for the int16 conv path (the float path
  // draws from the conv's ScratchArena; these are the executor-owned
  // int16/int32 twins, grown once to the high-water mark).
  std::vector<std::int16_t> i16_scratch_;
  std::vector<std::int32_t> acc_scratch_;
};

/// Stage -> executor routing with a default fallback. Executors are not
/// owned; they must outlive the plan. A default-constructed plan routes
/// everything to the caller's fallback (Network keeps a built-in float
/// executor for exactly that).
class StagePlan {
 public:
  StagePlan() = default;
  explicit StagePlan(StageExecutor* default_executor)
      : default_(default_executor) {}

  StagePlan& assign(StageId id, StageExecutor* executor) {
    overrides_[id] = executor;
    return *this;
  }

  /// The executor for this stage: the per-stage override, else the plan
  /// default, else nullptr (caller falls back to its own executor).
  StageExecutor* executor_for(StageId id) const {
    auto it = overrides_.find(id);
    if (it != overrides_.end()) return it->second;
    return default_;
  }

 private:
  StageExecutor* default_ = nullptr;
  std::map<StageId, StageExecutor*> overrides_;
};

/// Per-stage record of one routed forward pass.
struct StageRun {
  StageId id{};
  core::StageRunStats stats;
};

struct NetworkRunStats {
  std::vector<StageRun> stages;

  double stage_seconds() const;
  std::uint64_t pl_cycles() const;
};

}  // namespace odenet::models
