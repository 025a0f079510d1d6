// The paper's building block (Figure 1): conv3x3 -> BN -> ReLU -> conv3x3
// -> BN, plus a shortcut connection.
//
// Two views of the same object:
//  * As a plain ResNet block: forward(x) = branch(x) + shortcut(x).
//  * As ODE dynamics (Eq. 2): f(z, t) = branch(z, t); the ODE solver applies
//    the "+ z" itself (one Euler step with h=1 is exactly one ResNet block,
//    the paper's core observation in §2.3).
//
// The shortcut is parameter-free (He et al. "option A"): identity for
// stride-1 blocks; for the stride-2 transition blocks (layer2_1/layer3_1)
// it spatially subsamples and zero-pads the new channels. This matches the
// paper's Table-2 parameter accounting, which contains no 1x1 projection.
#pragma once

#include <memory>

#include "core/activation.hpp"
#include "core/batchnorm.hpp"
#include "core/conv2d.hpp"

namespace odenet::core {

struct BlockConfig {
  int in_channels = 0;
  int out_channels = 0;
  int stride = 1;
  /// ODE-capable blocks concatenate t as an input plane to both convs.
  bool time_channel = false;
};

class BuildingBlock final : public Layer {
 public:
  BuildingBlock(const BlockConfig& cfg, std::string name = "block");

  const std::string& name() const override { return name_; }

  /// ResNet semantics: branch(x) + shortcut(x). Uses the time value set by
  /// set_time() (irrelevant for blocks without a time channel).
  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  void release_cache() override;

  /// ODE dynamics f(z, t): the residual branch only.
  Tensor branch_forward(const Tensor& z, float t);
  /// Backward through the branch of the most recent branch_forward().
  Tensor branch_backward(const Tensor& grad_out);

  /// The layer caches of one training branch evaluation — everything
  /// branch_backward() reads: conv1's and conv2's inputs and t, both BNs'
  /// inputs and batch statistics, and the ReLU mask.
  struct BranchCaches {
    Conv2d::Cache conv1;
    BatchNorm2d::Cache bn1;
    ReLU::Cache relu;
    Conv2d::Cache conv2;
    BatchNorm2d::Cache bn2;

    /// Elements of every cached tensor.
    std::size_t floats() const;
  };
  /// Exchanges the branch's layer caches with `c` (moves, no copy). An ODE
  /// block keeps one BranchCaches per recorded evaluation and swaps it in
  /// around that evaluation's branch_forward() and branch_backward().
  void swap_branch_caches(BranchCaches& c);

  /// True when the fused inference path may run: eval mode and both BNs
  /// foldable to a fixed affine (not batch-statistics eval).
  bool fused_eval_ready() const;

  /// Fused branch evaluation: conv1+bn1+relu is ONE GEMM, conv2+bn2 is
  /// ONE GEMM, with alpha (the solver step size) folded into the bn2
  /// coefficients so `out (+)= alpha * f(z, t)` costs no extra pass.
  /// accumulate = false overwrites `out` (reallocated on shape mismatch);
  /// accumulate = true adds into it — `out` may alias `z` (the in-place
  /// Euler update). Caller must ensure fused_eval_ready().
  void fused_branch_eval(const Tensor& z, float t, float alpha, Tensor& out,
                         bool accumulate);

  /// One in-place Euler step z += h * f(z, t) — two GEMMs, one state
  /// write, no allocation after warmup.
  void fused_euler_step(Tensor& z, float t, float h) {
    fused_branch_eval(z, t, h, z, /*accumulate=*/true);
  }

  std::vector<Param*> params() override;
  void set_training(bool training) override;

  void set_time(float t) { time_ = t; }
  const BlockConfig& config() const { return cfg_; }

  /// See BatchNorm2d::set_freeze_running_stats.
  void set_freeze_running_stats(bool v) {
    bn1_.set_freeze_running_stats(v);
    bn2_.set_freeze_running_stats(v);
  }

  Conv2d& conv1() { return conv1_; }
  Conv2d& conv2() { return conv2_; }
  BatchNorm2d& bn1() { return bn1_; }
  BatchNorm2d& bn2() { return bn2_; }

  /// Option-A shortcut: subsample by `stride`, zero-pad channels to
  /// out_channels. Exposed for testing.
  static Tensor shortcut(const Tensor& x, int stride, int out_channels);
  /// Adjoint of shortcut().
  static Tensor shortcut_backward(const Tensor& grad_out,
                                  const std::vector<int>& in_shape,
                                  int stride);

  /// MACs of one branch evaluation over an HxW input (both convolutions,
  /// excluding the time channel; see DESIGN.md §3.2).
  std::uint64_t mac_count(int in_h, int in_w) const;

 private:
  BlockConfig cfg_;
  std::string name_;
  Conv2d conv1_;
  BatchNorm2d bn1_;
  ReLU relu_;
  Conv2d conv2_;
  BatchNorm2d bn2_;
  float time_ = 0.0f;
  std::vector<int> cached_in_shape_;

  // Fused-path state, recycled across calls: the folded BN coefficient
  // vectors and the conv1+bn1+relu intermediate (reallocated only on
  // geometry change), so steady-state fused stepping allocates nothing.
  std::vector<float> fused_scale1_, fused_shift1_;
  std::vector<float> fused_scale2_, fused_shift2_;
  Tensor fused_h1_;
};

}  // namespace odenet::core
