// Batch normalization over NCHW feature maps (Ioffe & Szegedy, paper ref [3]).
//
// Training mode normalizes with batch statistics and maintains running
// estimates for inference; eval mode normalizes with the running estimates.
// The FPGA BN engine (src/fpga/bn_engine) mirrors the *inference-on-batch*
// variant the paper implements in hardware: mean/variance computed over the
// current feature map with dedicated divide and square-root units.
#pragma once

#include <utility>
#include <vector>

#include "core/layer.hpp"

namespace odenet::core {

class BatchNorm2d final : public Layer {
 public:
  explicit BatchNorm2d(int channels, std::string name = "bn",
                       float eps = 1e-5f, float momentum = 0.1f);

  const std::string& name() const override { return name_; }
  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  void release_cache() override { cache_ = Cache(); }
  std::vector<Param*> params() override { return {&gamma_, &beta_}; }

  /// What backward() reads, cached by a training forward.
  struct Cache {
    Tensor input;
    Tensor mean;     // [C] batch statistics
    Tensor inv_std;  // [C]
  };
  /// Exchanges the cache with `c` (moves, no copy).
  void swap_cache(Cache& c) { std::swap(cache_, c); }

  int channels() const { return channels_; }
  float eps() const { return eps_; }

  Param& gamma() { return gamma_; }
  Param& beta() { return beta_; }
  Tensor& running_mean() { return running_mean_; }
  Tensor& running_var() { return running_var_; }

  /// Normalize with statistics computed from the input itself even in eval
  /// mode — this is how the paper's hardware BN behaves (it has no notion of
  /// running statistics; it computes mean/var/stddev on the fly).
  void set_use_batch_stats_in_eval(bool v) { batch_stats_in_eval_ = v; }

  /// Suppress running-statistics updates while still using batch statistics.
  /// An ODE backward that re-evaluates the dynamics to rebuild caches
  /// freezes them; without it, each evaluation would apply the momentum
  /// update again.
  void set_freeze_running_stats(bool v) { freeze_running_stats_ = v; }

  /// True when eval-mode normalization is a fixed per-channel affine of
  /// the input (running statistics; nothing input-dependent) — the
  /// precondition for fold_eval_affine and for any fused conv+BN path.
  /// False when batch stats are used even in eval (the hardware-BN mode).
  bool eval_affine_foldable() const { return !batch_stats_in_eval_; }

  /// Folds the eval-mode normalization into per-channel (scale, shift):
  /// y = x * scale[c] + shift[c] with scale = gamma * inv_std and shift =
  /// beta - mean * scale, all in float. Every consumer of the fold — this
  /// layer's own eval forward, the fused conv epilogue — computes the SAME
  /// coefficients through this one function, so fused and unfused eval
  /// outputs are bitwise identical per ISA. Vectors are resized in place
  /// (capacity reused across calls).
  void fold_eval_affine(std::vector<float>& scale,
                        std::vector<float>& shift) const;

 private:
  int channels_;
  std::string name_;
  float eps_;
  float momentum_;
  bool batch_stats_in_eval_ = false;
  bool freeze_running_stats_ = false;

  Param gamma_;  // [C]
  Param beta_;   // [C]
  Tensor running_mean_;  // [C]
  Tensor running_var_;   // [C]

  Cache cache_;

  // Folded eval coefficients, recomputed each eval forward into recycled
  // storage (gamma/beta/running stats may have changed since last call).
  std::vector<float> fold_scale_;
  std::vector<float> fold_shift_;
};

}  // namespace odenet::core
