// ODEBlock (paper §2.3, Figure 2): one weight-shared building block whose
// repeated execution is an ODE solve.
//
// Forward is Eq. 4: z(t1) = ODESolve(z(t0), t0, t1, f) with f the residual
// branch of the block. Two time parameterizations:
//   * kResNetCompatible (default): t spans [0, M] in M steps, so an Euler
//     step has h = 1 and one step is *exactly* one ResNet building block —
//     the correspondence the paper builds on (Eq. 1 vs Eq. 5).
//   * kUnit: t spans [0, 1] in M steps (the Neural-ODE convention).
// Backward is either the adjoint method (Eq. 9) or exact discrete
// backprop; see solver/adjoint.hpp for the trade-off. For discrete
// backprop the training forward records its trajectory z_0..z_{M-1} (the
// M step-start states, held until backward consumes them or
// release_cache() drops them) and backward differentiates those states
// instead of re-solving the stage.
#pragma once

#include <memory>
#include <vector>

#include "core/block.hpp"
#include "solver/adjoint.hpp"
#include "solver/ode.hpp"

namespace odenet::models {

enum class GradientMode { kDiscreteBackprop, kAdjoint };
enum class TimeSpan { kResNetCompatible, kUnit };

struct OdeBlockConfig {
  int channels = 0;
  /// M: executions of the block per forward pass (Table 4).
  int executions = 1;
  solver::Method method = solver::Method::kEuler;
  GradientMode gradient = GradientMode::kDiscreteBackprop;
  TimeSpan time_span = TimeSpan::kResNetCompatible;
  /// Append t as a constant input plane to both convs (Table 2 accounting).
  bool time_channel = true;
  /// Adaptive (Dopri5) tolerances, used only when method == kDopri5.
  double rtol = 1e-3;
  double atol = 1e-4;
};

class OdeBlock final : public core::Layer {
 public:
  explicit OdeBlock(const OdeBlockConfig& cfg, std::string name = "odeblock");

  const std::string& name() const override { return name_; }
  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  /// Drops the recorded trajectory (or z1), e.g. when a training forward
  /// is not followed by a backward.
  void release_cache() override {
    trajectory_.clear();
    cached_z1_ = Tensor();
  }
  std::vector<core::Param*> params() override { return block_.params(); }
  void set_training(bool training) override;

  const OdeBlockConfig& config() const { return cfg_; }
  core::BuildingBlock& block() { return block_; }
  float t0() const { return 0.0f; }
  float t1() const {
    return cfg_.time_span == TimeSpan::kResNetCompatible
               ? static_cast<float>(cfg_.executions)
               : 1.0f;
  }

  /// Stats of the most recent forward solve (meaningful for Dopri5).
  const solver::SolveStats& last_stats() const { return stats_; }

  /// Dynamics adapter exposing f(z,t) = branch(z,t) with VJP support; used
  /// by the solvers and by tests.
  solver::DifferentiableDynamics& dynamics() { return dynamics_; }

 private:
  class BlockDynamics final : public solver::DifferentiableDynamics {
   public:
    explicit BlockDynamics(core::BuildingBlock& b) : block_(b) {}
    core::Tensor eval(const core::Tensor& z, float t) override {
      return block_.branch_forward(z, t);
    }
    void eval_into(const core::Tensor& z, float t,
                   core::Tensor& out) override {
      if (block_.fused_eval_ready()) {
        block_.fused_branch_eval(z, t, 1.0f, out, /*accumulate=*/false);
      } else {
        out = eval(z, t);
      }
    }
    bool euler_step_inplace(core::Tensor& z, float t, float h) override {
      if (!block_.fused_eval_ready()) return false;
      block_.fused_euler_step(z, t, h);
      return true;
    }
    core::Tensor vjp(const core::Tensor& v) override {
      return block_.branch_backward(v);
    }

   private:
    core::BuildingBlock& block_;
  };

  OdeBlockConfig cfg_;
  std::string name_;
  core::BuildingBlock block_;
  BlockDynamics dynamics_;
  solver::SolveStats stats_;
  solver::StepScratch scratch_;  // recycled stage storage for fixed steps
  std::vector<core::Tensor> trajectory_;  // for discrete backward
  core::Tensor cached_z1_;  // for adjoint backward
};

}  // namespace odenet::models
