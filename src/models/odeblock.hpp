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
// backprop a training forward keeps what the backward differentiates,
// held until backward consumes it or release_cache() drops it:
//  * In a training step (a backward consumed the previous training
//    forward) it records every evaluation of f: the branch's layer caches
//    (conv inputs and t, BN inputs and batch statistics, the ReLU mask)
//    are swapped into that evaluation's slot, and backward swaps each
//    slot back in for its VJP — the reverse sweep alone, f evaluated 0
//    times. Slots persist across steps and are refilled in place.
//  * Otherwise (a fresh block, or training forwards no backward follows,
//    such as BN calibration) it records the trajectory z_0..z_{M-1} (the
//    M step-start states) and holds no slot storage; backward evaluates f
//    again before each VJP: M / 3M / 7M evaluations for Euler / Heun /
//    RK4.
// Neither re-solves the stage, and both give the same bits.
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
  /// Drops what the last training forward kept for backward() (recorded
  /// evaluations, trajectory or z1), e.g. when no backward follows. Slot
  /// storage stays, to be refilled in place by the next recording forward.
  void release_cache() override;
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

  /// Evaluations of f the most recent backward made (0 when it consumed
  /// recorded evaluations).
  int last_backward_evals() const { return backward_evals_; }

  /// Evaluation slots this block holds (M * stages once a recording
  /// forward ran; 0 for a block no backward has ever followed).
  std::size_t evaluation_slots() const { return dynamics_.slots(); }

  /// Floats the last training forward holds for backward(): its recorded
  /// evaluations' layer caches, its trajectory or z1.
  std::size_t backward_floats() const;

  /// Dynamics adapter exposing f(z,t) = branch(z,t) with VJP support; used
  /// by the solvers and by tests.
  solver::DifferentiableDynamics& dynamics() { return dynamics_; }

 private:
  class BlockDynamics final : public solver::DifferentiableDynamics,
                              public solver::RecordedDynamics {
   public:
    explicit BlockDynamics(core::BuildingBlock& b) : block_(b) {}
    core::Tensor eval(const core::Tensor& z, float t) override {
      if (!recording_) return block_.branch_forward(z, t);
      // The slot's buffers swap in and are refilled in place; the new
      // caches swap out into the slot.
      ODENET_CHECK(recorded_ < slots_.size(),
                   "more evaluations than recording slots");
      core::BuildingBlock::BranchCaches& slot = slots_[recorded_++];
      block_.swap_branch_caches(slot);
      core::Tensor out = block_.branch_forward(z, t);
      block_.swap_branch_caches(slot);
      return out;
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

    int recorded_evaluations() const override {
      return static_cast<int>(recorded_);
    }
    core::Tensor vjp_recorded(int evaluation, const core::Tensor& v) override {
      ODENET_CHECK(evaluation >= 0 &&
                       static_cast<std::size_t>(evaluation) < recorded_,
                   "evaluation " << evaluation << " was not recorded");
      core::BuildingBlock::BranchCaches& slot =
          slots_[static_cast<std::size_t>(evaluation)];
      block_.swap_branch_caches(slot);
      core::Tensor g = block_.branch_backward(v);
      block_.swap_branch_caches(slot);
      return g;
    }

    /// Evaluations from here on go to slots 0..evaluations-1.
    void start_recording(std::size_t evaluations) {
      slots_.resize(evaluations);
      recorded_ = 0;
      recording_ = true;
    }
    void stop_recording() { recording_ = false; }
    void drop_record() { recorded_ = 0; }
    std::size_t slots() const { return slots_.size(); }
    std::size_t recorded_floats() const {
      std::size_t n = 0;
      for (std::size_t e = 0; e < recorded_; ++e) n += slots_[e].floats();
      return n;
    }

   private:
    core::BuildingBlock& block_;
    std::vector<core::BuildingBlock::BranchCaches> slots_;
    std::size_t recorded_ = 0;  // slots holding the last forward's caches
    bool recording_ = false;
  };

  OdeBlockConfig cfg_;
  std::string name_;
  core::BuildingBlock block_;
  BlockDynamics dynamics_;
  solver::SolveStats stats_;
  solver::StepScratch scratch_;  // recycled stage storage for fixed steps
  std::vector<core::Tensor> trajectory_;  // for discrete backward
  core::Tensor cached_z1_;  // for adjoint backward
  // A backward consumed the last training forward: the next one records.
  bool backward_followed_ = false;
  int backward_evals_ = 0;
};

}  // namespace odenet::models
