#include "models/odeblock.hpp"

namespace odenet::models {

OdeBlock::OdeBlock(const OdeBlockConfig& cfg, std::string name)
    : cfg_(cfg),
      name_(std::move(name)),
      block_({.in_channels = cfg.channels,
              .out_channels = cfg.channels,
              .stride = 1,
              .time_channel = cfg.time_channel},
             name_ + ".block"),
      dynamics_(block_) {
  ODENET_CHECK(cfg.executions >= 1, name_ << ": executions must be >= 1");
  ODENET_CHECK(!(cfg.method == solver::Method::kDopri5 && training_),
               name_ << ": adaptive solver is inference-only");
}

void OdeBlock::set_training(bool training) {
  core::Layer::set_training(training);
  block_.set_training(training);
}

core::Tensor OdeBlock::forward(const Tensor& x) {
  ODENET_CHECK(!(training_ && cfg_.method == solver::Method::kDopri5),
               name_ << ": training with Dopri5 is not supported; "
                        "use a fixed-step method");
  const bool discrete =
      training_ && cfg_.gradient == GradientMode::kDiscreteBackprop;
  trajectory_.clear();
  solver::SolveOptions opts;
  opts.method = cfg_.method;
  opts.steps = cfg_.executions;
  opts.rtol = cfg_.rtol;
  opts.atol = cfg_.atol;
  opts.trajectory = discrete ? &trajectory_ : nullptr;
  // Stage tensors are recycled across eval forwards. A training-mode
  // evaluation allocates its result anyway, so training solves keep no
  // stage tensors past the solve.
  opts.scratch = training_ ? nullptr : &scratch_;
  core::Tensor out = solver::ode_solve(dynamics_, x, t0(), t1(), opts, &stats_);
  if (training_) {
    if (!discrete) cached_z1_ = out;
    // Both backwards evaluate f again before every VJP, so the layer
    // caches of the last forward evaluation are dead: drop them rather
    // than hold them beside the trajectory.
    block_.release_cache();
  }
  return out;
}

core::Tensor OdeBlock::backward(const Tensor& grad_out) {
  // The backward evaluates f again at the recorded (or reconstructed)
  // states; those evaluations must not re-apply BN running-stat momentum
  // updates.
  block_.set_freeze_running_stats(true);
  solver::BackwardResult res;
  if (cfg_.gradient == GradientMode::kDiscreteBackprop) {
    ODENET_CHECK(!trajectory_.empty(),
                 name_ << ": backward without forward in training mode");
    res = solver::discrete_backward(dynamics_, trajectory_, grad_out, t0(),
                                    t1(), cfg_.method);
    trajectory_.clear();
  } else {
    ODENET_CHECK(!cached_z1_.empty(),
                 name_ << ": backward without forward in training mode");
    res = solver::adjoint_backward(dynamics_, cached_z1_, grad_out, t0(), t1(),
                                   cfg_.executions);
  }
  block_.set_freeze_running_stats(false);
  return std::move(res.grad_z0);
}

}  // namespace odenet::models
