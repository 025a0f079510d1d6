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

void OdeBlock::release_cache() {
  trajectory_.clear();
  cached_z1_ = Tensor();
  dynamics_.drop_record();
}

std::size_t OdeBlock::backward_floats() const {
  std::size_t n = dynamics_.recorded_floats() + cached_z1_.numel();
  for (const Tensor& z : trajectory_) n += z.numel();
  return n;
}

core::Tensor OdeBlock::forward(const Tensor& x) {
  ODENET_CHECK(!(training_ && cfg_.method == solver::Method::kDopri5),
               name_ << ": training with Dopri5 is not supported; "
                        "use a fixed-step method");
  const bool discrete =
      training_ && cfg_.gradient == GradientMode::kDiscreteBackprop;
  // Record the evaluations only in a training step: a forward no backward
  // follows (BN calibration) would pay for slots nothing reads.
  const bool record = discrete && backward_followed_;
  release_cache();
  solver::SolveOptions opts;
  opts.method = cfg_.method;
  opts.steps = cfg_.executions;
  opts.rtol = cfg_.rtol;
  opts.atol = cfg_.atol;
  opts.trajectory = discrete && !record ? &trajectory_ : nullptr;
  // Stage tensors are recycled across eval forwards. A training-mode
  // evaluation allocates its result anyway, so training solves keep no
  // stage tensors past the solve.
  opts.scratch = training_ ? nullptr : &scratch_;
  if (record) {
    dynamics_.start_recording(static_cast<std::size_t>(cfg_.executions) *
                              solver::evals_per_step(cfg_.method));
  }
  core::Tensor out;
  try {
    out = solver::ode_solve(dynamics_, x, t0(), t1(), opts, &stats_);
  } catch (...) {
    dynamics_.stop_recording();
    dynamics_.drop_record();
    throw;
  }
  dynamics_.stop_recording();
  if (training_) {
    backward_followed_ = false;
    if (!discrete) cached_z1_ = out;
    // The block's own layer caches are dead: a recording forward keeps
    // every evaluation's caches in its slot, and the other backwards
    // evaluate f again before every VJP. Drop what a previous backward's
    // evaluations left there rather than hold it beside the record.
    block_.release_cache();
  }
  return out;
}

core::Tensor OdeBlock::backward(const Tensor& grad_out) {
  solver::BackwardResult res;
  if (dynamics_.recorded_evaluations() > 0) {
    res = solver::discrete_backward(
        static_cast<solver::RecordedDynamics&>(dynamics_), cfg_.executions,
        grad_out, t0(), t1(), cfg_.method);
    dynamics_.drop_record();
  } else {
    // These backwards evaluate f again at the recorded (or reconstructed)
    // states; those evaluations must not re-apply BN running-stat momentum
    // updates.
    block_.set_freeze_running_stats(true);
    if (cfg_.gradient == GradientMode::kDiscreteBackprop) {
      ODENET_CHECK(!trajectory_.empty(),
                   name_ << ": backward without forward in training mode");
      res = solver::discrete_backward(dynamics_, trajectory_, grad_out, t0(),
                                      t1(), cfg_.method);
      trajectory_.clear();
    } else {
      ODENET_CHECK(!cached_z1_.empty(),
                   name_ << ": backward without forward in training mode");
      res = solver::adjoint_backward(dynamics_, cached_z1_, grad_out, t0(),
                                     t1(), cfg_.executions);
    }
    block_.set_freeze_running_stats(false);
  }
  backward_followed_ = true;
  backward_evals_ = res.function_evals;
  return std::move(res.grad_z0);
}

}  // namespace odenet::models
