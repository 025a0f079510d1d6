#include "models/stage.hpp"

namespace odenet::models {

Stage::Stage(const StageSpec& spec, const SolverConfig& solver_cfg)
    : spec_(spec), name_(stage_name(spec.id)) {
  if (spec.stacked_blocks == 0) return;
  if (spec.is_ode()) {
    ODENET_CHECK(spec.stride == 1 && spec.in_channels == spec.out_channels,
                 name_ << ": ODE stages must preserve the state shape");
    ode_ = std::make_unique<OdeBlock>(
        OdeBlockConfig{.channels = spec.out_channels,
                       .executions = spec.executions,
                       .method = solver_cfg.method,
                       .gradient = solver_cfg.gradient,
                       .time_span = solver_cfg.time_span,
                       .time_channel = true,
                       .rtol = solver_cfg.rtol,
                       .atol = solver_cfg.atol},
        name_);
  } else {
    ODENET_CHECK(spec.executions == 1,
                 name_ << ": stacked stages execute each block once");
    blocks_.reserve(static_cast<std::size_t>(spec.stacked_blocks));
    for (int i = 0; i < spec.stacked_blocks; ++i) {
      // Only the first block of a stage changes geometry.
      const int in_ch = i == 0 ? spec.in_channels : spec.out_channels;
      const int stride = i == 0 ? spec.stride : 1;
      blocks_.push_back(std::make_unique<core::BuildingBlock>(
          core::BlockConfig{.in_channels = in_ch,
                            .out_channels = spec.out_channels,
                            .stride = stride,
                            .time_channel = false},
          name_ + "." + std::to_string(i)));
    }
  }
}

core::Tensor Stage::forward(const Tensor& x) {
  ODENET_CHECK(!is_empty(), name_ << ": forward on removed stage");
  if (ode_) return ode_->forward(x);
  core::Tensor h = x;
  for (auto& b : blocks_) h = b->forward(h);
  return h;
}

core::Tensor Stage::backward(const Tensor& grad_out) {
  ODENET_CHECK(!is_empty(), name_ << ": backward on removed stage");
  if (ode_) return ode_->backward(grad_out);
  core::Tensor g = grad_out;
  for (auto it = blocks_.rbegin(); it != blocks_.rend(); ++it) {
    g = (*it)->backward(g);
  }
  return g;
}

std::vector<core::Param*> Stage::params() {
  std::vector<core::Param*> out;
  if (ode_) return ode_->params();
  for (auto& b : blocks_) {
    for (core::Param* p : b->params()) out.push_back(p);
  }
  return out;
}

void Stage::set_training(bool training) {
  core::Layer::set_training(training);
  if (ode_) ode_->set_training(training);
  for (auto& b : blocks_) b->set_training(training);
}

}  // namespace odenet::models
