// A network stage: either a stack of plain building blocks (ResNet style)
// or a single ODEBlock executed repeatedly (Table 4).
#pragma once

#include <memory>

#include "core/block.hpp"
#include "models/architecture.hpp"
#include "models/odeblock.hpp"

namespace odenet::models {

/// Solver settings shared by every ODE stage of a network.
struct SolverConfig {
  solver::Method method = solver::Method::kEuler;
  GradientMode gradient = GradientMode::kDiscreteBackprop;
  TimeSpan time_span = TimeSpan::kResNetCompatible;
  double rtol = 1e-3;
  double atol = 1e-4;
};

class Stage final : public core::Layer {
 public:
  Stage(const StageSpec& spec, const SolverConfig& solver_cfg);

  const std::string& name() const override { return name_; }
  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<core::Param*> params() override;
  void set_training(bool training) override;

  const StageSpec& spec() const { return spec_; }
  bool is_ode() const { return ode_ != nullptr; }
  bool is_empty() const { return spec_.stacked_blocks == 0; }
  OdeBlock* ode() { return ode_.get(); }
  std::vector<std::unique_ptr<core::BuildingBlock>>& blocks() {
    return blocks_;
  }

 private:
  StageSpec spec_;
  std::string name_;
  std::vector<std::unique_ptr<core::BuildingBlock>> blocks_;  // plain stack
  std::unique_ptr<OdeBlock> ode_;                             // or ODE
};

}  // namespace odenet::models
