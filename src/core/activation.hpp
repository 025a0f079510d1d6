// ReLU activation (paper ref [8]).
#pragma once

#include "core/layer.hpp"

namespace odenet::core {

class ReLU final : public Layer {
 public:
  explicit ReLU(std::string name = "relu") : name_(std::move(name)) {}

  const std::string& name() const override { return name_; }
  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  void release_cache() override { cached_mask_ = Tensor(); }

 private:
  std::string name_;
  Tensor cached_mask_;  // 1 where input > 0
};

}  // namespace odenet::core
