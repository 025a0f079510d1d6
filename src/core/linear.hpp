// Fully-connected layer with bias (the paper's `fc` head: 64 -> 100,
// 26.00 kB = (64*100 + 100) * 4 bytes).
#pragma once

#include "core/layer.hpp"

namespace odenet::core {

class Linear final : public Layer {
 public:
  Linear(int in_features, int out_features, std::string name = "fc");

  const std::string& name() const override { return name_; }
  /// x: [N, in_features] -> [N, out_features].
  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<Param*> params() override { return {&weight_, &bias_}; }

  int in_features() const { return in_; }
  int out_features() const { return out_; }
  Param& weight() { return weight_; }
  Param& bias() { return bias_; }

 private:
  int in_;
  int out_;
  std::string name_;
  Param weight_;  // [out, in]
  Param bias_;    // [out]
  Tensor cached_input_;
};

}  // namespace odenet::core
