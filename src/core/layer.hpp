// Layer interface: manual reverse-mode differentiation.
//
// Each layer owns its parameters (value + gradient accumulator) and caches
// whatever forward-pass state its backward pass needs. backward() consumes
// dL/d(output), accumulates dL/d(params) into Param::grad and returns
// dL/d(input). Gradients accumulate across calls until zero_grads(); the
// trainer averages over a batch by scaling the loss gradient.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/tensor.hpp"

namespace odenet::core {

/// A trainable parameter with its gradient accumulator.
struct Param {
  std::string name;
  Tensor value;
  Tensor grad;
  /// Weight decay is skipped for parameters flagged as normalization params
  /// is a common option; the paper applies L2 to every layer, so the trainer
  /// ignores this flag by default but exposes it.
  bool is_norm_param = false;

  Param() = default;
  Param(std::string n, Tensor v)
      : name(std::move(n)), value(std::move(v)), grad(value.shape()) {}
};

class Layer {
 public:
  /// Convenience alias so derived classes in other namespaces can spell
  /// `Tensor` unqualified in their override signatures.
  using Tensor = odenet::core::Tensor;

  virtual ~Layer() = default;

  virtual const std::string& name() const = 0;

  /// Computes the layer output. In training mode, caches state for backward.
  virtual Tensor forward(const Tensor& x) = 0;

  /// Propagates gradients. Must be called after forward() in training mode.
  virtual Tensor backward(const Tensor& grad_out) = 0;

  /// Drops the state forward() cached for backward(), for callers that know
  /// no backward() will read it; backward() then needs a new forward().
  virtual void release_cache() {}

  /// Trainable parameters (empty for stateless layers).
  virtual std::vector<Param*> params() { return {}; }

  /// Training vs inference mode (affects BN statistics and state caching).
  virtual void set_training(bool training) { training_ = training; }
  bool training() const { return training_; }

  void zero_grads() {
    for (Param* p : params()) p->grad.zero();
  }

  /// Total number of scalar parameters.
  std::size_t param_count() {
    std::size_t n = 0;
    for (Param* p : params()) n += p->value.numel();
    return n;
  }

 protected:
  bool training_ = false;
};

}  // namespace odenet::core
