// ReLU activation (paper ref [8]).
#pragma once

#include <utility>

#include "core/layer.hpp"

namespace odenet::core {

class ReLU final : public Layer {
 public:
  explicit ReLU(std::string name = "relu") : name_(std::move(name)) {}

  const std::string& name() const override { return name_; }
  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  void release_cache() override { cache_ = Cache(); }

  /// What backward() reads, cached by a training forward.
  struct Cache {
    Tensor mask;  // 1 where input > 0
  };
  /// Exchanges the cache with `c` (moves, no copy).
  void swap_cache(Cache& c) { std::swap(cache_, c); }

 private:
  std::string name_;
  Cache cache_;
};

}  // namespace odenet::core
