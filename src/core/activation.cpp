#include "core/activation.hpp"

#include "core/gemm_kernels.hpp"

namespace odenet::core {

Tensor ReLU::forward(const Tensor& x) {
  Tensor out(x.shape());
  const float* src = x.data();
  float* dst = out.data();
  if (training_) {
    if (!cache_.mask.same_shape(x)) cache_.mask = Tensor(x.shape());
    float* mask = cache_.mask.data();
    for (std::size_t i = 0; i < x.numel(); ++i) {
      const bool pos = src[i] > 0.0f;
      dst[i] = pos ? src[i] : 0.0f;
      mask[i] = pos ? 1.0f : 0.0f;
    }
  } else {
    active_gemm_kernels().relu_f32(src, dst, x.numel());
  }
  return out;
}

Tensor ReLU::backward(const Tensor& grad_out) {
  ODENET_CHECK(!cache_.mask.empty(),
               name_ << ": backward without forward in training mode");
  ODENET_CHECK(grad_out.same_shape(cache_.mask),
               name_ << ": grad shape mismatch");
  Tensor grad_in(grad_out.shape());
  active_gemm_kernels().mul_f32(grad_out.data(), cache_.mask.data(),
                                grad_in.data(), grad_out.numel());
  return grad_in;
}

}  // namespace odenet::core
