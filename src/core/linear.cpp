#include "core/linear.hpp"

#include "core/im2col.hpp"

namespace odenet::core {

Linear::Linear(int in_features, int out_features, std::string name)
    : in_(in_features),
      out_(out_features),
      name_(std::move(name)),
      weight_(name_ + ".weight", Tensor({out_features, in_features})),
      bias_(name_ + ".bias", Tensor({out_features})) {
  ODENET_CHECK(in_features > 0 && out_features > 0,
               "linear needs positive feature counts");
}

Tensor Linear::forward(const Tensor& x) {
  ODENET_CHECK(x.ndim() == 2 && x.dim(1) == in_,
               name_ << ": expected [N," << in_ << "], got " << x.shape_str());
  const int n = x.dim(0);
  // out = X * W^T + b (W stored [out, in] is the B^T layout): bias
  // pre-fills each row and the GEMM accumulates on top.
  Tensor out({n, out_});
  for (int ni = 0; ni < n; ++ni) {
    float* row = out.data() + static_cast<std::size_t>(ni) * out_;
    for (int o = 0; o < out_; ++o) row[o] = bias_.value.at1(o);
  }
  gemm_tiled_bt(x.data(), weight_.value.data(), out.data(), n, in_, out_,
                /*accumulate=*/true);
  if (training_) cached_input_ = x;
  return out;
}

Tensor Linear::backward(const Tensor& grad_out) {
  ODENET_CHECK(!cached_input_.empty(),
               name_ << ": backward without forward in training mode");
  const Tensor& x = cached_input_;
  const int n = x.dim(0);
  ODENET_CHECK(grad_out.ndim() == 2 && grad_out.dim(0) == n &&
                   grad_out.dim(1) == out_,
               name_ << ": grad shape " << grad_out.shape_str());

  // dW[out, in] += G^T[out, N] * X[N, in], G^T packed from its transposed
  // storage G [N, out]; db += column sums of G.
  static thread_local PackedGemmA gt;
  pack_gemm_at(grad_out.data(), out_, n, gt);
  gemm_tiled_pa(gt, x.data(), weight_.grad.data(), in_, /*accumulate=*/true);
  for (int ni = 0; ni < n; ++ni) {
    const float* grow = grad_out.data() + static_cast<std::size_t>(ni) * out_;
    for (int o = 0; o < out_; ++o) bias_.grad.at1(o) += grow[o];
  }

  // dX[N, in] = G[N, out] * W[out, in] via the tiled NN kernel (grad_in is
  // zero-initialized by the Tensor constructor; accumulate keeps the
  // historical += contract).
  Tensor grad_in({n, in_});
  gemm_tiled(grad_out.data(), weight_.value.data(), grad_in.data(), n, out_,
             in_, /*accumulate=*/true);
  return grad_in;
}

}  // namespace odenet::core
