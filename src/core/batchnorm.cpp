#include "core/batchnorm.hpp"

#include <cmath>

#include "core/gemm_kernels.hpp"
#include "util/thread_pool.hpp"

namespace odenet::core {

BatchNorm2d::BatchNorm2d(int channels, std::string name, float eps,
                         float momentum)
    : channels_(channels),
      name_(std::move(name)),
      eps_(eps),
      momentum_(momentum),
      gamma_(name_ + ".gamma", Tensor::full({channels}, 1.0f)),
      beta_(name_ + ".beta", Tensor({channels})),
      running_mean_({channels}),
      running_var_(Tensor::full({channels}, 1.0f)) {
  ODENET_CHECK(channels > 0, "batchnorm needs positive channel count");
  gamma_.is_norm_param = true;
  beta_.is_norm_param = true;
}

void BatchNorm2d::fold_eval_affine(std::vector<float>& scale,
                                   std::vector<float>& shift) const {
  ODENET_CHECK(eval_affine_foldable(),
               name_ << ": cannot fold eval affine while batch stats are "
                        "used in eval");
  scale.resize(static_cast<std::size_t>(channels_));
  shift.resize(static_cast<std::size_t>(channels_));
  for (int ci = 0; ci < channels_; ++ci) {
    const float is = 1.0f / std::sqrt(running_var_.at1(ci) + eps_);
    const float gs = gamma_.value.at1(ci) * is;
    scale[static_cast<std::size_t>(ci)] = gs;
    shift[static_cast<std::size_t>(ci)] =
        beta_.value.at1(ci) - running_mean_.at1(ci) * gs;
  }
}

Tensor BatchNorm2d::forward(const Tensor& x) {
  ODENET_CHECK(x.ndim() == 4 && x.dim(1) == channels_,
               name_ << ": expected [N," << channels_ << ",H,W], got "
                     << x.shape_str());
  const int n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  const std::size_t plane = static_cast<std::size_t>(h) * w;
  const std::size_t count = static_cast<std::size_t>(n) * plane;

  const bool use_batch_stats = training_ || batch_stats_in_eval_;
  if (!use_batch_stats) {
    // Eval with running stats is a fixed per-channel affine: fold once
    // (the same coefficients the fused conv epilogue uses, so fused and
    // unfused eval agree bitwise per ISA) and stream each plane through
    // the SIMD affine kernel.
    fold_eval_affine(fold_scale_, fold_shift_);
    const GemmKernels& kernels = active_gemm_kernels();
    Tensor out(x.shape());
    util::parallel_for(kernel_pool(), 0, static_cast<std::size_t>(c),
                       [&](std::size_t ci) {
      const float s = fold_scale_[ci];
      const float b = fold_shift_[ci];
      for (int ni = 0; ni < n; ++ni) {
        const std::size_t off = ((static_cast<std::size_t>(ni) * c) + ci) *
                                plane;
        kernels.affine_f32(x.data() + off, out.data() + off, plane, s, b);
      }
    });
    return out;
  }

  Tensor mean({c}), var({c});
  {
    util::parallel_for(kernel_pool(), 0, static_cast<std::size_t>(c),
                       [&](std::size_t ci) {
      double sum = 0.0, sq = 0.0;
      for (int ni = 0; ni < n; ++ni) {
        const float* p = x.data() + ((static_cast<std::size_t>(ni) * c) + ci) * plane;
        for (std::size_t i = 0; i < plane; ++i) {
          sum += p[i];
          sq += static_cast<double>(p[i]) * p[i];
        }
      }
      const double m = sum / static_cast<double>(count);
      mean.at1(static_cast<int>(ci)) = static_cast<float>(m);
      var.at1(static_cast<int>(ci)) =
          static_cast<float>(sq / static_cast<double>(count) - m * m);
    });
    if (training_ && !freeze_running_stats_) {
      // Unbiased variance for the running estimate, as in common frameworks.
      const double unbias =
          count > 1 ? static_cast<double>(count) / (count - 1) : 1.0;
      for (int ci = 0; ci < c; ++ci) {
        running_mean_.at1(ci) = (1.0f - momentum_) * running_mean_.at1(ci) +
                                momentum_ * mean.at1(ci);
        running_var_.at1(ci) =
            (1.0f - momentum_) * running_var_.at1(ci) +
            momentum_ * static_cast<float>(unbias * var.at1(ci));
      }
    }
  }

  Tensor inv_std({c});
  for (int ci = 0; ci < c; ++ci) {
    inv_std.at1(ci) = 1.0f / std::sqrt(var.at1(ci) + eps_);
  }

  Tensor out(x.shape());
  util::parallel_for(kernel_pool(), 0, static_cast<std::size_t>(c),
                     [&](std::size_t ci) {
    const float m = mean.at1(static_cast<int>(ci));
    const float is = inv_std.at1(static_cast<int>(ci));
    const float g = gamma_.value.at1(static_cast<int>(ci));
    const float b = beta_.value.at1(static_cast<int>(ci));
    for (int ni = 0; ni < n; ++ni) {
      const float* src =
          x.data() + ((static_cast<std::size_t>(ni) * c) + ci) * plane;
      float* dst =
          out.data() + ((static_cast<std::size_t>(ni) * c) + ci) * plane;
      for (std::size_t i = 0; i < plane; ++i) {
        dst[i] = (src[i] - m) * is * g + b;
      }
    }
  });

  if (training_) {
    cache_.input = x;
    cache_.mean = std::move(mean);
    cache_.inv_std = std::move(inv_std);
  }
  return out;
}

Tensor BatchNorm2d::backward(const Tensor& grad_out) {
  ODENET_CHECK(!cache_.input.empty(),
               name_ << ": backward without forward in training mode");
  const Tensor& x = cache_.input;
  ODENET_CHECK(grad_out.same_shape(x),
               name_ << ": grad_out " << grad_out.shape_str()
                     << " does not match the cached input " << x.shape_str());
  const int n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  const std::size_t plane = static_cast<std::size_t>(h) * w;
  const double m_count = static_cast<double>(n) * plane;

  Tensor grad_in(x.shape());
  float* gg = gamma_.grad.data();
  float* gb = beta_.grad.data();

  util::parallel_for(kernel_pool(), 0, static_cast<std::size_t>(c),
                     [&](std::size_t ci) {
    const float mu = cache_.mean.at1(static_cast<int>(ci));
    const float is = cache_.inv_std.at1(static_cast<int>(ci));
    const float g = gamma_.value.at1(static_cast<int>(ci));

    // First pass: dgamma = sum(dy * xhat), dbeta = sum(dy).
    double dgamma = 0.0, dbeta = 0.0;
    for (int ni = 0; ni < n; ++ni) {
      const float* xp =
          x.data() + ((static_cast<std::size_t>(ni) * c) + ci) * plane;
      const float* gp =
          grad_out.data() + ((static_cast<std::size_t>(ni) * c) + ci) * plane;
      for (std::size_t i = 0; i < plane; ++i) {
        const double xhat = (xp[i] - mu) * is;
        dgamma += gp[i] * xhat;
        dbeta += gp[i];
      }
    }
    gg[ci] += static_cast<float>(dgamma);
    gb[ci] += static_cast<float>(dbeta);

    // Second pass: dx = g*is * (dy - dbeta/m - xhat*dgamma/m).
    const double db_over_m = dbeta / m_count;
    const double dg_over_m = dgamma / m_count;
    for (int ni = 0; ni < n; ++ni) {
      const float* xp =
          x.data() + ((static_cast<std::size_t>(ni) * c) + ci) * plane;
      const float* gp =
          grad_out.data() + ((static_cast<std::size_t>(ni) * c) + ci) * plane;
      float* dst =
          grad_in.data() + ((static_cast<std::size_t>(ni) * c) + ci) * plane;
      for (std::size_t i = 0; i < plane; ++i) {
        const double xhat = (xp[i] - mu) * is;
        dst[i] = static_cast<float>(
            g * is * (gp[i] - db_over_m - xhat * dg_over_m));
      }
    }
  });

  return grad_in;
}

}  // namespace odenet::core
