#include "core/block.hpp"

#include <algorithm>
#include <cstring>

namespace odenet::core {

BuildingBlock::BuildingBlock(const BlockConfig& cfg, std::string name)
    : cfg_(cfg),
      name_(std::move(name)),
      conv1_({.in_channels = cfg.in_channels,
              .out_channels = cfg.out_channels,
              .kernel = 3,
              .stride = cfg.stride,
              .pad = 1,
              .time_channel = cfg.time_channel},
             name_ + ".conv1"),
      bn1_(cfg.out_channels, name_ + ".bn1"),
      relu_(name_ + ".relu"),
      conv2_({.in_channels = cfg.out_channels,
              .out_channels = cfg.out_channels,
              .kernel = 3,
              .stride = 1,
              .pad = 1,
              .time_channel = cfg.time_channel},
             name_ + ".conv2"),
      bn2_(cfg.out_channels, name_ + ".bn2") {
  ODENET_CHECK(cfg.stride == 1 || cfg.stride == 2,
               name_ << ": stride must be 1 or 2");
  ODENET_CHECK(cfg.stride == 1 ? true : cfg.out_channels >= cfg.in_channels,
               name_ << ": stride-2 block must not shrink channels");
  ODENET_CHECK(!(cfg.time_channel && cfg.stride != 1),
               name_ << ": ODE-capable blocks are stride-1 (they must "
                        "preserve the state shape)");
}

std::vector<Param*> BuildingBlock::params() {
  std::vector<Param*> out;
  for (Layer* l :
       std::initializer_list<Layer*>{&conv1_, &bn1_, &conv2_, &bn2_}) {
    for (Param* p : l->params()) out.push_back(p);
  }
  return out;
}

void BuildingBlock::release_cache() {
  for (Layer* l : std::initializer_list<Layer*>{&conv1_, &bn1_, &relu_,
                                               &conv2_, &bn2_}) {
    l->release_cache();
  }
}

std::size_t BuildingBlock::BranchCaches::floats() const {
  std::size_t n = 0;
  for (const Tensor* t : {&conv1.input, &bn1.input, &bn1.mean, &bn1.inv_std,
                          &relu.mask, &conv2.input, &bn2.input, &bn2.mean,
                          &bn2.inv_std}) {
    n += t->numel();
  }
  return n;
}

void BuildingBlock::swap_branch_caches(BranchCaches& c) {
  conv1_.swap_cache(c.conv1);
  bn1_.swap_cache(c.bn1);
  relu_.swap_cache(c.relu);
  conv2_.swap_cache(c.conv2);
  bn2_.swap_cache(c.bn2);
}

void BuildingBlock::set_training(bool training) {
  Layer::set_training(training);
  conv1_.set_training(training);
  bn1_.set_training(training);
  relu_.set_training(training);
  conv2_.set_training(training);
  bn2_.set_training(training);
}

bool BuildingBlock::fused_eval_ready() const {
  return !training_ && bn1_.eval_affine_foldable() &&
         bn2_.eval_affine_foldable();
}

void BuildingBlock::fused_branch_eval(const Tensor& z, float t, float alpha,
                                      Tensor& out, bool accumulate) {
  time_ = t;
  conv1_.set_time(t);
  conv2_.set_time(t);
  bn1_.fold_eval_affine(fused_scale1_, fused_shift1_);
  bn2_.fold_eval_affine(fused_scale2_, fused_shift2_);
  if (alpha != 1.0f) {
    // Fold the solver step size into bn2: alpha*(y*s + b) = y*(alpha*s) +
    // (alpha*b). Same values as the unfused h-scaled axpy up to one float
    // regrouping; skipped entirely at alpha == 1 so the plain branch
    // evaluation stays bitwise identical to the unfused chain.
    for (float& v : fused_scale2_) v *= alpha;
    for (float& v : fused_shift2_) v *= alpha;
  }
  ConvEpilogue ep1;
  ep1.scale = fused_scale1_.data();
  ep1.shift = fused_shift1_.data();
  ep1.relu = true;
  conv1_.forward_fused(z, ep1, fused_h1_, /*accumulate=*/false);
  ConvEpilogue ep2;
  ep2.scale = fused_scale2_.data();
  ep2.shift = fused_shift2_.data();
  conv2_.forward_fused(fused_h1_, ep2, out, accumulate);
}

Tensor BuildingBlock::branch_forward(const Tensor& z, float t) {
  if (fused_eval_ready()) {
    Tensor out;
    fused_branch_eval(z, t, 1.0f, out, /*accumulate=*/false);
    return out;
  }
  time_ = t;
  conv1_.set_time(t);
  conv2_.set_time(t);
  Tensor h = conv1_.forward(z);
  h = bn1_.forward(h);
  h = relu_.forward(h);
  h = conv2_.forward(h);
  h = bn2_.forward(h);
  return h;
}

Tensor BuildingBlock::branch_backward(const Tensor& grad_out) {
  Tensor g = bn2_.backward(grad_out);
  g = conv2_.backward(g);
  g = relu_.backward(g);
  g = bn1_.backward(g);
  g = conv1_.backward(g);
  return g;
}

Tensor BuildingBlock::shortcut(const Tensor& x, int stride, int out_channels) {
  const int n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  if (stride == 1 && out_channels == c) return x;
  const int ho = (h + stride - 1) / stride;
  const int wo = (w + stride - 1) / stride;
  Tensor out({n, out_channels, ho, wo});
  // Row-contiguous copies instead of a per-element .at() walk: stride 1
  // copies whole planes, stride 2 gathers every stride-th element of every
  // stride-th row. Zero-pad channels (ci >= c) stay zero from the ctor.
  const int cc = std::min(c, out_channels);
  const std::size_t in_plane = static_cast<std::size_t>(h) * w;
  const std::size_t out_plane = static_cast<std::size_t>(ho) * wo;
  for (int ni = 0; ni < n; ++ni) {
    for (int ci = 0; ci < cc; ++ci) {
      const float* src =
          x.data() + (static_cast<std::size_t>(ni) * c + ci) * in_plane;
      float* dst = out.data() +
                   (static_cast<std::size_t>(ni) * out_channels + ci) *
                       out_plane;
      if (stride == 1) {
        std::memcpy(dst, src, in_plane * sizeof(float));
      } else {
        for (int oh = 0; oh < ho; ++oh) {
          const float* srow =
              src + static_cast<std::size_t>(oh) * stride * w;
          float* drow = dst + static_cast<std::size_t>(oh) * wo;
          for (int ow = 0; ow < wo; ++ow) drow[ow] = srow[ow * stride];
        }
      }
    }
  }
  return out;
}

Tensor BuildingBlock::shortcut_backward(const Tensor& grad_out,
                                        const std::vector<int>& in_shape,
                                        int stride) {
  const int n = in_shape[0], c = in_shape[1], h = in_shape[2], w = in_shape[3];
  if (stride == 1 && grad_out.dim(1) == c) return grad_out;
  Tensor grad_in(in_shape);
  const int ho = grad_out.dim(2), wo = grad_out.dim(3);
  // Adjoint of the gather above: scatter rows back, bounds clamped so a
  // grad_out wider than ceil(extent/stride) never reads past the input.
  const int cc = std::min(c, grad_out.dim(1));
  const int hlim = std::min(ho, (h + stride - 1) / stride);
  const int wlim = std::min(wo, (w + stride - 1) / stride);
  const std::size_t in_plane = static_cast<std::size_t>(h) * w;
  const std::size_t out_plane = static_cast<std::size_t>(ho) * wo;
  for (int ni = 0; ni < n; ++ni) {
    for (int ci = 0; ci < cc; ++ci) {
      const float* src =
          grad_out.data() +
          (static_cast<std::size_t>(ni) * grad_out.dim(1) + ci) * out_plane;
      float* dst =
          grad_in.data() + (static_cast<std::size_t>(ni) * c + ci) * in_plane;
      if (stride == 1) {
        std::memcpy(dst, src, in_plane * sizeof(float));
      } else {
        for (int oh = 0; oh < hlim; ++oh) {
          const float* srow = src + static_cast<std::size_t>(oh) * wo;
          float* drow = dst + static_cast<std::size_t>(oh) * stride * w;
          for (int ow = 0; ow < wlim; ++ow) drow[ow * stride] = srow[ow];
        }
      }
    }
  }
  return grad_in;
}

Tensor BuildingBlock::forward(const Tensor& x) {
  if (training_) cached_in_shape_ = x.shape();
  if (fused_eval_ready()) {
    // shortcut() returns by value, so `out` is always a writable copy —
    // the fused branch accumulates straight into it: branch + shortcut in
    // one pass, same add order (branch first) as the unfused path.
    Tensor out = shortcut(x, cfg_.stride, cfg_.out_channels);
    fused_branch_eval(x, time_, 1.0f, out, /*accumulate=*/true);
    return out;
  }
  Tensor branch = branch_forward(x, time_);
  Tensor sc = shortcut(x, cfg_.stride, cfg_.out_channels);
  ODENET_CHECK(branch.same_shape(sc),
               name_ << ": branch " << branch.shape_str() << " vs shortcut "
                     << sc.shape_str());
  branch.add(sc);
  return branch;
}

Tensor BuildingBlock::backward(const Tensor& grad_out) {
  ODENET_CHECK(!cached_in_shape_.empty(),
               name_ << ": backward without forward in training mode");
  Tensor g_branch = branch_backward(grad_out);
  Tensor g_shortcut =
      shortcut_backward(grad_out, cached_in_shape_, cfg_.stride);
  g_branch.add(g_shortcut);
  return g_branch;
}

std::uint64_t BuildingBlock::mac_count(int in_h, int in_w) const {
  const int ho = Conv2d::out_extent(in_h, 3, cfg_.stride, 1);
  const int wo = Conv2d::out_extent(in_w, 3, cfg_.stride, 1);
  // Count data channels only (time channel folds into a bias plane on HW).
  const std::uint64_t macs1 = static_cast<std::uint64_t>(ho) * wo *
                              cfg_.out_channels * cfg_.in_channels * 9;
  const std::uint64_t macs2 = static_cast<std::uint64_t>(ho) * wo *
                              cfg_.out_channels * cfg_.out_channels * 9;
  return macs1 + macs2;
}

}  // namespace odenet::core
