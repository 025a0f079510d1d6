#include "core/conv2d.hpp"

#include <algorithm>

#include "core/im2col.hpp"
#include "util/thread_pool.hpp"

namespace odenet::core {

Conv2d::Conv2d(const Conv2dConfig& cfg, std::string name)
    : cfg_(cfg),
      name_(std::move(name)),
      weight_(name_ + ".weight",
              Tensor({cfg.out_channels,
                      cfg.in_channels + (cfg.time_channel ? 1 : 0),
                      cfg.kernel, cfg.kernel})) {
  ODENET_CHECK(cfg.in_channels > 0 && cfg.out_channels > 0,
               "conv2d needs positive channel counts");
  ODENET_CHECK(cfg.kernel > 0 && cfg.stride > 0 && cfg.pad >= 0,
               "invalid conv2d geometry");
}

int Conv2d::out_extent(int in, int kernel, int stride, int pad) {
  ODENET_CHECK(in + 2 * pad >= kernel, "conv input smaller than kernel");
  return (in + 2 * pad - kernel) / stride + 1;
}

std::uint64_t Conv2d::mac_count(int in_h, int in_w) const {
  const std::uint64_t ho = out_extent(in_h, cfg_.kernel, cfg_.stride, cfg_.pad);
  const std::uint64_t wo = out_extent(in_w, cfg_.kernel, cfg_.stride, cfg_.pad);
  return ho * wo * static_cast<std::uint64_t>(cfg_.out_channels) *
         static_cast<std::uint64_t>(cfg_.in_channels) *
         static_cast<std::uint64_t>(cfg_.kernel) *
         static_cast<std::uint64_t>(cfg_.kernel);
}

const PackedGemmA& Conv2d::packed_weights() {
  if (!pack_current(packed_version_)) {
    const int co = cfg_.out_channels;
    const int kk = static_cast<int>(weight_.value.numel()) / co;
    pack_gemm_a(weight_.value.data(), co, kk, packed_weight_);
    packed_version_ = weight_version_;
    ++weight_packs_;
  }
  return packed_weight_;
}

LoweringGeometry Conv2d::lowering(int h, int w) const {
  return {.channels = cfg_.in_channels + (cfg_.time_channel ? 1 : 0),
          .height = h, .width = w, .kernel = cfg_.kernel,
          .stride = cfg_.stride, .pad = cfg_.pad};
}

const float* Conv2d::time_plane(ScratchArena& arena, std::size_t plane,
                                float t) const {
  if (!cfg_.time_channel) return nullptr;
  float* tp = arena.alloc(plane);
  std::fill_n(tp, plane, t);
  return tp;
}

void Conv2d::run(const Tensor& x, float t, const PackedGemmA& weights,
                 const ConvEpilogue& ep, Tensor& out, bool accumulate) {
  ODENET_CHECK(x.ndim() == 4, name_ << ": conv2d expects NCHW input, got "
                                    << x.shape_str());
  ODENET_CHECK(x.dim(0) > 0, name_ << ": empty batch (n = 0)");
  const int n = x.dim(0), cx = x.dim(1), h = x.dim(2), w = x.dim(3);
  ODENET_CHECK(cx == cfg_.in_channels,
               name_ << ": expected " << cfg_.in_channels << " channels, got "
                     << cx);
  const LoweringGeometry g = lowering(h, w);
  const int ho = g.out_h(), wo = g.out_w();
  const int co = cfg_.out_channels;
  ODENET_CHECK(weights.m == co && weights.k == static_cast<int>(g.col_rows()),
               name_ << ": packed weights [" << weights.m << "," << weights.k
                     << "] do not match the lowering [" << co << ","
                     << g.col_rows() << "]");
  const bool shape_ok = out.ndim() == 4 && out.dim(0) == n &&
                        out.dim(1) == co && out.dim(2) == ho &&
                        out.dim(3) == wo;
  if (accumulate) {
    ODENET_CHECK(shape_ok, name_ << ": accumulate target shape "
                                 << out.shape_str() << " does not match ["
                                 << n << "," << co << "," << ho << "," << wo
                                 << "]");
  } else if (!shape_ok) {
    out = Tensor({n, co, ho, wo});
  }
  if (training_) {
    if (!cache_.input.same_shape(x)) cache_.input = Tensor(x.shape());
    std::copy_n(x.data(), x.numel(), cache_.input.data());
    cache_.time = t;
  }

  // The lowering reads x itself and the time channel from one plane of t.
  // The column matrix is never materialized when the geometry admits the
  // implicit lowering — the GEMM gathers B panels straight from the image.
  const std::size_t plane = static_cast<std::size_t>(h) * w;
  const std::size_t ncols = g.col_cols() * static_cast<std::size_t>(n);
  const bool implicit = gemm_implicit_lowering_ok(g, co);
  ScratchArena& arena = active_arena();
  arena.frame((implicit ? 0 : g.col_rows() * ncols) +
              (cfg_.time_channel ? plane : 0));
  float* cols = implicit ? nullptr : arena.alloc(g.col_rows() * ncols);
  const float* tplane = time_plane(arena, plane, t);

  GemmEpilogue ge;
  ge.scale = ep.scale;
  ge.shift = ep.shift;
  ge.relu = ep.relu;
  if (accumulate) ge.residual = out.data();
  if (implicit) {
    gemm_tiled_pa_ep_lowered(weights, x.data(), g, n, out.data(), ge, tplane);
  } else {
    im2col_batched(x.data(), g, n, cols, tplane);
    gemm_tiled_pa_ep(weights, cols, out.data(), static_cast<int>(ncols), ge,
                     n);
  }
}

void Conv2d::forward_fused(const Tensor& x, const ConvEpilogue& ep,
                           Tensor& out, bool accumulate) {
  ODENET_CHECK(!training_,
               name_ << ": forward_fused is eval-only (training mode keeps "
                        "the unfused forward)");
  run(x, time_, packed_weights(), ep, out, accumulate);
}

Tensor Conv2d::forward(const Tensor& x) {
  Tensor out;
  run(x, time_, packed_weights(), ConvEpilogue{}, out, /*accumulate=*/false);
  return out;
}

Tensor Conv2d::backward(const Tensor& grad_out) {
  ODENET_CHECK(!cache_.input.empty(),
               name_ << ": backward without forward in training mode");
  const Tensor& x = cache_.input;
  const int n = x.dim(0), h = x.dim(2), w = x.dim(3);
  const int co = cfg_.out_channels;
  ODENET_CHECK(grad_out.ndim() == 4 && grad_out.dim(0) == n &&
                   grad_out.dim(1) == co,
               name_ << ": grad_out shape " << grad_out.shape_str());
  const LoweringGeometry g = lowering(h, w);
  const int kk = static_cast<int>(g.col_rows());
  const std::size_t cc = g.col_cols();
  const std::size_t ncols = cc * static_cast<std::size_t>(n);
  const std::size_t plane = static_cast<std::size_t>(h) * w;
  // dX has rows for the data channels only: t is not trained, so the
  // time channel's K*K rows of W^T are neither packed nor computed.
  LoweringGeometry gx = g;
  gx.channels = cfg_.in_channels;
  const int kx = static_cast<int>(gx.col_rows());

  // dW: one lowering of the whole batch, at the forward's t, and one GEMM
  // on the batched [kk, n*cc] layout against grad_out, whose A pack reads
  // the [n, co, cc] tensor as the [co, n*cc] matrix in place. dX: one
  // sample at a time, so its [kx, cc]
  // column block is scattered while it is still in cache. The samples
  // split into one contiguous group per pool worker, each with its own
  // one-sample scratch (one group, one scratch on a single worker). All
  // scratch is arena-recycled — training stops allocating in the inner
  // loop.
  ScratchArena& arena = active_arena();
  const std::size_t groups = std::min<std::size_t>(
      static_cast<std::size_t>(n),
      std::max<std::size_t>(kernel_pool().worker_count(), 1));
  const std::size_t scratch = static_cast<std::size_t>(kx) * cc;
  arena.frame(static_cast<std::size_t>(kk) * ncols + groups * scratch +
              (cfg_.time_channel ? plane : 0));
  float* cols = arena.alloc(static_cast<std::size_t>(kk) * ncols);
  float* grad_cols = arena.alloc(groups * scratch);
  const float* tplane = time_plane(arena, plane, cache_.time);

  im2col_batched(x.data(), g, n, cols, tplane);
  // dW[co, kk] += G[co, n*cc] x cols^T: cols [kk, n*cc] is the B^T layout.
  gemm_tiled_bt(grad_out.data(), cols, weight_.grad.data(), co,
                static_cast<int>(ncols), kk, /*accumulate=*/true, n);
  // grad_cols[kx, cc] = W^T[kx, co] x G_i[co, cc] per sample i: W [co, kk]
  // is W^T stored transposed, its data rows packed straight into the tile
  // layout, and G_i is sample i's block of NCHW grad_out.
  static thread_local PackedGemmA wt_storage;
  // Pool workers must read this thread's pack: inside the lambda the
  // thread_local name would resolve to each worker's own.
  PackedGemmA& wt = wt_storage;
  pack_gemm_at(weight_.value.data(), kx, co, wt, kk);
  Tensor grad_in(x.shape());
  const std::size_t in_sample = static_cast<std::size_t>(cfg_.in_channels) *
                                plane;
  const std::size_t per_group = (static_cast<std::size_t>(n) + groups - 1) /
                                groups;
  util::parallel_for(kernel_pool(), 0, groups, [&](std::size_t gi) {
    float* sample_cols = grad_cols + gi * scratch;
    const std::size_t end =
        std::min(static_cast<std::size_t>(n), (gi + 1) * per_group);
    for (std::size_t i = gi * per_group; i < end; ++i) {
      gemm_tiled_pa(wt, grad_out.data() + i * co * cc, sample_cols,
                    static_cast<int>(cc), /*accumulate=*/false);
      col2im_batched(sample_cols, gx, 1, grad_in.data() + i * in_sample);
    }
  });
  return grad_in;
}

}  // namespace odenet::core
