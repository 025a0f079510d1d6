// Naive convolution reference for the conv tests: the textbook loop nest
// with double accumulation, and its adjoint (dX and dW). core::Conv2d has
// one algorithm (batched im2col + GEMM); these loops share no code with it
// and are the golden values its forward and backward are checked against.
// Taps outside the image read zero.
#pragma once

#include <vector>

#include "core/tensor.hpp"

namespace conv_reference {

using odenet::core::Tensor;

/// x [N,C,H,W] with one constant plane of value t appended per sample —
/// the input a time_channel conv actually convolves.
inline Tensor with_time_plane(const Tensor& x, float t) {
  const int n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  Tensor out({n, c + 1, h, w});
  for (int ni = 0; ni < n; ++ni)
    for (int ci = 0; ci <= c; ++ci)
      for (int y = 0; y < h; ++y)
        for (int col = 0; col < w; ++col)
          out.at(ni, ci, y, col) = ci < c ? x.at(ni, ci, y, col) : t;
  return out;
}

/// g [N,C+1,H,W] without its last channel plane: the data-input part of
/// a time_channel conv's input gradient.
inline Tensor without_time_plane(const Tensor& g) {
  const int n = g.dim(0), c = g.dim(1) - 1, h = g.dim(2), w = g.dim(3);
  Tensor out({n, c, h, w});
  for (int ni = 0; ni < n; ++ni)
    for (int ci = 0; ci < c; ++ci)
      for (int y = 0; y < h; ++y)
        for (int col = 0; col < w; ++col)
          out.at(ni, ci, y, col) = g.at(ni, ci, y, col);
  return out;
}

/// y = conv(x, w): x [N,C,H,W], w [Co,C,K,K] -> y [N,Co,Ho,Wo].
inline Tensor forward(const Tensor& x, const Tensor& w, int stride, int pad) {
  const int n = x.dim(0), ci = x.dim(1), h = x.dim(2), wd = x.dim(3);
  const int co = w.dim(0), k = w.dim(2);
  const int ho = (h + 2 * pad - k) / stride + 1;
  const int wo = (wd + 2 * pad - k) / stride + 1;
  Tensor out({n, co, ho, wo});
  for (int ni = 0; ni < n; ++ni)
    for (int o = 0; o < co; ++o)
      for (int oh = 0; oh < ho; ++oh)
        for (int ow = 0; ow < wo; ++ow) {
          double acc = 0.0;
          for (int c = 0; c < ci; ++c)
            for (int kh = 0; kh < k; ++kh)
              for (int kw = 0; kw < k; ++kw) {
                const int ih = oh * stride - pad + kh;
                const int iw = ow * stride - pad + kw;
                if (ih < 0 || ih >= h || iw < 0 || iw >= wd) continue;
                acc += static_cast<double>(x.at(ni, c, ih, iw)) *
                       w.at(o, c, kh, kw);
              }
          out.at(ni, o, oh, ow) = static_cast<float>(acc);
        }
  return out;
}

struct Grads {
  Tensor dx;  // shape of x
  Tensor dw;  // shape of w
};

/// The adjoint of forward() at upstream gradient dy [N,Co,Ho,Wo].
inline Grads backward(const Tensor& x, const Tensor& w, const Tensor& dy,
                      int stride, int pad) {
  const int n = x.dim(0), ci = x.dim(1), h = x.dim(2), wd = x.dim(3);
  const int co = w.dim(0), k = w.dim(2);
  const int ho = dy.dim(2), wo = dy.dim(3);
  std::vector<double> dx(x.numel(), 0.0), dw(w.numel(), 0.0);
  auto xi = [&](int ni, int c, int ih, int iw) {
    return ((static_cast<std::size_t>(ni) * ci + c) * h + ih) * wd + iw;
  };
  auto wi = [&](int o, int c, int kh, int kw) {
    return ((static_cast<std::size_t>(o) * ci + c) * k + kh) * k + kw;
  };
  for (int ni = 0; ni < n; ++ni)
    for (int o = 0; o < co; ++o)
      for (int oh = 0; oh < ho; ++oh)
        for (int ow = 0; ow < wo; ++ow) {
          const double g = dy.at(ni, o, oh, ow);
          for (int c = 0; c < ci; ++c)
            for (int kh = 0; kh < k; ++kh)
              for (int kw = 0; kw < k; ++kw) {
                const int ih = oh * stride - pad + kh;
                const int iw = ow * stride - pad + kw;
                if (ih < 0 || ih >= h || iw < 0 || iw >= wd) continue;
                dx[xi(ni, c, ih, iw)] += g * w.at(o, c, kh, kw);
                dw[wi(o, c, kh, kw)] += g * x.at(ni, c, ih, iw);
              }
        }
  Grads out{Tensor(x.shape()), Tensor(w.shape())};
  for (std::size_t i = 0; i < dx.size(); ++i) {
    out.dx.data()[i] = static_cast<float>(dx[i]);
  }
  for (std::size_t i = 0; i < dw.size(); ++i) {
    out.dw.data()[i] = static_cast<float>(dw[i]);
  }
  return out;
}

}  // namespace conv_reference
