// The batched im2col/col2im lowering (at batch 1), the transposed-A GEMM
// layout, and Conv2d against the naive reference convolution.
#include <gtest/gtest.h>

#include "conv_reference.hpp"
#include "core/conv2d.hpp"
#include "core/im2col.hpp"
#include "core/init.hpp"
#include "util/rng.hpp"

using namespace odenet::core;
namespace ou = odenet::util;

namespace {
Tensor random_tensor(std::vector<int> shape, ou::Rng& rng) {
  Tensor t(std::move(shape));
  for (std::size_t i = 0; i < t.numel(); ++i) {
    t.data()[i] = static_cast<float>(rng.normal(0.0, 1.0));
  }
  return t;
}
}  // namespace

TEST(Im2col, GeometryFormulas) {
  LoweringGeometry g{.channels = 3, .height = 8, .width = 8};
  EXPECT_EQ(g.out_h(), 8);
  EXPECT_EQ(g.col_rows(), 27u);
  EXPECT_EQ(g.col_cols(), 64u);
  LoweringGeometry s2{.channels = 2, .height = 8, .width = 8, .stride = 2};
  EXPECT_EQ(s2.out_h(), 4);
}

TEST(Im2col, UnfoldsCenterTapExactly) {
  // With k=3, pad=1, stride=1 the center tap row (kh=kw=1) is the image
  // itself.
  LoweringGeometry g{.channels = 1, .height = 3, .width = 3};
  float src[9];
  for (int i = 0; i < 9; ++i) src[i] = static_cast<float>(i + 1);
  std::vector<float> cols(g.col_rows() * g.col_cols());
  im2col_batched(src, g, 1, cols.data());
  const float* center = cols.data() + 4 * g.col_cols();  // row kh=1,kw=1
  for (int i = 0; i < 9; ++i) EXPECT_EQ(center[i], src[i]);
  // Top-left tap at output (0,0) reads the zero padding.
  EXPECT_EQ(cols[0], 0.0f);
  // Top-left tap at output (1,1) reads src(0,0).
  EXPECT_EQ(cols[4], 1.0f);
}

TEST(Im2col, Col2imIsAdjointOfIm2col) {
  // <im2col(x), y> == <x, col2im(y)> for random x, y.
  ou::Rng rng(2);
  LoweringGeometry g{.channels = 3, .height = 5, .width = 7, .stride = 2};
  std::vector<float> x(static_cast<std::size_t>(3) * 5 * 7);
  for (auto& v : x) v = static_cast<float>(rng.normal(0, 1));
  std::vector<float> y(g.col_rows() * g.col_cols());
  for (auto& v : y) v = static_cast<float>(rng.normal(0, 1));

  std::vector<float> cols(y.size());
  im2col_batched(x.data(), g, 1, cols.data());
  double lhs = 0;
  for (std::size_t i = 0; i < y.size(); ++i) lhs += cols[i] * y[i];

  std::vector<float> back(x.size(), 0.0f);
  col2im_batched(y.data(), g, 1, back.data());
  double rhs = 0;
  for (std::size_t i = 0; i < x.size(); ++i) rhs += x[i] * back[i];

  EXPECT_NEAR(lhs, rhs, 1e-3);
}

TEST(Im2col, GemmTransposedVariants) {
  ou::Rng rng(4);
  const int m = 4, k = 6, n = 3;
  std::vector<float> at(k * m), b(k * n);
  for (auto& v : at) v = static_cast<float>(rng.normal(0, 1));
  for (auto& v : b) v = static_cast<float>(rng.normal(0, 1));

  // C = A B with A stored transposed, [k,m].
  std::vector<float> c1(m * n), ref1(m * n, 0.0f);
  for (int i = 0; i < m; ++i)
    for (int p = 0; p < k; ++p)
      for (int j = 0; j < n; ++j)
        ref1[i * n + j] += at[p * m + i] * b[p * n + j];
  PackedGemmA pa;
  pack_gemm_at(at.data(), m, k, pa);
  gemm_tiled_pa(pa, b.data(), c1.data(), n, false);
  for (int i = 0; i < m * n; ++i) EXPECT_NEAR(c1[i], ref1[i], 1e-4f);
}

struct ConvCase {
  int n, cin, cout, size, stride;
  bool time_channel;
};

class ConvMatchesReference : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvMatchesReference, Forward) {
  const auto p = GetParam();
  ou::Rng rng(5);
  Conv2d conv({.in_channels = p.cin, .out_channels = p.cout,
               .stride = p.stride, .time_channel = p.time_channel});
  init_conv(conv, rng);
  conv.set_time(0.7f);

  Tensor x = random_tensor({p.n, p.cin, p.size, p.size}, rng);
  const Tensor x_in =
      p.time_channel ? conv_reference::with_time_plane(x, 0.7f) : x;
  Tensor a = conv_reference::forward(x_in, conv.weight().value, p.stride, 1);
  Tensor b = conv.forward(x);
  ASSERT_TRUE(a.same_shape(b));
  for (std::size_t i = 0; i < a.numel(); ++i) {
    EXPECT_NEAR(a.data()[i], b.data()[i], 1e-4f) << "at " << i;
  }
}

TEST_P(ConvMatchesReference, Backward) {
  const auto p = GetParam();
  ou::Rng rng(6);
  Conv2d conv({.in_channels = p.cin, .out_channels = p.cout,
               .stride = p.stride, .time_channel = p.time_channel});
  init_conv(conv, rng);
  conv.set_training(true);
  conv.set_time(0.3f);

  Tensor x = random_tensor({p.n, p.cin, p.size, p.size}, rng);
  const int ho = Conv2d::out_extent(p.size, 3, p.stride, 1);
  Tensor g = random_tensor({p.n, p.cout, ho, ho}, rng);

  const Tensor x_in =
      p.time_channel ? conv_reference::with_time_plane(x, 0.3f) : x;
  conv_reference::Grads ref =
      conv_reference::backward(x_in, conv.weight().value, g, p.stride, 1);
  const Tensor gin_a = p.time_channel
                           ? conv_reference::without_time_plane(ref.dx)
                           : ref.dx;
  conv.forward(x);
  Tensor gin_b = conv.backward(g);

  ASSERT_TRUE(gin_a.same_shape(gin_b));
  for (std::size_t i = 0; i < gin_a.numel(); ++i) {
    EXPECT_NEAR(gin_a.data()[i], gin_b.data()[i], 1e-3f) << "gin " << i;
  }
  for (std::size_t i = 0; i < ref.dw.numel(); ++i) {
    EXPECT_NEAR(ref.dw.data()[i], conv.weight().grad.data()[i], 1e-3f)
        << "gw " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ConvMatchesReference,
    ::testing::Values(ConvCase{1, 3, 4, 8, 1, false},
                      ConvCase{2, 4, 4, 6, 1, false},
                      ConvCase{1, 3, 8, 8, 2, false},
                      ConvCase{2, 2, 3, 5, 1, true},
                      ConvCase{1, 4, 4, 8, 1, true}));
