// The batched im2col/col2im lowering against a naive lowering (the tap
// plan and the general walk, with and without a time plane), the
// transposed-A GEMM layout, and Conv2d against the naive reference
// convolution.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <tuple>

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

namespace {

/// The textbook lowering of a [N, C, H, W] batch (channel C-1 read from
/// tplane when it is given): row (c, kh, kw), column n * Ho*Wo + oh * Wo + ow.
template <typename T>
std::vector<T> naive_lowering(const std::vector<T>& src, const T* tplane,
                              const LoweringGeometry& g, int batch) {
  const int ho = g.out_h(), wo = g.out_w();
  const int data = g.channels - (tplane != nullptr ? 1 : 0);
  const std::size_t ncols = g.col_cols() * batch;
  std::vector<T> cols(g.col_rows() * ncols);
  for (int n = 0; n < batch; ++n)
    for (int c = 0; c < g.channels; ++c)
      for (int kh = 0; kh < g.kernel; ++kh)
        for (int kw = 0; kw < g.kernel; ++kw)
          for (int oh = 0; oh < ho; ++oh)
            for (int ow = 0; ow < wo; ++ow) {
              const int ih = oh * g.stride - g.pad + kh;
              const int iw = ow * g.stride - g.pad + kw;
              T v{};
              if (ih >= 0 && ih < g.height && iw >= 0 && iw < g.width) {
                const std::size_t at =
                    static_cast<std::size_t>(ih) * g.width + iw;
                v = c < data ? src[(static_cast<std::size_t>(n) * data + c) *
                                       g.height * g.width +
                                   at]
                             : tplane[at];
              }
              const std::size_t row =
                  (static_cast<std::size_t>(c) * g.kernel + kh) * g.kernel +
                  kw;
              cols[row * ncols + static_cast<std::size_t>(n) * ho * wo +
                   static_cast<std::size_t>(oh) * wo + ow] = v;
            }
  return cols;
}

/// The textbook scatter-add of a [C*K*K, N*Ho*Wo] column matrix onto
/// `init` ([N, C, H, W]), visiting (n, c, kh, kw, oh, ow) in order.
std::vector<float> naive_scatter(const std::vector<float>& cols,
                                 const LoweringGeometry& g, int batch,
                                 std::vector<float> init) {
  const int ho = g.out_h(), wo = g.out_w();
  const std::size_t ncols = g.col_cols() * batch;
  for (int n = 0; n < batch; ++n)
    for (int c = 0; c < g.channels; ++c)
      for (int kh = 0; kh < g.kernel; ++kh)
        for (int kw = 0; kw < g.kernel; ++kw)
          for (int oh = 0; oh < ho; ++oh)
            for (int ow = 0; ow < wo; ++ow) {
              const int ih = oh * g.stride - g.pad + kh;
              const int iw = ow * g.stride - g.pad + kw;
              if (ih < 0 || ih >= g.height || iw < 0 || iw >= g.width) {
                continue;
              }
              const std::size_t row =
                  (static_cast<std::size_t>(c) * g.kernel + kh) * g.kernel +
                  kw;
              init[((static_cast<std::size_t>(n) * g.channels + c) *
                        g.height +
                    ih) *
                       g.width +
                   iw] += cols[row * ncols +
                               static_cast<std::size_t>(n) * ho * wo +
                               static_cast<std::size_t>(oh) * wo + ow];
            }
  return init;
}

/// im2col_batched (float) and im2col_batched_i16 against the naive
/// lowering, bitwise, into buffers pre-filled with a sentinel so a write
/// outside a sample's rows or columns shows too; then col2im_batched
/// against the naive scatter, bitwise.
void check_lowering(const LoweringGeometry& g, int batch, bool time_channel,
                    ou::Rng& rng) {
  SCOPED_TRACE(testing::Message()
               << "c=" << g.channels << " h=" << g.height << " w=" << g.width
               << " k=" << g.kernel << " s=" << g.stride << " p=" << g.pad
               << " n=" << batch << (time_channel ? " tc" : ""));
  const std::size_t plane = static_cast<std::size_t>(g.height) * g.width;
  const int data = g.channels - (time_channel ? 1 : 0);
  std::vector<float> src(static_cast<std::size_t>(batch) * data * plane);
  for (auto& v : src) v = static_cast<float>(rng.normal(0, 1));
  const std::vector<float> tplane(plane, 0.375f);
  const float* tp = time_channel ? tplane.data() : nullptr;
  const std::vector<float> want = naive_lowering(src, tp, g, batch);
  std::vector<float> got(want.size(), -7.0f);
  im2col_batched(src.data(), g, batch, got.data(), tp);
  ASSERT_EQ(0, std::memcmp(got.data(), want.data(),
                           want.size() * sizeof(float)));

  std::vector<std::int16_t> src16(src.size());
  for (std::size_t i = 0; i < src.size(); ++i) {
    src16[i] = static_cast<std::int16_t>(src[i] * 1000.0f);
  }
  const std::vector<std::int16_t> tplane16(plane, 375);
  const std::int16_t* tp16 = time_channel ? tplane16.data() : nullptr;
  const std::vector<std::int16_t> want16 =
      naive_lowering(src16, tp16, g, batch);
  std::vector<std::int16_t> got16(want16.size(), -7);
  im2col_batched_i16(src16.data(), g, batch, got16.data(), tp16);
  ASSERT_EQ(0, std::memcmp(got16.data(), want16.data(),
                           want16.size() * sizeof(std::int16_t)));

  // col2im over the data channels' rows (a conv's input gradient has no
  // time-channel rows) onto a partial sum, against the naive scatter.
  LoweringGeometry gx = g;
  gx.channels = data;
  std::vector<float> cols(gx.col_rows() * gx.col_cols() * batch);
  for (auto& v : cols) v = static_cast<float>(rng.normal(0, 1));
  std::vector<float> dx(src.size());
  for (auto& v : dx) v = static_cast<float>(rng.normal(0, 1));
  const std::vector<float> dx_want = naive_scatter(cols, gx, batch, dx);
  col2im_batched(cols.data(), gx, batch, dx.data());
  ASSERT_EQ(0, std::memcmp(dx.data(), dx_want.data(),
                           dx.size() * sizeof(float)));
}

}  // namespace

TEST(Im2col, MatchesNaiveLoweringAcrossKernelsAndPads) {
  // Stride 1 at every pad from 0 to k-1: the "same" pad (k-1)/2 lowers
  // and scatters through the tap plan (up to 7x7), every other pad — and
  // the 9x9 kernel above the plan's cap — through the general walk.
  // Stride 2 is the downsampling convs' geometry.
  ou::Rng rng(12);
  for (int k : {1, 3, 5, 7, 9}) {
    for (int stride : {1, 2}) {
      for (int pad = 0; pad < k; ++pad) {
        const int base = std::max(k - 2 * pad, 1);
        const LoweringGeometry g{.channels = 3, .height = base + 2,
                                 .width = base + 3, .kernel = k,
                                 .stride = stride, .pad = pad};
        check_lowering(g, 3, /*time_channel=*/false, rng);
        check_lowering(g, 2, /*time_channel=*/true, rng);
      }
    }
  }
  // Taps further off the plane than it has rows or columns: k = 5, pad = 2
  // (and 7, 3) on a one-row input, whose zeroing must stay inside each
  // sample's row block; and the same on one-column inputs.
  for (const auto& [k, h, w] :
       {std::tuple{3, 1, 6}, std::tuple{5, 1, 6}, std::tuple{7, 1, 4},
        std::tuple{3, 5, 1}, std::tuple{5, 6, 1}, std::tuple{7, 3, 1},
        std::tuple{5, 1, 1}}) {
    const LoweringGeometry g{.channels = 2, .height = h, .width = w,
                             .kernel = k, .stride = 1, .pad = k / 2};
    check_lowering(g, 3, /*time_channel=*/false, rng);
    check_lowering(g, 3, /*time_channel=*/true, rng);
  }
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
  bool implicit;  // the forward lowers inside the GEMM's panel fill
};

class ConvMatchesReference : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvMatchesReference, Forward) {
  const auto p = GetParam();
  ou::Rng rng(5);
  Conv2d conv({.in_channels = p.cin, .out_channels = p.cout,
               .stride = p.stride, .time_channel = p.time_channel});
  init_conv(conv, rng);
  conv.set_time(0.7f);

  EXPECT_EQ(gemm_implicit_lowering_ok(conv.lowering(p.size, p.size), p.cout),
            p.implicit);

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

// The time-channel cases cover batches 1, 3 and 8 on both lowerings:
// implicit at 8x8 and 16x16; explicit at stride 2, on the 6x6 and 10x10
// planes whose H*W % 16 != 0 (a 12- and a 20-pixel input after two
// downsamples), and at 12x12 and 20x20, whose planes are multiples of 16,
// with a Cout that is not a multiple of 4.
INSTANTIATE_TEST_SUITE_P(
    Shapes, ConvMatchesReference,
    ::testing::Values(ConvCase{1, 3, 4, 8, 1, false, true},
                      ConvCase{2, 4, 4, 6, 1, false, false},
                      ConvCase{1, 3, 8, 8, 2, false, false},
                      ConvCase{2, 2, 3, 5, 1, true, false},
                      ConvCase{1, 4, 4, 8, 1, true, true},
                      ConvCase{3, 3, 8, 8, 1, true, true},
                      ConvCase{8, 2, 4, 16, 1, true, true},
                      ConvCase{3, 4, 4, 12, 2, true, false},
                      ConvCase{8, 3, 4, 20, 2, true, false},
                      ConvCase{1, 3, 4, 6, 1, true, false},
                      ConvCase{3, 2, 8, 10, 1, true, false},
                      ConvCase{8, 2, 3, 12, 1, true, false},
                      ConvCase{3, 3, 5, 20, 1, true, false}));
