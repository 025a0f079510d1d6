// Conv2d: forward vs a naive reference, finite-difference gradient checks,
// and the concat-time-channel behaviour the parameter accounting relies on.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <tuple>

#include "conv_reference.hpp"
#include "core/conv2d.hpp"
#include "core/init.hpp"
#include "util/rng.hpp"

using odenet::core::Conv2d;
using odenet::core::Conv2dConfig;
using odenet::core::Tensor;
namespace ou = odenet::util;

namespace {

Tensor random_tensor(std::vector<int> shape, ou::Rng& rng, double scale = 1.0) {
  Tensor t(std::move(shape));
  for (std::size_t i = 0; i < t.numel(); ++i) {
    t.data()[i] = static_cast<float>(rng.normal(0.0, scale));
  }
  return t;
}

}  // namespace

struct ConvCase {
  int n, cin, cout, size, stride;
};

class ConvForward : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvForward, MatchesReference) {
  const auto p = GetParam();
  ou::Rng rng(42);
  Conv2d conv({.in_channels = p.cin,
               .out_channels = p.cout,
               .kernel = 3,
               .stride = p.stride,
               .pad = 1});
  odenet::core::init_conv(conv, rng);
  Tensor x = random_tensor({p.n, p.cin, p.size, p.size}, rng);
  Tensor got = conv.forward(x);
  Tensor want = conv_reference::forward(x, conv.weight().value, p.stride, 1);
  ASSERT_TRUE(got.same_shape(want)) << got.shape_str();
  for (std::size_t i = 0; i < got.numel(); ++i) {
    EXPECT_NEAR(got.data()[i], want.data()[i], 1e-4f) << "at " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ConvForward,
    ::testing::Values(ConvCase{1, 1, 1, 5, 1}, ConvCase{1, 3, 4, 8, 1},
                      ConvCase{2, 4, 4, 6, 1}, ConvCase{1, 3, 8, 8, 2},
                      ConvCase{2, 8, 16, 8, 2}, ConvCase{3, 2, 5, 7, 1}));

TEST(Conv2d, OutExtentFormula) {
  EXPECT_EQ(Conv2d::out_extent(32, 3, 1, 1), 32);
  EXPECT_EQ(Conv2d::out_extent(32, 3, 2, 1), 16);
  EXPECT_EQ(Conv2d::out_extent(8, 3, 2, 1), 4);
  EXPECT_THROW(Conv2d::out_extent(1, 3, 1, 0), odenet::Error);
}

TEST(Conv2d, MacCountMatchesPaperLayer3_2) {
  // 64ch -> 64ch over 8x8: 8*8*64*64*9 = 2,359,296 MACs per conv.
  Conv2d conv({.in_channels = 64, .out_channels = 64});
  EXPECT_EQ(conv.mac_count(8, 8), 2359296u);
}

TEST(Conv2d, WeightGradMatchesFiniteDifference) {
  ou::Rng rng(1);
  Conv2d conv({.in_channels = 2, .out_channels = 3});
  odenet::core::init_conv(conv, rng);
  conv.set_training(true);
  Tensor x = random_tensor({1, 2, 4, 4}, rng);
  Tensor gout = random_tensor({1, 3, 4, 4}, rng);

  conv.forward(x);
  conv.backward(gout);
  Tensor analytic = conv.weight().grad;

  // L(w) = sum(forward(x) * gout); dL/dw_i checked by central differences.
  const float eps = 1e-3f;
  for (std::size_t i : {std::size_t{0}, std::size_t{7}, std::size_t{25},
                        analytic.numel() - 1}) {
    float& wi = conv.weight().value.data()[i];
    const float orig = wi;
    wi = orig + eps;
    const float up = conv.forward(x).dot(gout);
    wi = orig - eps;
    const float dn = conv.forward(x).dot(gout);
    wi = orig;
    const float fd = (up - dn) / (2 * eps);
    EXPECT_NEAR(analytic.data()[i], fd, 2e-2f) << "weight index " << i;
  }
}

TEST(Conv2d, InputGradMatchesFiniteDifference) {
  ou::Rng rng(2);
  Conv2d conv({.in_channels = 2, .out_channels = 2, .stride = 2});
  odenet::core::init_conv(conv, rng);
  conv.set_training(true);
  Tensor x = random_tensor({1, 2, 6, 6}, rng);
  Tensor gout = random_tensor({1, 2, 3, 3}, rng);

  conv.forward(x);
  Tensor gin = conv.backward(gout);

  const float eps = 1e-3f;
  for (std::size_t i : {std::size_t{0}, std::size_t{17}, std::size_t{40}}) {
    const float orig = x.data()[i];
    x.data()[i] = orig + eps;
    const float up = conv.forward(x).dot(gout);
    x.data()[i] = orig - eps;
    const float dn = conv.forward(x).dot(gout);
    x.data()[i] = orig;
    EXPECT_NEAR(gin.data()[i], (up - dn) / (2 * eps), 2e-2f) << "input " << i;
  }
}

TEST(Conv2d, GradAccumulatesAcrossCalls) {
  ou::Rng rng(3);
  Conv2d conv({.in_channels = 1, .out_channels = 1});
  odenet::core::init_conv(conv, rng);
  conv.set_training(true);
  Tensor x = random_tensor({1, 1, 4, 4}, rng);
  Tensor g = random_tensor({1, 1, 4, 4}, rng);

  conv.forward(x);
  conv.backward(g);
  Tensor once = conv.weight().grad;
  conv.forward(x);
  conv.backward(g);
  for (std::size_t i = 0; i < once.numel(); ++i) {
    EXPECT_NEAR(conv.weight().grad.data()[i], 2 * once.data()[i], 1e-4f);
  }
  conv.zero_grads();
  EXPECT_EQ(conv.weight().grad.abs_max(), 0.0f);
}

TEST(Conv2dTime, WeightShapeHasExtraPlane) {
  Conv2d conv({.in_channels = 16, .out_channels = 16, .time_channel = true});
  EXPECT_EQ(conv.weight().value.shape(),
            (std::vector<int>{16, 17, 3, 3}));
  // Parameter count matches the Table-2 accounting for one ODE conv.
  EXPECT_EQ(conv.weight().value.numel(), 16u * 17 * 9);
}

TEST(Conv2dTime, TimeContributionIsAffine) {
  // f(x, t) - f(x, 0) must be exactly linear in t.
  ou::Rng rng(4);
  Conv2d conv({.in_channels = 2, .out_channels = 2, .time_channel = true});
  odenet::core::init_conv(conv, rng);
  Tensor x = random_tensor({1, 2, 5, 5}, rng);

  conv.set_time(0.0f);
  Tensor y0 = conv.forward(x);
  conv.set_time(1.0f);
  Tensor y1 = conv.forward(x);
  conv.set_time(2.0f);
  Tensor y2 = conv.forward(x);

  for (std::size_t i = 0; i < y0.numel(); ++i) {
    const float d1 = y1.data()[i] - y0.data()[i];
    const float d2 = y2.data()[i] - y0.data()[i];
    EXPECT_NEAR(d2, 2 * d1, 1e-4f) << "not affine in t at " << i;
  }
}

TEST(Conv2dTime, ZeroTimeStillUsesPadding) {
  // With t=0 the time plane is all zeros -> output equals plain conv with
  // the data sub-kernel.
  ou::Rng rng(5);
  Conv2d tc({.in_channels = 2, .out_channels = 2, .time_channel = true});
  odenet::core::init_conv(tc, rng);
  Conv2d plain({.in_channels = 2, .out_channels = 2});
  // Copy the data-channel part of the weights.
  for (int o = 0; o < 2; ++o)
    for (int c = 0; c < 2; ++c)
      for (int kh = 0; kh < 3; ++kh)
        for (int kw = 0; kw < 3; ++kw)
          plain.weight().value.at(o, c, kh, kw) =
              tc.weight().value.at(o, c, kh, kw);

  Tensor x = random_tensor({1, 2, 4, 4}, rng);
  tc.set_time(0.0f);
  Tensor a = tc.forward(x);
  Tensor b = plain.forward(x);
  for (std::size_t i = 0; i < a.numel(); ++i) {
    EXPECT_NEAR(a.data()[i], b.data()[i], 1e-5f);
  }
}

TEST(Conv2dTime, BackwardStripsTimePlaneGrad) {
  ou::Rng rng(6);
  Conv2d conv({.in_channels = 3, .out_channels = 2, .time_channel = true});
  odenet::core::init_conv(conv, rng);
  conv.set_training(true);
  conv.set_time(0.5f);
  Tensor x = random_tensor({2, 3, 4, 4}, rng);
  conv.forward(x);
  Tensor gin = conv.backward(random_tensor({2, 2, 4, 4}, rng));
  // Gradient w.r.t. the data input only: same shape as x.
  EXPECT_TRUE(gin.same_shape(x));
}

TEST(Conv2dTime, BackwardUsesTheForwardsTime) {
  // set_time() between forward and backward must not move the gradients:
  // the conv lowers its cached input again at the t the forward ran at.
  // Implicit (8x8) and explicit (6x6) forward lowerings.
  for (int size : {8, 6}) {
    ou::Rng rng(8);
    Conv2d a({.in_channels = 3, .out_channels = 4, .time_channel = true});
    odenet::core::init_conv(a, rng);
    Conv2d b({.in_channels = 3, .out_channels = 4, .time_channel = true});
    b.weight().value = a.weight().value;
    Tensor x = random_tensor({2, 3, size, size}, rng);
    Tensor g = random_tensor({2, 4, size, size}, rng);
    for (Conv2d* conv : {&a, &b}) {
      conv->set_training(true);
      conv->set_time(0.5f);
      conv->forward(x);
    }
    b.set_time(2.0f);
    Tensor ga = a.backward(g);
    Tensor gb = b.backward(g);
    ASSERT_TRUE(ga.same_shape(gb));
    EXPECT_EQ(0, std::memcmp(ga.data(), gb.data(), ga.numel() * sizeof(float)))
        << "dX at " << size;
    EXPECT_EQ(0, std::memcmp(a.weight().grad.data(), b.weight().grad.data(),
                             a.weight().grad.numel() * sizeof(float)))
        << "dW at " << size;

    // And both match the reference at the forward's t.
    const Tensor x_in = conv_reference::with_time_plane(x, 0.5f);
    const conv_reference::Grads ref =
        conv_reference::backward(x_in, a.weight().value, g, 1, 1);
    const Tensor dx_ref = conv_reference::without_time_plane(ref.dx);
    for (std::size_t i = 0; i < gb.numel(); ++i) {
      ASSERT_NEAR(gb.data()[i], dx_ref.data()[i], 1e-4f) << "dX " << i;
    }
    for (std::size_t i = 0; i < ref.dw.numel(); ++i) {
      ASSERT_NEAR(b.weight().grad.data()[i], ref.dw.data()[i], 1e-4f)
          << "dW " << i;
    }
  }
}

TEST(Conv2dTime, TimeWeightsReceiveGradient) {
  ou::Rng rng(7);
  Conv2d conv({.in_channels = 1, .out_channels = 1, .time_channel = true});
  odenet::core::init_conv(conv, rng);
  conv.set_training(true);
  conv.set_time(1.0f);  // nonzero so the time plane contributes
  Tensor x = random_tensor({1, 1, 4, 4}, rng);
  conv.forward(x);
  conv.backward(Tensor::full({1, 1, 4, 4}, 1.0f));
  // The time-plane weights (input plane index 1) must have nonzero grads.
  float tmax = 0;
  for (int kh = 0; kh < 3; ++kh)
    for (int kw = 0; kw < 3; ++kw)
      tmax = std::max(tmax, std::fabs(conv.weight().grad.at(0, 1, kh, kw)));
  EXPECT_GT(tmax, 0.0f);
}

TEST(Conv2d, RejectsBadInput) {
  Conv2d conv({.in_channels = 3, .out_channels = 4});
  EXPECT_THROW(conv.forward(Tensor({1, 2, 8, 8})), odenet::Error);
  EXPECT_THROW(conv.forward(Tensor({3, 8, 8})), odenet::Error);
  EXPECT_THROW(conv.backward(Tensor({1, 4, 8, 8})), odenet::Error);
}
