// ReLU, Linear, GlobalAvgPool, SoftmaxCrossEntropy.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <new>

#include "core/activation.hpp"
#include "core/init.hpp"
#include "core/linear.hpp"
#include "core/pooling.hpp"
#include "core/softmax.hpp"
#include "util/rng.hpp"

// Counts this thread's heap allocations, for the in-place cache checks.
namespace {
thread_local std::size_t tl_allocations = 0;
}  // namespace

// Out of line, so the compiler pairs new with delete rather than the
// malloc and free inside them.
__attribute__((noinline)) void* operator new(std::size_t n) {
  ++tl_allocations;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
__attribute__((noinline)) void operator delete(void* p) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

using namespace odenet::core;
namespace ou = odenet::util;

namespace {
template <typename Fn>
std::size_t allocations(Fn&& fn) {
  const std::size_t before = tl_allocations;
  fn();
  return tl_allocations - before;
}

Tensor random_tensor(std::vector<int> shape, ou::Rng& rng) {
  Tensor t(std::move(shape));
  for (std::size_t i = 0; i < t.numel(); ++i) {
    t.data()[i] = static_cast<float>(rng.normal(0.0, 1.0));
  }
  return t;
}
}  // namespace

TEST(ReLU, ClampsNegatives) {
  ReLU relu;
  Tensor x({4});
  x.at1(0) = -1;
  x.at1(1) = 0;
  x.at1(2) = 2;
  x.at1(3) = -0.5;
  Tensor y = relu.forward(x);
  EXPECT_EQ(y.at1(0), 0.0f);
  EXPECT_EQ(y.at1(1), 0.0f);
  EXPECT_EQ(y.at1(2), 2.0f);
  EXPECT_EQ(y.at1(3), 0.0f);
}

TEST(ReLU, BackwardMasks) {
  ReLU relu;
  relu.set_training(true);
  Tensor x({3});
  x.at1(0) = -1;
  x.at1(1) = 3;
  x.at1(2) = 0;  // not strictly positive -> masked
  relu.forward(x);
  Tensor g = Tensor::full({3}, 5.0f);
  Tensor gin = relu.backward(g);
  EXPECT_EQ(gin.at1(0), 0.0f);
  EXPECT_EQ(gin.at1(1), 5.0f);
  EXPECT_EQ(gin.at1(2), 0.0f);
}

TEST(ReLU, TrainingMaskIsRefilledInPlace) {
  // Once the mask has the input's shape, a training forward allocates
  // only what an eval forward does (its output); the refilled mask is the
  // latest input's.
  ou::Rng rng(3);
  ReLU relu;
  const Tensor x = random_tensor({2, 3, 4, 4}, rng);
  (void)relu.forward(x);  // warm-up
  const std::size_t eval = allocations([&] { (void)relu.forward(x); });
  relu.set_training(true);
  (void)relu.forward(x);
  const Tensor x2 = random_tensor({2, 3, 4, 4}, rng);
  EXPECT_EQ(allocations([&] { (void)relu.forward(x2); }), eval);
  const Tensor gin = relu.backward(Tensor::full(x2.shape(), 1.0f));
  for (std::size_t i = 0; i < x2.numel(); ++i) {
    EXPECT_EQ(gin.data()[i], x2.data()[i] > 0.0f ? 1.0f : 0.0f) << i;
  }
  // A new shape regrows the mask.
  const Tensor x3 = random_tensor({1, 3, 4, 4}, rng);
  EXPECT_GT(allocations([&] { (void)relu.forward(x3); }), eval);
}

TEST(ReLU, BackwardWithoutForwardThrows) {
  ReLU relu;
  relu.set_training(true);
  EXPECT_THROW(relu.backward(Tensor({2})), odenet::Error);
}

TEST(Linear, ForwardMatchesManual) {
  Linear fc(2, 3);
  fc.weight().value.at2(0, 0) = 1;
  fc.weight().value.at2(0, 1) = 2;
  fc.weight().value.at2(1, 0) = -1;
  fc.weight().value.at2(2, 1) = 0.5;
  fc.bias().value.at1(2) = 10;
  Tensor x({1, 2});
  x.at2(0, 0) = 3;
  x.at2(0, 1) = 4;
  Tensor y = fc.forward(x);
  EXPECT_FLOAT_EQ(y.at2(0, 0), 11.0f);   // 3 + 8
  EXPECT_FLOAT_EQ(y.at2(0, 1), -3.0f);   // -3
  EXPECT_FLOAT_EQ(y.at2(0, 2), 12.0f);   // 2 + 10
}

TEST(Linear, GradMatchesFiniteDifference) {
  ou::Rng rng(1);
  Linear fc(4, 3);
  init_linear(fc, rng);
  fc.set_training(true);
  Tensor x = random_tensor({2, 4}, rng);
  Tensor gout = random_tensor({2, 3}, rng);
  fc.forward(x);
  Tensor gin = fc.backward(gout);

  const float eps = 1e-3f;
  // weight grad
  float orig = fc.weight().value.at2(1, 2);
  fc.weight().value.at2(1, 2) = orig + eps;
  float up = fc.forward(x).dot(gout);
  fc.weight().value.at2(1, 2) = orig - eps;
  float dn = fc.forward(x).dot(gout);
  fc.weight().value.at2(1, 2) = orig;
  EXPECT_NEAR(fc.weight().grad.at2(1, 2), (up - dn) / (2 * eps), 1e-2f);
  // bias grad
  orig = fc.bias().value.at1(0);
  fc.bias().value.at1(0) = orig + eps;
  up = fc.forward(x).dot(gout);
  fc.bias().value.at1(0) = orig - eps;
  dn = fc.forward(x).dot(gout);
  fc.bias().value.at1(0) = orig;
  EXPECT_NEAR(fc.bias().grad.at1(0), (up - dn) / (2 * eps), 1e-2f);
  // input grad
  orig = x.at2(0, 1);
  x.at2(0, 1) = orig + eps;
  up = fc.forward(x).dot(gout);
  x.at2(0, 1) = orig - eps;
  dn = fc.forward(x).dot(gout);
  x.at2(0, 1) = orig;
  EXPECT_NEAR(gin.at2(0, 1), (up - dn) / (2 * eps), 1e-2f);
}

// The fc layer runs on the tiled GEMM driver (forward X * W^T through
// gemm_tiled_bt; backward dW through pack_gemm_at + gemm_tiled_pa, dX
// through gemm_tiled); parity-check a non-trivial random case against the
// legacy per-element loops.
TEST(Linear, TiledKernelsMatchLegacyLoops) {
  ou::Rng rng(7);
  const int n = 9, in = 23, out = 13;
  Linear fc(in, out);
  init_linear(fc, rng);
  fc.set_training(true);
  Tensor x = random_tensor({n, in}, rng);
  Tensor gout = random_tensor({n, out}, rng);

  Tensor y = fc.forward(x);
  Tensor gin = fc.backward(gout);

  // Legacy forward: out[ni,o] = b[o] + sum_i W[o,i] * x[ni,i].
  for (int ni = 0; ni < n; ++ni) {
    for (int o = 0; o < out; ++o) {
      double acc = fc.bias().value.at1(o);
      for (int i = 0; i < in; ++i) {
        acc += static_cast<double>(fc.weight().value.at2(o, i)) *
               x.at2(ni, i);
      }
      EXPECT_NEAR(y.at2(ni, o), static_cast<float>(acc), 1e-4f)
          << ni << "," << o;
    }
  }
  // Legacy backward: dW[o,i] = sum_n g[n,o] x[n,i]; db[o] = sum_n g[n,o];
  // dX[n,i] = sum_o g[n,o] W[o,i].
  for (int o = 0; o < out; ++o) {
    double gb = 0.0;
    for (int ni = 0; ni < n; ++ni) gb += gout.at2(ni, o);
    EXPECT_NEAR(fc.bias().grad.at1(o), static_cast<float>(gb), 1e-4f) << o;
    for (int i = 0; i < in; ++i) {
      double gw = 0.0;
      for (int ni = 0; ni < n; ++ni) {
        gw += static_cast<double>(gout.at2(ni, o)) * x.at2(ni, i);
      }
      EXPECT_NEAR(fc.weight().grad.at2(o, i), static_cast<float>(gw), 1e-4f)
          << o << "," << i;
    }
  }
  for (int ni = 0; ni < n; ++ni) {
    for (int i = 0; i < in; ++i) {
      double gx = 0.0;
      for (int o = 0; o < out; ++o) {
        gx += static_cast<double>(gout.at2(ni, o)) *
              fc.weight().value.at2(o, i);
      }
      EXPECT_NEAR(gin.at2(ni, i), static_cast<float>(gx), 1e-4f)
          << ni << "," << i;
    }
  }
}

TEST(Linear, ParamCountMatchesPaperFc) {
  Linear fc(64, 100);
  EXPECT_EQ(fc.param_count(), 6500u);  // 26.00 kB in Table 2
}

TEST(GlobalAvgPool, AveragesPlane) {
  GlobalAvgPool gap;
  Tensor x({1, 2, 2, 2});
  x.at(0, 0, 0, 0) = 1;
  x.at(0, 0, 0, 1) = 2;
  x.at(0, 0, 1, 0) = 3;
  x.at(0, 0, 1, 1) = 4;
  x.at(0, 1, 0, 0) = 10;
  Tensor y = gap.forward(x);
  EXPECT_FLOAT_EQ(y.at2(0, 0), 2.5f);
  EXPECT_FLOAT_EQ(y.at2(0, 1), 2.5f);
}

TEST(GlobalAvgPool, BackwardSpreadsUniformly) {
  GlobalAvgPool gap;
  gap.set_training(true);
  gap.forward(Tensor({1, 1, 4, 4}));
  Tensor g({1, 1});
  g.at2(0, 0) = 16.0f;
  Tensor gin = gap.backward(g);
  for (int h = 0; h < 4; ++h)
    for (int w = 0; w < 4; ++w) EXPECT_FLOAT_EQ(gin.at(0, 0, h, w), 1.0f);
}

TEST(Softmax, RowsSumToOne) {
  ou::Rng rng(2);
  Tensor logits = random_tensor({5, 10}, rng);
  Tensor p = SoftmaxCrossEntropy::softmax(logits);
  for (int i = 0; i < 5; ++i) {
    double sum = 0;
    for (int c = 0; c < 10; ++c) {
      EXPECT_GE(p.at2(i, c), 0.0f);
      sum += p.at2(i, c);
    }
    EXPECT_NEAR(sum, 1.0, 1e-5);
  }
}

TEST(Softmax, StableForHugeLogits) {
  Tensor logits({1, 3});
  logits.at2(0, 0) = 1e4f;
  logits.at2(0, 1) = 1e4f - 1;
  logits.at2(0, 2) = -1e4f;
  Tensor p = SoftmaxCrossEntropy::softmax(logits);
  EXPECT_TRUE(std::isfinite(p.at2(0, 0)));
  EXPECT_GT(p.at2(0, 0), p.at2(0, 1));
  EXPECT_NEAR(p.at2(0, 2), 0.0f, 1e-6f);
}

TEST(Softmax, UniformLogitsGiveLogCLoss) {
  Tensor logits({2, 4});  // all zeros
  SoftmaxCrossEntropy ce;
  const float loss = ce.loss(logits, {0, 3});
  EXPECT_NEAR(loss, std::log(4.0f), 1e-5f);
}

TEST(Softmax, PerfectPredictionLowLoss) {
  Tensor logits({1, 3});
  logits.at2(0, 1) = 50.0f;
  SoftmaxCrossEntropy ce;
  EXPECT_LT(ce.loss(logits, {1}), 1e-4f);
}

TEST(Softmax, BackwardIsSoftmaxMinusOnehotOverN) {
  Tensor logits({2, 3});
  logits.at2(0, 0) = 1;
  logits.at2(1, 2) = 2;
  SoftmaxCrossEntropy ce;
  ce.loss(logits, {0, 1});
  Tensor g = ce.backward();
  Tensor p = SoftmaxCrossEntropy::softmax(logits);
  EXPECT_NEAR(g.at2(0, 0), (p.at2(0, 0) - 1) / 2, 1e-6f);
  EXPECT_NEAR(g.at2(0, 1), p.at2(0, 1) / 2, 1e-6f);
  EXPECT_NEAR(g.at2(1, 1), (p.at2(1, 1) - 1) / 2, 1e-6f);
}

TEST(Softmax, GradMatchesFiniteDifferenceOfLoss) {
  ou::Rng rng(3);
  Tensor logits = random_tensor({3, 5}, rng);
  std::vector<int> labels = {1, 4, 0};
  SoftmaxCrossEntropy ce;
  ce.loss(logits, labels);
  Tensor g = ce.backward();
  const float eps = 1e-3f;
  for (std::size_t i : {std::size_t{0}, std::size_t{6}, std::size_t{14}}) {
    const float orig = logits.data()[i];
    logits.data()[i] = orig + eps;
    const float up = SoftmaxCrossEntropy().loss(logits, labels);
    logits.data()[i] = orig - eps;
    const float dn = SoftmaxCrossEntropy().loss(logits, labels);
    logits.data()[i] = orig;
    EXPECT_NEAR(g.data()[i], (up - dn) / (2 * eps), 1e-3f);
  }
}

TEST(Softmax, ArgmaxPicksLargest) {
  Tensor logits({2, 3});
  logits.at2(0, 2) = 5;
  logits.at2(1, 0) = 1;
  auto pred = SoftmaxCrossEntropy::argmax(logits);
  EXPECT_EQ(pred, (std::vector<int>{2, 0}));
}

TEST(Softmax, RejectsBadLabels) {
  Tensor logits({1, 3});
  SoftmaxCrossEntropy ce;
  EXPECT_THROW(ce.loss(logits, {3}), odenet::Error);
  EXPECT_THROW(ce.loss(logits, {0, 1}), odenet::Error);
}
