// Optimizer, LR schedule, metrics, and training steps bitwise across the
// GEMM kernel tiers.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "kernel_tiers.hpp"
#include "models/network.hpp"
#include "train/metrics.hpp"
#include "train/sgd.hpp"
#include "util/rng.hpp"

using namespace odenet::train;
using odenet::core::Param;
using odenet::core::Tensor;

namespace {
Param make_param(std::vector<float> values) {
  Tensor t({static_cast<int>(values.size())});
  for (std::size_t i = 0; i < values.size(); ++i) t.at1(static_cast<int>(i)) = values[i];
  return Param("p", std::move(t));
}
}  // namespace

TEST(Sgd, PlainStepMath) {
  Param p = make_param({1.0f});
  p.grad.at1(0) = 0.5f;
  Sgd opt({&p}, {.learning_rate = 0.1, .momentum = 0.0, .weight_decay = 0.0});
  opt.step();
  // w <- 1 - 0.1*0.5 = 0.95.
  EXPECT_NEAR(p.value.at1(0), 0.95f, 1e-6f);
}

TEST(Sgd, WeightDecayAddsToGradient) {
  Param p = make_param({2.0f});
  p.grad.at1(0) = 0.0f;
  Sgd opt({&p}, {.learning_rate = 0.1, .momentum = 0.0, .weight_decay = 1e-1});
  opt.step();
  // effective grad = 0 + 0.1*2 = 0.2; w <- 2 - 0.02 = 1.98.
  EXPECT_NEAR(p.value.at1(0), 1.98f, 1e-6f);
}

TEST(Sgd, MomentumAccumulates) {
  Param p = make_param({0.0f});
  Sgd opt({&p}, {.learning_rate = 1.0, .momentum = 0.5, .weight_decay = 0.0});
  p.grad.at1(0) = 1.0f;
  opt.step();  // v=1, w=-1
  EXPECT_NEAR(p.value.at1(0), -1.0f, 1e-6f);
  p.grad.at1(0) = 1.0f;
  opt.step();  // v=1.5, w=-2.5
  EXPECT_NEAR(p.value.at1(0), -2.5f, 1e-6f);
  p.grad.at1(0) = 0.0f;
  opt.step();  // v=0.75, w=-3.25 (momentum coasts)
  EXPECT_NEAR(p.value.at1(0), -3.25f, 1e-6f);
}

TEST(Sgd, ZeroGradsClears) {
  Param p = make_param({1.0f});
  p.grad.at1(0) = 3.0f;
  Sgd opt({&p}, {});
  opt.zero_grads();
  EXPECT_EQ(p.grad.at1(0), 0.0f);
}

TEST(Sgd, RejectsBadConfig) {
  Param p = make_param({1.0f});
  EXPECT_THROW(Sgd({&p}, {.learning_rate = 0.0}), odenet::Error);
  EXPECT_THROW(Sgd({&p}, {.momentum = 1.0}), odenet::Error);
  EXPECT_THROW(Sgd({}, {}), odenet::Error);
}

TEST(LrSchedule, PaperSchedule) {
  // 0.01, /10 at 100 and 150 (paper §4.3).
  LrSchedule s;
  EXPECT_DOUBLE_EQ(s.lr_at(0), 0.01);
  EXPECT_DOUBLE_EQ(s.lr_at(99), 0.01);
  EXPECT_DOUBLE_EQ(s.lr_at(100), 0.001);
  EXPECT_DOUBLE_EQ(s.lr_at(149), 0.001);
  EXPECT_DOUBLE_EQ(s.lr_at(150), 0.0001);
  EXPECT_DOUBLE_EQ(s.lr_at(199), 0.0001);
}

TEST(LrSchedule, CustomMilestones) {
  LrSchedule s{.base_lr = 1.0, .milestones = {2, 4}, .factor = 0.5};
  EXPECT_DOUBLE_EQ(s.lr_at(1), 1.0);
  EXPECT_DOUBLE_EQ(s.lr_at(2), 0.5);
  EXPECT_DOUBLE_EQ(s.lr_at(4), 0.25);
}

TEST(Metrics, Top1) {
  Tensor logits({3, 3});
  logits.at2(0, 0) = 1;   // pred 0, label 0: hit
  logits.at2(1, 2) = 1;   // pred 2, label 1: miss
  logits.at2(2, 1) = 1;   // pred 1, label 1: hit
  EXPECT_NEAR(top1_accuracy(logits, {0, 1, 1}), 2.0 / 3.0, 1e-9);
}

TEST(Metrics, TopK) {
  Tensor logits({1, 4});
  logits.at2(0, 0) = 4;
  logits.at2(0, 1) = 3;
  logits.at2(0, 2) = 2;
  logits.at2(0, 3) = 1;
  EXPECT_EQ(topk_accuracy(logits, {2}, 1), 0.0);
  EXPECT_EQ(topk_accuracy(logits, {2}, 2), 0.0);
  EXPECT_EQ(topk_accuracy(logits, {2}, 3), 1.0);
  EXPECT_THROW(topk_accuracy(logits, {2}, 5), odenet::Error);
}

TEST(Metrics, RunningMeanWeighted) {
  RunningMean m;
  m.add(1.0, 3);  // three samples of value 1
  m.add(5.0, 1);
  EXPECT_NEAR(m.mean(), 2.0, 1e-12);
  EXPECT_EQ(m.count(), 4u);
  RunningMean empty;
  EXPECT_EQ(empty.mean(), 0.0);
}

TEST(KernelTiers, TrainingStepsAreBitwiseAcrossAvx2AndAvx512) {
  // Two SGD steps of rODENet-3-20 at its CIFAR width, batch 3, capped at
  // AVX2 and on the AVX-512 tier: dX, every parameter gradient and the BN
  // running statistics of each step are bitwise equal. The second step
  // runs the ODE blocks' recorded-evaluation backward.
  using kernel_tiers::GemmIsa;
  if (!kernel_tiers::avx512_usable()) GTEST_SKIP() << kernel_tiers::kNoAvx512;
  namespace om = odenet::models;
  auto train = [](GemmIsa tier) {
    kernel_tiers::IsaCap cap(tier);
    odenet::util::Rng rng(5);
    om::Network net(om::make_spec(om::Arch::kROdeNet3, 20));
    net.init(rng);
    net.set_training(true);
    Sgd sgd(net.params(), {.learning_rate = 0.05});
    Tensor x({3, 3, 32, 32});
    for (std::size_t i = 0; i < x.numel(); ++i) {
      x.data()[i] = static_cast<float>(rng.normal(0.0, 1.0));
    }
    std::vector<Tensor> seen;
    for (int step = 0; step < 2; ++step) {
      net.zero_grads();
      const Tensor logits = net.forward(x);
      Tensor g(logits.shape());
      for (std::size_t i = 0; i < g.numel(); ++i) {
        g.data()[i] = static_cast<float>(rng.normal(0.0, 0.1));
      }
      seen.push_back(net.backward(g));
      for (Param* p : net.params()) seen.push_back(p->grad);
      net.for_each_batchnorm([&](odenet::core::BatchNorm2d& bn) {
        seen.push_back(bn.running_mean());
        seen.push_back(bn.running_var());
      });
      sgd.step();
    }
    return seen;
  };
  const std::vector<Tensor> avx2 = train(GemmIsa::kAvx2);
  const std::vector<Tensor> avx512 = train(GemmIsa::kAvx512);
  ASSERT_EQ(avx512.size(), avx2.size());
  for (std::size_t i = 0; i < avx2.size(); ++i) {
    ASSERT_TRUE(avx512[i].same_shape(avx2[i])) << "tensor " << i;
    EXPECT_EQ(0, std::memcmp(avx512[i].data(), avx2[i].data(),
                             avx2[i].numel() * sizeof(float)))
        << "tensor " << i;
  }
}
