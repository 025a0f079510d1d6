// Architecture specs (Table 4), parameter accounting (Table 2 / Figure 5,
// byte-exact), ODEBlock semantics including the ResNet-equals-Euler
// equivalence the paper is built on.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <utility>

#include "core/init.hpp"
#include "models/architecture.hpp"
#include "models/network.hpp"
#include "models/odeblock.hpp"
#include "models/param_count.hpp"
#include "solver_reference.hpp"
#include "util/rng.hpp"

using namespace odenet::models;
using odenet::core::Tensor;
namespace ou = odenet::util;

namespace {
Tensor random_tensor(std::vector<int> shape, ou::Rng& rng) {
  Tensor t(std::move(shape));
  for (std::size_t i = 0; i < t.numel(); ++i) {
    t.data()[i] = static_cast<float>(rng.normal(0.0, 1.0));
  }
  return t;
}

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.numel() == b.numel() &&
         std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)) == 0;
}
}  // namespace

TEST(Architecture, ValidDepths) {
  for (Arch a : all_archs()) {
    EXPECT_TRUE(valid_depth(a, 20)) << arch_name(a);
    EXPECT_TRUE(valid_depth(a, 56)) << arch_name(a);
    EXPECT_FALSE(valid_depth(a, 21)) << arch_name(a);
    EXPECT_FALSE(valid_depth(a, 8)) << arch_name(a);
  }
  // 14 and 26: fine except rODENet-1+2 (needs N % 4 == 0).
  EXPECT_TRUE(valid_depth(Arch::kResNet, 14));
  EXPECT_FALSE(valid_depth(Arch::kROdeNet12, 14));
  EXPECT_TRUE(valid_depth(Arch::kROdeNet12, 32));
}

TEST(Architecture, MakeSpecThrowsOnInvalidDepth) {
  EXPECT_THROW(make_spec(Arch::kResNet, 21), odenet::Error);
  EXPECT_THROW(make_spec(Arch::kROdeNet12, 26), odenet::Error);
}

struct Table4Case {
  Arch arch;
  int n;
  // stacked/executions for layer1, layer2_1, layer2_2, layer3_1, layer3_2
  std::array<std::pair<int, int>, 5> expected;
};

class Table4 : public ::testing::TestWithParam<Table4Case> {};

TEST_P(Table4, CountsMatchPaper) {
  const auto& p = GetParam();
  NetworkSpec spec = make_spec(p.arch, p.n);
  const StageId ids[5] = {StageId::kLayer1, StageId::kLayer2_1,
                          StageId::kLayer2_2, StageId::kLayer3_1,
                          StageId::kLayer3_2};
  for (int i = 0; i < 5; ++i) {
    const StageSpec& s = spec.stage(ids[i]);
    EXPECT_EQ(s.stacked_blocks, p.expected[i].first)
        << arch_name(p.arch) << "-" << p.n << " " << stage_name(ids[i]);
    EXPECT_EQ(s.executions, p.expected[i].second)
        << arch_name(p.arch) << "-" << p.n << " " << stage_name(ids[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(
    PaperRows, Table4,
    ::testing::Values(
        // ResNet-56: 9 stacked layer1; 8 stacked layer2_2/3_2.
        Table4Case{Arch::kResNet, 56,
                   {{{9, 1}, {1, 1}, {8, 1}, {1, 1}, {8, 1}}}},
        // ODENet-56: single instances, 9/8/8 executions.
        Table4Case{Arch::kOdeNet, 56,
                   {{{1, 9}, {1, 1}, {1, 8}, {1, 1}, {1, 8}}}},
        // rODENet-1-56: layer1 x(56-6)/2 = 25; layer2_2/3_2 removed.
        Table4Case{Arch::kROdeNet1, 56,
                   {{{1, 25}, {1, 1}, {0, 0}, {1, 1}, {0, 0}}}},
        // rODENet-2-56: layer2_2 x(56-8)/2 = 24.
        Table4Case{Arch::kROdeNet2, 56,
                   {{{1, 1}, {1, 1}, {1, 24}, {1, 1}, {0, 0}}}},
        // rODENet-1+2-56: layer1 x13, layer2_2 x12.
        Table4Case{Arch::kROdeNet12, 56,
                   {{{1, 13}, {1, 1}, {1, 12}, {1, 1}, {0, 0}}}},
        // rODENet-3-56: layer3_2 x24.
        Table4Case{Arch::kROdeNet3, 56,
                   {{{1, 1}, {1, 1}, {0, 0}, {1, 1}, {1, 24}}}},
        // Hybrid-3-56: ResNet stages + ODE layer3_2 x8.
        Table4Case{Arch::kHybrid3, 56,
                   {{{9, 1}, {1, 1}, {8, 1}, {1, 1}, {1, 8}}}},
        // Spot-check N=20.
        Table4Case{Arch::kResNet, 20,
                   {{{3, 1}, {1, 1}, {2, 1}, {1, 1}, {2, 1}}}},
        Table4Case{Arch::kROdeNet1, 20,
                   {{{1, 7}, {1, 1}, {0, 0}, {1, 1}, {0, 0}}}},
        Table4Case{Arch::kROdeNet12, 20,
                   {{{1, 4}, {1, 1}, {1, 3}, {1, 1}, {0, 0}}}},
        Table4Case{Arch::kROdeNet3, 20,
                   {{{1, 1}, {1, 1}, {0, 0}, {1, 1}, {1, 6}}}}));

TEST(Architecture, TotalExecutionsEqualResNetForAllVariants) {
  // The paper's design invariant: every variant executes the same number
  // of building blocks as ResNet-N.
  for (int n : {20, 32, 44, 56}) {
    const int resnet_total =
        make_spec(Arch::kResNet, n).total_block_executions();
    for (Arch a : all_archs()) {
      EXPECT_EQ(make_spec(a, n).total_block_executions(), resnet_total)
          << arch_name(a) << "-" << n;
    }
  }
}

TEST(Architecture, OdeStageAssignment) {
  NetworkSpec ode = make_spec(Arch::kOdeNet, 32);
  EXPECT_TRUE(ode.stage(StageId::kLayer1).is_ode());
  EXPECT_TRUE(ode.stage(StageId::kLayer2_2).is_ode());
  EXPECT_TRUE(ode.stage(StageId::kLayer3_2).is_ode());
  EXPECT_FALSE(ode.stage(StageId::kLayer2_1).is_ode());

  NetworkSpec r3 = make_spec(Arch::kROdeNet3, 32);
  EXPECT_FALSE(r3.stage(StageId::kLayer1).is_ode());  // reduced to 1 exec
  EXPECT_TRUE(r3.stage(StageId::kLayer3_2).is_ode());
  EXPECT_EQ(r3.stage(StageId::kLayer2_2).stacked_blocks, 0);  // removed

  NetworkSpec hybrid = make_spec(Arch::kHybrid3, 32);
  EXPECT_FALSE(hybrid.stage(StageId::kLayer1).is_ode());
  EXPECT_TRUE(hybrid.stage(StageId::kLayer3_2).is_ode());
}

TEST(Architecture, Table4CellFormatting) {
  NetworkSpec spec = make_spec(Arch::kROdeNet1, 56);
  EXPECT_EQ(table4_cell(spec, StageId::kLayer1), "1 / 25");
  EXPECT_EQ(table4_cell(spec, StageId::kLayer2_2), "0 / 0");
  EXPECT_EQ(table4_cell(spec, StageId::kConv1), "1 / 1");
}

// ---------------------------------------------------------------------------
// Table 2: parameter sizes, byte-exact.

TEST(ParamCount, Table2RowsMatchPaperExactly) {
  auto rows = table2_rows();
  ASSERT_EQ(rows.size(), 7u);
  EXPECT_EQ(rows[0].layer, "conv1");
  EXPECT_NEAR(rows[0].param_kb, 1.856, 1e-9);
  EXPECT_NEAR(rows[1].param_kb, 19.840, 1e-9);   // layer1 (ODE)
  EXPECT_NEAR(rows[2].param_kb, 55.808, 1e-9);   // layer2_1
  EXPECT_NEAR(rows[3].param_kb, 76.544, 1e-9);   // layer2_2 (ODE)
  EXPECT_NEAR(rows[4].param_kb, 222.208, 1e-9);  // layer3_1
  EXPECT_NEAR(rows[5].param_kb, 300.544, 1e-9);  // layer3_2 (ODE)
  EXPECT_NEAR(rows[6].param_kb, 26.000, 1e-9);   // fc
  EXPECT_EQ(rows[1].executions, "(N-2)/6");
  EXPECT_EQ(rows[5].executions, "(N-8)/6");
}

TEST(ParamCount, NetworkTotalsForPaperConfigs) {
  EXPECT_NEAR(network_param_kb(make_spec(Arch::kResNet, 20)), 1102.288, 1e-6);
  EXPECT_NEAR(network_param_kb(make_spec(Arch::kResNet, 56)), 3435.472, 1e-6);
  EXPECT_NEAR(network_param_kb(make_spec(Arch::kOdeNet, 20)), 702.800, 1e-6);
  // ODENet size is independent of N.
  EXPECT_NEAR(network_param_kb(make_spec(Arch::kOdeNet, 56)), 702.800, 1e-6);
  EXPECT_NEAR(network_param_kb(make_spec(Arch::kROdeNet3, 56)), 625.104,
              1e-6);
  EXPECT_NEAR(network_param_kb(make_spec(Arch::kROdeNet1, 32)), 325.712,
              1e-6);
  EXPECT_NEAR(network_param_kb(make_spec(Arch::kROdeNet2, 44)), 401.104,
              1e-6);
  EXPECT_NEAR(network_param_kb(make_spec(Arch::kROdeNet12, 20)), 402.256,
              1e-6);
}

struct ReductionCase {
  Arch arch;
  int n;
  double percent_less_than_resnet;
};

class Figure5 : public ::testing::TestWithParam<ReductionCase> {};

TEST_P(Figure5, ReductionMatchesPaperQuote) {
  const auto p = GetParam();
  const double resnet = network_param_kb(make_spec(Arch::kResNet, p.n));
  const double variant = network_param_kb(make_spec(p.arch, p.n));
  const double reduction = 100.0 * (1.0 - variant / resnet);
  EXPECT_NEAR(reduction, p.percent_less_than_resnet, 0.005)
      << arch_name(p.arch) << "-" << p.n;
}

INSTANTIATE_TEST_SUITE_P(
    PaperQuotes, Figure5,
    ::testing::Values(ReductionCase{Arch::kOdeNet, 20, 36.24},
                      ReductionCase{Arch::kOdeNet, 56, 79.54},
                      ReductionCase{Arch::kROdeNet3, 20, 43.29},
                      ReductionCase{Arch::kROdeNet3, 56, 81.80},
                      ReductionCase{Arch::kHybrid3, 20, 26.43},
                      ReductionCase{Arch::kHybrid3, 56, 60.16}));

TEST(ParamCount, AnalyticEqualsConstructedNetwork) {
  // The analytic formulas must equal the actual tensor sizes of a built
  // network, for every architecture.
  for (Arch a : all_archs()) {
    NetworkSpec spec = make_spec(a, 20);
    Network net(spec);
    EXPECT_EQ(net.param_count(), network_param_count(spec)) << arch_name(a);
  }
}

TEST(ParamCount, ScalesWithWidthConfig) {
  WidthConfig small{.input_channels = 1, .input_size = 16, .base_channels = 4,
                    .num_classes = 10};
  NetworkSpec spec = make_spec(Arch::kOdeNet, 14, small);
  Network net(spec);
  EXPECT_EQ(net.param_count(), network_param_count(spec));
  EXPECT_LT(network_param_count(spec), network_param_count(make_spec(
      Arch::kOdeNet, 14)));
}

// ---------------------------------------------------------------------------
// ODEBlock semantics.

TEST(OdeBlock, ResNetCompatibleTimeSpan) {
  OdeBlock ob({.channels = 4, .executions = 5}, "t");
  EXPECT_EQ(ob.t1(), 5.0f);
  OdeBlock unit({.channels = 4, .executions = 5,
                 .time_span = TimeSpan::kUnit}, "u");
  EXPECT_EQ(unit.t1(), 1.0f);
}

TEST(OdeBlock, EulerH1EqualsStackedResNetBlocks) {
  // The paper's core correspondence (§2.3): one Euler step with h = 1 is
  // one ResNet building block, so an ODEBlock run M times with shared
  // weights equals M stacked blocks with identical weights.
  ou::Rng rng(21);
  const int m = 3, c = 4, s = 6;
  OdeBlock ode({.channels = c, .executions = m, .time_channel = false},
               "ode");
  odenet::core::init_block(ode.block(), rng);
  ode.block().bn1().set_use_batch_stats_in_eval(true);
  ode.block().bn2().set_use_batch_stats_in_eval(true);

  // Build M plain blocks with the same weights.
  std::vector<std::unique_ptr<odenet::core::BuildingBlock>> stack;
  for (int i = 0; i < m; ++i) {
    auto b = std::make_unique<odenet::core::BuildingBlock>(
        odenet::core::BlockConfig{.in_channels = c, .out_channels = c,
                                  .stride = 1},
        "plain" + std::to_string(i));
    auto src = ode.block().params();
    auto dst = b->params();
    ASSERT_EQ(src.size(), dst.size());
    for (std::size_t j = 0; j < src.size(); ++j) {
      dst[j]->value = src[j]->value;
    }
    b->bn1().set_use_batch_stats_in_eval(true);
    b->bn2().set_use_batch_stats_in_eval(true);
    stack.push_back(std::move(b));
  }

  Tensor x = random_tensor({1, c, s, s}, rng);
  Tensor ode_out = ode.forward(x);
  Tensor stacked = x;
  for (auto& b : stack) stacked = b->forward(stacked);

  ASSERT_TRUE(ode_out.same_shape(stacked));
  for (std::size_t i = 0; i < ode_out.numel(); ++i) {
    EXPECT_NEAR(ode_out.data()[i], stacked.data()[i], 1e-4f) << "at " << i;
  }
}

TEST(OdeBlock, SolverChoiceChangesOutput) {
  ou::Rng rng(22);
  OdeBlock euler({.channels = 2, .executions = 4}, "e");
  odenet::core::init_block(euler.block(), rng);
  euler.block().bn1().set_use_batch_stats_in_eval(true);
  euler.block().bn2().set_use_batch_stats_in_eval(true);

  OdeBlock rk4({.channels = 2, .executions = 4,
                .method = odenet::solver::Method::kRk4}, "r");
  // Same weights.
  auto src = euler.block().params();
  auto dst = rk4.block().params();
  for (std::size_t j = 0; j < src.size(); ++j) dst[j]->value = src[j]->value;
  rk4.block().bn1().set_use_batch_stats_in_eval(true);
  rk4.block().bn2().set_use_batch_stats_in_eval(true);

  Tensor x = random_tensor({1, 2, 4, 4}, rng);
  Tensor ye = euler.forward(x);
  Tensor yr = rk4.forward(x);
  Tensor diff = ye;
  diff.axpy(-1.0f, yr);
  EXPECT_GT(diff.abs_max(), 1e-4f);
}

TEST(OdeBlock, BackwardRequiresForward) {
  OdeBlock ob({.channels = 2, .executions = 2}, "b");
  ob.set_training(true);
  EXPECT_THROW(ob.backward(Tensor({1, 2, 4, 4})), odenet::Error);
  // A released trajectory is gone too.
  ou::Rng rng(25);
  odenet::core::init_block(ob.block(), rng);
  (void)ob.forward(random_tensor({1, 2, 4, 4}, rng));
  ob.release_cache();
  EXPECT_THROW(ob.backward(Tensor({1, 2, 4, 4})), odenet::Error);
}

TEST(OdeBlock, BackwardThroughRecordedTrajectoryMatchesResolve) {
  // The training forward records z_0..z_{M-1} and backward differentiates
  // those states. The reference re-solves the stage from z0 with running
  // stats frozen and runs discrete_backward on that trajectory. dX, every
  // parameter gradient and the BN running statistics agree bit for bit,
  // and the backward costs M / 3M / 7M evaluations.
  using odenet::solver::Method;
  const int m = 3;
  const std::pair<Method, int> cases[] = {
      {Method::kEuler, 1}, {Method::kHeun, 3}, {Method::kRk4, 7}};
  for (const auto& [method, evals_per_step] : cases) {
    SCOPED_TRACE(odenet::solver::method_name(method));
    ou::Rng rng(24);
    const OdeBlockConfig cfg{.channels = 3, .executions = m, .method = method};
    OdeBlock ob(cfg, "ob");
    OdeBlock ref(cfg, "ref");
    odenet::core::init_block(ob.block(), rng);
    auto src = ob.block().params();
    auto dst = ref.block().params();
    for (std::size_t j = 0; j < src.size(); ++j) dst[j]->value = src[j]->value;
    ob.set_training(true);
    ref.set_training(true);
    Tensor x = random_tensor({2, 3, 5, 5}, rng);
    Tensor g = random_tensor({2, 3, 5, 5}, rng);

    Tensor y = ob.forward(x);
    // The backward re-evaluates f, so the forward dropped its last
    // evaluation's layer caches.
    EXPECT_THROW(ob.block().branch_backward(g), odenet::Error);
    Tensor dx = ob.backward(g);

    Tensor y_ref = ref.forward(x);
    ref.block().set_freeze_running_stats(true);
    std::vector<Tensor> traj;
    odenet::solver::SolveOptions opts{
        .method = method, .steps = m, .trajectory = &traj};
    odenet::solver::ode_solve(ref.dynamics(), x, ref.t0(), ref.t1(), opts);
    auto res = odenet::solver::discrete_backward(ref.dynamics(), traj, g,
                                                 ref.t0(), ref.t1(), method);
    ref.block().set_freeze_running_stats(false);

    EXPECT_EQ(res.function_evals, evals_per_step * m);
    EXPECT_TRUE(same_bits(y, y_ref));
    EXPECT_TRUE(same_bits(dx, res.grad_z0));
    for (std::size_t j = 0; j < src.size(); ++j) {
      EXPECT_TRUE(same_bits(src[j]->grad, dst[j]->grad)) << src[j]->name;
    }
    const std::pair<odenet::core::BatchNorm2d*, odenet::core::BatchNorm2d*>
        bns[] = {{&ob.block().bn1(), &ref.block().bn1()},
                 {&ob.block().bn2(), &ref.block().bn2()}};
    for (const auto& [got, want] : bns) {
      EXPECT_TRUE(same_bits(got->running_mean(), want->running_mean()));
      EXPECT_TRUE(same_bits(got->running_var(), want->running_var()));
    }
  }
}

TEST(OdeBlock, RecordedStepMatchesReevaluatedReference) {
  // Two training steps per method. The first follows no backward, so it
  // keeps the trajectory and its backward evaluates f again (M / 3M / 7M
  // evaluations); the second follows one, so it records every
  // evaluation's layer caches and its backward evaluates f 0 times. Each
  // step's dX, every parameter gradient and the BN running statistics
  // match, bit for bit, a reference block that solves with a trajectory
  // and runs solver_reference::discrete_backward with running stats
  // frozen.
  using odenet::solver::Method;
  const int m = 3;
  const std::pair<Method, int> cases[] = {
      {Method::kEuler, 1}, {Method::kHeun, 2}, {Method::kRk4, 4}};
  for (const auto& [method, stages] : cases) {
    SCOPED_TRACE(odenet::solver::method_name(method));
    ou::Rng rng(31);
    const OdeBlockConfig cfg{.channels = 4, .executions = m, .method = method};
    OdeBlock ob(cfg, "ob");
    OdeBlock ref(cfg, "ref");
    odenet::core::init_block(ob.block(), rng);
    auto src = ob.block().params();
    auto dst = ref.block().params();
    for (std::size_t j = 0; j < src.size(); ++j) dst[j]->value = src[j]->value;
    ob.set_training(true);
    ref.set_training(true);
    for (int step = 0; step < 2; ++step) {
      SCOPED_TRACE(step == 0 ? "re-evaluated" : "recorded");
      Tensor x = random_tensor({2, 4, 8, 8}, rng);
      Tensor g = random_tensor({2, 4, 8, 8}, rng);
      ob.zero_grads();
      ref.zero_grads();

      Tensor y = ob.forward(x);
      EXPECT_EQ(ob.evaluation_slots(),
                step == 0 ? 0u : static_cast<std::size_t>(m * stages));
      Tensor dx = ob.backward(g);
      EXPECT_EQ(ob.last_backward_evals(),
                step == 0 ? m * (2 * stages - 1) : 0);

      std::vector<Tensor> traj;
      odenet::solver::SolveOptions opts{
          .method = method, .steps = m, .trajectory = &traj};
      Tensor y_ref = odenet::solver::ode_solve(ref.dynamics(), x, ref.t0(),
                                               ref.t1(), opts);
      ref.block().set_freeze_running_stats(true);
      Tensor dx_ref = solver_reference::discrete_backward(
          ref.dynamics(), traj, g, ref.t0(), ref.t1(), method);
      ref.block().set_freeze_running_stats(false);

      EXPECT_TRUE(same_bits(y, y_ref));
      EXPECT_TRUE(same_bits(dx, dx_ref));
      for (std::size_t j = 0; j < src.size(); ++j) {
        EXPECT_TRUE(same_bits(src[j]->grad, dst[j]->grad)) << src[j]->name;
      }
      const std::pair<odenet::core::BatchNorm2d*, odenet::core::BatchNorm2d*>
          bns[] = {{&ob.block().bn1(), &ref.block().bn1()},
                   {&ob.block().bn2(), &ref.block().bn2()}};
      for (const auto& [got, want] : bns) {
        EXPECT_TRUE(same_bits(got->running_mean(), want->running_mean()));
        EXPECT_TRUE(same_bits(got->running_var(), want->running_var()));
      }
    }
    // The record is consumed: a second backward needs a new forward.
    EXPECT_THROW(ob.backward(Tensor({2, 4, 8, 8})), odenet::Error);
  }
}

TEST(OdeBlock, TrainingForwardsWithoutBackwardRecordNothing) {
  // BN calibration: training-mode forwards that no backward follows keep
  // only the trajectory and allocate no evaluation slots, so a calibrated
  // model carries none into serving.
  ou::Rng rng(32);
  OdeBlock ob({.channels = 4, .executions = 3}, "cal");
  odenet::core::init_block(ob.block(), rng);
  ob.set_training(true);
  Tensor x = random_tensor({2, 4, 8, 8}, rng);
  for (int pass = 0; pass < 4; ++pass) {
    (void)ob.forward(x);
    EXPECT_EQ(ob.evaluation_slots(), 0u);
    EXPECT_EQ(ob.backward_floats(), 3 * x.numel());  // z_0..z_2
  }
  // The same holds across a network's calibration passes.
  Network net(make_spec(Arch::kROdeNet3, 20));
  net.init(rng);
  net.set_training(true);
  Tensor images = random_tensor({2, 3, 32, 32}, rng);
  for (int pass = 0; pass < 4; ++pass) (void)net.forward(images);
  for (auto& s : net.stages()) {
    if (OdeBlock* ode = s->ode()) {
      EXPECT_EQ(ode->evaluation_slots(), 0u);
    }
  }
}

TEST(OdeBlock, TrainingWithDopri5Rejected) {
  OdeBlock ob({.channels = 2, .executions = 2,
               .method = odenet::solver::Method::kDopri5}, "d");
  ob.set_training(true);
  ou::Rng rng(23);
  EXPECT_THROW(ob.forward(random_tensor({1, 2, 4, 4}, rng)), odenet::Error);
}

// ---------------------------------------------------------------------------
// Full network.

TEST(Network, ForwardShapesForAllArchs) {
  WidthConfig small{.input_channels = 3, .input_size = 16, .base_channels = 4,
                    .num_classes = 10};
  ou::Rng rng(30);
  Tensor x = random_tensor({2, 3, 16, 16}, rng);
  for (Arch a : all_archs()) {
    if (!valid_depth(a, 20)) continue;
    Network net(make_spec(a, 20, small));
    net.init(rng);
    Tensor logits = net.forward(x);
    EXPECT_EQ(logits.shape(), (std::vector<int>{2, 10})) << arch_name(a);
  }
}

TEST(Network, PredictReturnsValidClasses) {
  WidthConfig small{.input_channels = 3, .input_size = 16, .base_channels = 4,
                    .num_classes = 5};
  ou::Rng rng(31);
  Network net(make_spec(Arch::kROdeNet3, 14, small));
  net.init(rng);
  auto pred = net.predict(random_tensor({3, 3, 16, 16}, rng));
  ASSERT_EQ(pred.size(), 3u);
  for (int p : pred) {
    EXPECT_GE(p, 0);
    EXPECT_LT(p, 5);
  }
}

TEST(Network, RejectsWrongInputShape) {
  Network net(make_spec(Arch::kResNet, 20));
  EXPECT_THROW(net.forward(Tensor({1, 3, 16, 16})), odenet::Error);
  EXPECT_THROW(net.forward(Tensor({1, 1, 32, 32})), odenet::Error);
}

TEST(Network, StageLookup) {
  Network net(make_spec(Arch::kROdeNet3, 20));
  ASSERT_NE(net.stage(StageId::kLayer3_2), nullptr);
  EXPECT_TRUE(net.stage(StageId::kLayer3_2)->is_ode());
  ASSERT_NE(net.stage(StageId::kLayer2_2), nullptr);
  EXPECT_TRUE(net.stage(StageId::kLayer2_2)->is_empty());
  EXPECT_EQ(net.stage(StageId::kConv1), nullptr);  // stem is not a stage
}

TEST(Network, NameIncludesArchAndDepth) {
  Network net(make_spec(Arch::kHybrid3, 44));
  EXPECT_EQ(net.name(), "Hybrid-3-44");
}
