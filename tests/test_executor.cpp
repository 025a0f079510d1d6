// StageExecutor backends and StagePlan routing (models/executor.hpp,
// sched/fpga_executor.hpp): backend parity within quantization tolerance,
// single dispatch loop, per-stage stats, and the fixed backend's packs on
// each conv (one per weight version and frac_bits, freed with the
// replica).
#include <gtest/gtest.h>

#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <tuple>
#include <vector>

#include "conv_reference.hpp"
#include "core/gemm_kernels.hpp"
#include "kernel_tiers.hpp"
#include "models/executor.hpp"
#include "models/network.hpp"
#include "sched/fpga_executor.hpp"
#include "sched/latency_model.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

// Counts live heap bytes on every thread, for the replica-churn check.
namespace {
std::atomic<long long> g_live_bytes{0};
}  // namespace

// Out of line, so the compiler pairs new with delete rather than the
// malloc and free inside them.
__attribute__((noinline)) void* operator new(std::size_t n) {
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  g_live_bytes.fetch_add(static_cast<long long>(malloc_usable_size(p)),
                         std::memory_order_relaxed);
  return p;
}
__attribute__((noinline)) void operator delete(void* p) noexcept {
  if (p == nullptr) return;
  g_live_bytes.fetch_sub(static_cast<long long>(malloc_usable_size(p)),
                         std::memory_order_relaxed);
  std::free(p);
}
__attribute__((noinline)) void operator delete(void* p, std::size_t) noexcept {
  ::operator delete(p);
}

using namespace odenet;
using models::Arch;
using models::StageId;

namespace {

models::WidthConfig tiny_width() {
  return {.input_channels = 3, .input_size = 16, .base_channels = 4,
          .num_classes = 5};
}

core::Tensor random_input(int batch, util::Rng& rng) {
  core::Tensor x({batch, 3, 16, 16});
  for (std::size_t i = 0; i < x.numel(); ++i) {
    x.data()[i] = static_cast<float>(rng.normal(0.0, 0.5));
  }
  return x;
}

double max_abs_diff(const core::Tensor& a, const core::Tensor& b) {
  double diff = 0.0;
  for (std::size_t i = 0; i < a.numel(); ++i) {
    diff = std::max(diff, std::fabs(static_cast<double>(a.data()[i]) -
                                    b.data()[i]));
  }
  return diff;
}

}  // namespace

TEST(Executor, ExplicitFloatPlanMatchesDefaultForward) {
  util::Rng rng(1);
  models::Network net(models::make_spec(Arch::kROdeNet3, 14, tiny_width()));
  net.init(rng);
  net.set_training(false);
  core::Tensor x = random_input(2, rng);

  core::Tensor base = net.forward(x);
  models::FloatStageExecutor float_exec;
  models::StagePlan plan(&float_exec);
  core::Tensor routed = net.forward_with(x, plan);

  ASSERT_TRUE(base.same_shape(routed));
  for (std::size_t i = 0; i < base.numel(); ++i) {
    EXPECT_FLOAT_EQ(base.data()[i], routed.data()[i]);
  }
}

TEST(Executor, FixedBackendWithinQuantizationTolerance) {
  util::Rng rng(2);
  models::Network net(models::make_spec(Arch::kROdeNet3, 14, tiny_width()));
  net.init(rng);
  net.set_training(false);
  core::Tensor x = random_input(1, rng);

  core::Tensor base = net.forward(x);

  // The integer path carries int16 operands: weights on a Q(<=13) grid
  // (step >= 1.2e-4) and activations on the finest saturation-free grid,
  // so per-conv noise is ~sqrt(taps) * step / 2 and the 28-conv-deep ODE
  // sweep accumulates a few 1e-2 — budget 0.1 (~4x measured).
  models::FixedStageExecutor q20(20);
  models::StagePlan plan(&q20);
  core::Tensor fixed_out = net.forward_with(x, plan);
  ASSERT_TRUE(base.same_shape(fixed_out));
  EXPECT_LT(max_abs_diff(base, fixed_out), 0.1);
  // Inputs this small fit the int16 envelope: no call fell back.
  EXPECT_EQ(q20.float_carrier_calls(), 0u);

  // A much narrower format stays in the ballpark: the int16 operand grids
  // (fw <= 13) dominate the noise at fine frac_bits, so q8-vs-q20
  // ordering is not guaranteed.
  models::FixedStageExecutor q8(8);
  models::StagePlan coarse(&q8);
  core::Tensor coarse_out = net.forward_with(x, coarse);
  EXPECT_LT(max_abs_diff(base, coarse_out), 1.0);
}

TEST(Executor, FixedOdeStagesMatchReferenceConvOnTimePlane) {
  // The int16 path lowers x and one quantized time plane that every
  // sample shares. Each ODE stage's fixed Euler solve must track the same
  // solve whose convs are the naive reference on the concatenated
  // [N, C+1, H, W] input. ODENet's layer1, rODENet-2's layer2_2 and
  // rODENet-3's layer3_2 see 16/8/4, 12/6/3 and 20/10/5 planes at these
  // input sizes (H*W % 16 == 0 and != 0), at batches 1, 3 and 8. Budget
  // 0.05: 2.5x the worst 0.020 measured, while a time plane at t = 0
  // instead of t misses by more than 1.
  for (Arch arch : {Arch::kOdeNet, Arch::kROdeNet2, Arch::kROdeNet3}) {
    for (int size : {16, 12, 20}) {
      models::WidthConfig width = tiny_width();
      width.input_size = size;
      util::Rng rng(static_cast<std::uint64_t>(size));
      models::Network net(models::make_spec(arch, 14, width));
      net.init(rng);
      net.set_training(false);
      for (int batch : {1, 3, 8}) {
        for (auto& stage : net.stages()) {
          if (!stage->is_ode()) continue;
          SCOPED_TRACE(testing::Message()
                       << models::arch_name(arch) << " " << stage->name()
                       << " input " << size << " batch " << batch);
          const int c = stage->spec().in_channels, s = stage->spec().in_size;
          core::Tensor x({batch, c, s, s});
          for (std::size_t i = 0; i < x.numel(); ++i) {
            x.data()[i] = static_cast<float>(rng.normal(0.0, 0.5));
          }
          models::FixedStageExecutor fixed(20);
          const core::Tensor got = fixed.run(*stage, x, nullptr);
          EXPECT_EQ(fixed.float_carrier_calls(), 0u);

          models::OdeBlock& ode = *stage->ode();
          core::BuildingBlock& block = ode.block();
          const int steps = ode.config().executions;
          const float h = (ode.t1() - ode.t0()) / static_cast<float>(steps);
          auto conv = [](core::Conv2d& cv, const core::Tensor& in, float t) {
            return conv_reference::forward(
                conv_reference::with_time_plane(in, t), cv.weight().value,
                cv.config().stride, cv.config().pad);
          };
          core::Tensor z = x;
          float t = ode.t0();
          for (int k = 0; k < steps; ++k, t += h) {
            core::Tensor f = block.bn1().forward(conv(block.conv1(), z, t));
            for (std::size_t i = 0; i < f.numel(); ++i) {
              f.data()[i] = std::max(f.data()[i], 0.0f);
            }
            f = block.bn2().forward(conv(block.conv2(), f, t));
            z.axpy(h, f);
          }
          ASSERT_TRUE(got.same_shape(z));
          EXPECT_LT(max_abs_diff(got, z), 0.05);
        }
      }
    }
  }
}

TEST(Executor, FpgaSimBackendMatchesFloatWithinTolerance) {
  util::Rng rng(3);
  models::Network net(models::make_spec(Arch::kROdeNet3, 14, tiny_width()));
  net.init(rng);

  // Constructing the executor aligns the stage's BN semantics with the
  // hardware (per-batch statistics), so take the float reference after.
  sched::FpgaStageExecutor fpga(*net.stage(StageId::kLayer3_2),
                                sched::FpgaStageExecutor::Config{});
  net.set_training(false);
  core::Tensor x = random_input(1, rng);
  core::Tensor base = net.forward(x);

  models::StagePlan plan;  // float fallback, PL for layer3_2
  plan.assign(StageId::kLayer3_2, &fpga);
  core::Tensor hybrid = net.forward_with(x, plan);

  ASSERT_TRUE(base.same_shape(hybrid));
  EXPECT_LT(max_abs_diff(base, hybrid), 0.15);
}

TEST(Executor, RunStatsCoverEveryStageAndFoldPlCycles) {
  util::Rng rng(4);
  models::Network net(models::make_spec(Arch::kROdeNet3, 14, tiny_width()));
  net.init(rng);
  sched::FpgaStageExecutor fpga(*net.stage(StageId::kLayer3_2),
                                sched::FpgaStageExecutor::Config{
                                    .parallelism = 8});
  net.set_training(false);

  models::StagePlan plan;
  plan.assign(StageId::kLayer3_2, &fpga);
  models::NetworkRunStats stats;
  const int batch = 3;
  net.forward_with(random_input(batch, rng), plan, &stats);

  // layer1, layer2_1, layer3_1, layer3_2 (layer2_2 removed in rODENet-3).
  ASSERT_EQ(stats.stages.size(), 4u);
  int on_pl = 0;
  for (const auto& run : stats.stages) {
    if (run.id == StageId::kLayer3_2) {
      EXPECT_EQ(run.stats.backend, core::ExecBackend::kFpgaSim);
      EXPECT_TRUE(run.stats.on_accelerator);
      EXPECT_GT(run.stats.pl_cycles, 0u);
      ++on_pl;
    } else {
      EXPECT_EQ(run.stats.backend, core::ExecBackend::kFloat);
      EXPECT_FALSE(run.stats.on_accelerator);
      EXPECT_EQ(run.stats.pl_cycles, 0u);
    }
  }
  EXPECT_EQ(on_pl, 1);

  // The folded cycle count matches the static latency model, execution for
  // execution.
  const auto& spec = net.stage(StageId::kLayer3_2)->spec();
  const std::uint64_t per_exec = sched::LatencyModel::pl_block_cycles(spec, 8);
  const std::size_t fwords = static_cast<std::size_t>(spec.out_channels) *
                             spec.in_size * spec.in_size;
  const std::uint64_t expected =
      static_cast<std::uint64_t>(batch) * spec.executions *
      (per_exec + fpga::roundtrip_cycles(fwords, fwords));
  EXPECT_EQ(stats.pl_cycles(), expected);
}

TEST(Executor, BackendsAgreeOnBatchedInput) {
  // Regression guard for the batched conv: on one multi-sample input,
  // (a) the float plan gives each image what it gives that image served
  // alone (a layout bug in the batched lowering would show up here even
  // if single-sample unit tests pass), and (b) the fixed and FPGA-sim
  // plans still agree with the float plan within their established
  // tolerances.
  util::Rng rng(6);
  models::Network net(models::make_spec(Arch::kROdeNet3, 14, tiny_width()));
  net.init(rng);
  net.set_training(false);
  core::Tensor x = random_input(6, rng);

  models::FloatStageExecutor float_exec;
  models::StagePlan float_plan(&float_exec);
  core::Tensor batched = net.forward_with(x, float_plan);
  const std::size_t stride = static_cast<std::size_t>(3) * 16 * 16;
  for (int i : {0, 3, 5}) {
    core::Tensor one({1, 3, 16, 16});
    std::copy_n(x.data() + static_cast<std::size_t>(i) * stride, stride,
                one.data());
    core::Tensor single = net.forward_with(one, float_plan);
    for (int c = 0; c < single.dim(1); ++c) {
      EXPECT_NEAR(batched.at2(i, c), single.at2(0, c), 1e-4)
          << "image " << i << " class " << c;
    }
  }

  // The int16 integer path trades operand width for speed; its budget is
  // the int16-grid bound (see FixedBackendWithinQuantizationTolerance).
  models::FixedStageExecutor q20(20);
  models::StagePlan fixed_plan(&q20);
  core::Tensor fixed_out = net.forward_with(x, fixed_plan);
  EXPECT_LT(max_abs_diff(batched, fixed_out), 0.1);

  // The accelerator normalizes per image, so its batch output is not
  // comparable to float batch statistics — the invariant to guard instead
  // is batching-invariance: the hybrid plan must give each image of the
  // micro-batch exactly what it gives that image served alone (a layout
  // bug in the batched conv of the non-offloaded stages would break
  // this). Constructing the executor switches layer3_2's BNs to
  // per-batch statistics, so it comes after the float checks.
  sched::FpgaStageExecutor fpga(*net.stage(StageId::kLayer3_2),
                                sched::FpgaStageExecutor::Config{});
  models::StagePlan hybrid_plan;  // float fallback, PL for layer3_2
  hybrid_plan.assign(StageId::kLayer3_2, &fpga);
  core::Tensor hybrid = net.forward_with(x, hybrid_plan);
  const int classes = hybrid.dim(1);
  for (int i : {0, 2, 5}) {
    core::Tensor one({1, 3, 16, 16});
    std::copy_n(x.data() + static_cast<std::size_t>(i) * stride, stride,
                one.data());
    core::Tensor single = net.forward_with(one, hybrid_plan);
    for (int c = 0; c < classes; ++c) {
      EXPECT_NEAR(hybrid.at2(i, c), single.at2(0, c), 1e-4)
          << "image " << i << " class " << c;
    }
  }
}

TEST(Executor, SharedNetworkArenaStopsGrowingAcrossForwardPasses) {
  // The network-owned scratch arena serves every conv of every stage;
  // after one routed pass it is at its high-water mark and further passes
  // (same batch size) never reallocate.
  util::Rng rng(7);
  models::Network net(models::make_spec(Arch::kROdeNet3, 14, tiny_width()));
  net.init(rng);
  net.set_training(false);

  models::FloatStageExecutor float_exec;
  models::StagePlan plan(&float_exec);
  core::Tensor x = random_input(4, rng);
  (void)net.forward_with(x, plan);
  const std::size_t capacity = net.scratch_arena().capacity();
  const std::uint64_t growths = net.scratch_arena().growths();
  EXPECT_GT(capacity, 0u);
  for (int i = 0; i < 3; ++i) (void)net.forward_with(x, plan);
  EXPECT_EQ(net.scratch_arena().capacity(), capacity);
  EXPECT_EQ(net.scratch_arena().growths(), growths);
}

TEST(Executor, FpgaSimRejectsNonOdeOffload) {
  util::Rng rng(6);
  models::Network net(models::make_spec(Arch::kResNet, 14, tiny_width()));
  net.init(rng);
  // ResNet's layer3_2 stacks plain blocks: not offloadable functionally.
  EXPECT_THROW(sched::FpgaStageExecutor(*net.stage(StageId::kLayer3_2),
                                        sched::FpgaStageExecutor::Config{}),
               odenet::Error);
}

TEST(Executor, FpgaSimPredictionsUsuallyAgreeWithFloat) {
  util::Rng rng(2);
  models::Network net(models::make_spec(Arch::kROdeNet3, 14, tiny_width()));
  net.init(rng);
  sched::FpgaStageExecutor fpga(*net.stage(StageId::kLayer3_2),
                                sched::FpgaStageExecutor::Config{});
  models::StagePlan plan;
  plan.assign(StageId::kLayer3_2, &fpga);
  // Per-image comparison (the PL normalizes each image independently).
  int agree = 0;
  for (int i = 0; i < 8; ++i) {
    core::Tensor x = random_input(1, rng);
    if (net.predict(x) == net.predict(x, &plan)) ++agree;
  }
  EXPECT_GE(agree, 7) << "fixed-point flip rate too high";
}

TEST(Executor, FixedFallsBackToFloatCarrierOnWideInputRange) {
  // At frac_bits 20 the int16 path needs a requantization shift
  // fa + fw - 20 >= 0 with fw <= 13, i.e. activations on a Q(fa >= 7)
  // grid; any conv input with max|x| >= 256 only fits int16 at fa <= 6,
  // so the call falls back to the float carrier. Drive every conv of a
  // plain stage there: a channel-0 input plane near 300 feeds each
  // block's conv1, and a bn1 shift of 300 on channel 0 feeds its conv2.
  util::Rng rng(43);
  models::Network net(models::make_spec(Arch::kResNet, 14, tiny_width()));
  net.init(rng);
  net.set_training(false);
  models::Stage& stage = *net.stage(StageId::kLayer1);
  ASSERT_FALSE(stage.is_ode());
  for (auto& block : stage.blocks()) {
    block->bn1().beta().value.at1(0) = 300.0f;
  }
  const int c = stage.spec().in_channels, s = stage.spec().in_size;
  core::Tensor x({2, c, s, s});
  for (int n = 0; n < 2; ++n) {
    for (int ch = 0; ch < c; ++ch) {
      for (int y = 0; y < s; ++y) {
        for (int col = 0; col < s; ++col) {
          x.at(n, ch, y, col) = static_cast<float>(
              rng.normal(ch == 0 ? 300.0 : 0.0, 0.5));
        }
      }
    }
  }

  core::Tensor want = stage.forward(x);
  models::FixedStageExecutor fixed(20);
  core::Tensor got = fixed.run(stage, x, nullptr);
  EXPECT_EQ(fixed.float_carrier_calls(),
            2 * static_cast<std::uint64_t>(stage.blocks().size()));
  ASSERT_TRUE(want.same_shape(got));
  // Q20 budget: the carrier snaps weights and activations to the 2^-20
  // grid, finer than float32's own resolution at these magnitudes (the
  // output reaches ~1.6e3, where one ulp is ~1e-4), so it tracks the float
  // stage to a few 1e-6 of the output range (2.9e-6 measured). The int16
  // grid this range would need is Q(6), a 2^-6 step.
  EXPECT_LT(max_abs_diff(want, got), 1e-5 * want.abs_max());
}

TEST(Executor, FixedWeightCacheKeyedBySnapshotVersion) {
  // The stage convs of this rODENet-3 include both int16 k orders: the
  // stride-2 layer2_1/layer3_1 conv1 keep the natural-order pack of the
  // explicit lowering, every other conv packs pair-major for the implicit
  // one. Either way a version packs each conv once.
  util::Rng rng(42);
  models::Network net(models::make_spec(Arch::kROdeNet3, 14, tiny_width()));
  net.init(rng);
  net.set_training(false);
  core::Tensor x = random_input(1, rng);
  models::FixedStageExecutor fixed(20);
  models::StagePlan plan(&fixed);
  std::uint64_t convs = 0;  // the stem runs outside the plan
  for (auto& stage : net.stages()) {
    if (stage->is_empty()) continue;
    convs += 2 * (stage->is_ode() ? 1 : stage->blocks().size());
  }

  // Unversioned weights: every conv evaluation requantizes + repacks.
  (void)net.forward_with(x, plan);
  const std::uint64_t packs_cold = fixed.weight_packs();
  EXPECT_GT(packs_cold, convs);  // ODE stages evaluate their convs per step
  (void)net.forward_with(x, plan);
  EXPECT_EQ(fixed.weight_packs(), 2 * packs_cold);

  // Versioned weights (serving steady state): one pack per conv, then
  // hits — repeat runs add nothing.
  net.apply_snapshot(*net.export_snapshot());
  (void)net.forward_with(x, plan);
  const std::uint64_t packs_warm = fixed.weight_packs();
  EXPECT_EQ(packs_warm - 2 * packs_cold, convs);
  (void)net.forward_with(x, plan);
  (void)net.forward_with(x, plan);
  EXPECT_EQ(fixed.weight_packs(), packs_warm);

  // Hot-swap to a new version: exactly one round of repacks.
  net.apply_snapshot(*net.export_snapshot());
  (void)net.forward_with(x, plan);
  (void)net.forward_with(x, plan);
  EXPECT_EQ(fixed.weight_packs() - packs_warm, convs);
}

TEST(Executor, FixedPackKeyedByFracBitsAcrossAlternatingExecutors) {
  // The fixed pack lives on the conv, keyed by (weight version,
  // frac_bits). Two executors at different Q grids on one versioned
  // network: each switch of grid repacks every conv once, a repeat run on
  // the same grid packs nothing, and every output is bitwise what that
  // executor gives run alone. A pack keyed by the version only would
  // serve q8 the q20 weights (and the reverse), and the outputs would
  // differ.
  util::Rng rng(45);
  const core::Tensor x = random_input(2, rng);
  const auto make_net = [] {
    util::Rng net_rng(46);
    models::Network net(models::make_spec(Arch::kROdeNet3, 14, tiny_width()));
    net.init(net_rng);
    net.set_training(false);
    net.set_weight_version(5);
    return net;
  };

  models::FixedStageExecutor alone20(20), alone8(8);
  models::Network net20 = make_net();
  models::Network net8 = make_net();
  const core::Tensor want20 =
      net20.forward_with(x, models::StagePlan(&alone20));
  const core::Tensor want8 = net8.forward_with(x, models::StagePlan(&alone8));
  const std::uint64_t convs = alone20.weight_packs();  // one pack per conv
  ASSERT_GT(convs, 0u);
  ASSERT_EQ(alone8.weight_packs(), convs);
  ASSERT_GT(max_abs_diff(want20, want8), 0.0);  // the grids differ

  models::Network net = make_net();
  models::FixedStageExecutor q20(20), q8(8);
  const models::StagePlan plan20(&q20), plan8(&q8);
  for (int round = 0; round < 3; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    for (const auto& [exec, plan, want] :
         {std::tuple{&q20, &plan20, &want20},
          std::tuple{&q8, &plan8, &want8}}) {
      SCOPED_TRACE(exec->name());
      const std::uint64_t before = exec->weight_packs();
      for (int run = 0; run < 2; ++run) {
        const core::Tensor got = net.forward_with(x, *plan);
        ASSERT_TRUE(got.same_shape(*want));
        EXPECT_EQ(0, std::memcmp(got.data(), want->data(),
                                 got.numel() * sizeof(float)))
            << "run " << run;
      }
      EXPECT_EQ(exec->weight_packs() - before, convs);
    }
  }
}

TEST(Executor, ReplicaChurnRepacksAndFreesItsPacks) {
  // A replica's fixed packs live on its convs, so they go with it: 40
  // fresh replicas through one executor each repack (reusing a pack could
  // only serve another replica's weights), give identical outputs, and
  // leave live heap where the first round left it. Every replica has the
  // same weights under the same version stamp, the case a cache keyed by
  // address or version alone would alias. One kernel-pool worker keeps
  // each worker thread's recycled scratch out of the count.
  util::ThreadPool one_worker(1);
  struct KernelPoolPin {
    explicit KernelPoolPin(util::ThreadPool* pool) {
      core::set_kernel_pool(pool);
    }
    ~KernelPoolPin() { core::set_kernel_pool(nullptr); }
  } pin(&one_worker);
  util::Rng rng(44);
  models::FixedStageExecutor fixed(20);
  const models::StagePlan plan(&fixed);
  const core::Tensor x = random_input(1, rng);

  constexpr int kRounds = 40;
  core::Tensor first_out;
  std::vector<std::uint64_t> packs(kRounds);
  std::vector<long long> live(kRounds);
  std::vector<int> same(kRounds, 1);
  for (int round = 0; round < kRounds; ++round) {
    {
      util::Rng net_rng(99);
      models::Network net(models::make_spec(Arch::kROdeNet3, 14, tiny_width()));
      net.init(net_rng);
      net.set_training(false);
      net.set_weight_version(7);
      const std::uint64_t before = fixed.weight_packs();
      core::Tensor out = net.forward_with(x, plan);
      packs[round] = fixed.weight_packs() - before;
      if (round == 0) {
        first_out = std::move(out);
      } else {
        same[round] = out.same_shape(first_out) &&
                      std::memcmp(out.data(), first_out.data(),
                                  out.numel() * sizeof(float)) == 0;
      }
    }
    live[round] = g_live_bytes.load();
  }
  for (int round = 0; round < kRounds; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    EXPECT_GT(packs[round], 0u);
    EXPECT_EQ(packs[round], packs[0]);
    EXPECT_TRUE(same[round]);
    EXPECT_EQ(live[round], live[0]);
  }
}

TEST(Executor, EvalOutputsAreBitwiseAcrossAvx2AndAvx512) {
  // rODENet-3-20 at its CIFAR width (convs of 16, 32 and 64 channels, so
  // the driver pairs row tiles, on 32x32 / 16x16 / 8x8 planes): the float,
  // fixed and fpga_sim plans give bitwise-equal outputs capped at AVX2 and
  // on the AVX-512 tier. The fixed plan runs twice: on the input, and at
  // 400x the input, where conv inputs outgrow int16 and take the float
  // carrier — as often on either tier.
  if (!kernel_tiers::avx512_usable()) GTEST_SKIP() << kernel_tiers::kNoAvx512;
  util::Rng rng(77);
  models::Network net(models::make_spec(Arch::kROdeNet3, 20));
  net.init(rng);
  sched::FpgaStageExecutor fpga(*net.stage(StageId::kLayer3_2),
                                sched::FpgaStageExecutor::Config{});
  net.set_training(false);
  core::Tensor x({3, 3, 32, 32});
  for (std::size_t i = 0; i < x.numel(); ++i) {
    x.data()[i] = static_cast<float>(rng.normal(0.0, 0.5));
  }
  core::Tensor wide = x;
  for (std::size_t i = 0; i < wide.numel(); ++i) wide.data()[i] *= 400.0f;

  struct Outputs {
    std::vector<core::Tensor> logits;
    std::uint64_t carriers = 0;
  };
  auto run = [&] {
    Outputs out;
    models::FloatStageExecutor float_exec;
    models::FixedStageExecutor fixed(20);
    models::StagePlan pl_plan;
    pl_plan.assign(StageId::kLayer3_2, &fpga);
    out.logits.push_back(net.forward_with(x, models::StagePlan(&float_exec)));
    out.logits.push_back(net.forward_with(x, models::StagePlan(&fixed)));
    const std::uint64_t narrow_carriers = fixed.float_carrier_calls();
    out.logits.push_back(net.forward_with(wide, models::StagePlan(&fixed)));
    out.carriers = fixed.float_carrier_calls() - narrow_carriers;
    out.logits.push_back(net.forward_with(x, pl_plan));
    return out;
  };
  Outputs avx2;
  {
    kernel_tiers::IsaCap cap(core::GemmIsa::kAvx2);
    avx2 = run();
  }
  const Outputs avx512 = run();
  EXPECT_GT(avx2.carriers, 0u) << "the wide input never took the carrier";
  EXPECT_EQ(avx512.carriers, avx2.carriers);
  const char* names[] = {"float", "fixed", "fixed at 400x", "fpga_sim"};
  for (std::size_t i = 0; i < avx2.logits.size(); ++i) {
    ASSERT_TRUE(avx512.logits[i].same_shape(avx2.logits[i])) << names[i];
    EXPECT_EQ(0, std::memcmp(avx512.logits[i].data(), avx2.logits[i].data(),
                             avx2.logits[i].numel() * sizeof(float)))
        << names[i];
  }
}
