// The PL simulator: cycle model against the paper's published numbers,
// functional fixed-point equivalence against the float reference kernels,
// bitwise equality of the GEMM-backed conv engine with the per-pixel MAC
// loop and of the one-pass BN engine with the three-pass BN loop (golden
// references, every kernel tier, int32-rail operands), the fused Euler
// writeback, allocation-free warm solves, BN and writeback arithmetic at
// the rails, BRAM allocation, AXI, timing closure.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <new>

#include "core/gemm_kernels.hpp"
#include "core/init.hpp"
#include "fixed/fixed_math.hpp"
#include "fpga/accelerator.hpp"
#include "fpga/axi.hpp"
#include "fpga/bn_engine.hpp"
#include "fpga/bram.hpp"
#include "fpga/conv_engine.hpp"
#include "fpga/device.hpp"
#include "fpga/mac_array.hpp"
#include "kernel_tiers.hpp"
#include "models/architecture.hpp"
#include "models/network.hpp"
#include "models/odeblock.hpp"
#include "sched/fpga_executor.hpp"
#include "util/rng.hpp"

// Counts this thread's heap allocations, for the allocation-free checks.
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

using namespace odenet::fpga;
using odenet::core::Tensor;
namespace ou = odenet::util;
namespace ofx = odenet::fixed;

namespace {
Tensor random_tensor(std::vector<int> shape, ou::Rng& rng, double std = 0.5) {
  Tensor t(std::move(shape));
  for (std::size_t i = 0; i < t.numel(); ++i) {
    t.data()[i] = static_cast<float>(rng.normal(0.0, std));
  }
  return t;
}

/// Golden reference for ConvEngine::run, the PL's per-pixel MAC loop: per
/// output, every in-bounds tap of every input plane and (when the weights
/// carry one) of the constant time plane, multiplied into one wide
/// accumulator, then a single MacArray::writeback. Accumulates in wrapping
/// uint64 so that int32-rail operands are defined too.
ofx::FixedTensor golden_conv(const ofx::FixedTensor& weights,
                             const ofx::FixedTensor& input, float t) {
  const int co = weights.shape[0], planes = weights.shape[1];
  const int ci = input.shape[0], h = input.shape[1], w = input.shape[2];
  const int fb = input.frac_bits;
  const std::int64_t t_raw = static_cast<std::int64_t>(
      static_cast<double>(t) * static_cast<double>(std::int64_t{1} << fb) +
      (t >= 0 ? 0.5 : -0.5));
  ofx::FixedTensor out;
  out.shape = {co, h, w};
  out.frac_bits = fb;
  out.raw.resize(static_cast<std::size_t>(co) * h * w);
  for (int o = 0; o < co; ++o) {
    for (int oh = 0; oh < h; ++oh) {
      for (int ow = 0; ow < w; ++ow) {
        std::uint64_t acc = 0;
        for (int c = 0; c < planes; ++c) {
          const std::int32_t* wk =
              weights.raw.data() +
              (static_cast<std::size_t>(o) * planes + c) * 9;
          // Plane c < ci is data; the one past them is the time plane.
          const std::int32_t* in_plane =
              c < ci ? input.raw.data() + static_cast<std::size_t>(c) * h * w
                     : nullptr;
          for (int kh = 0; kh < 3; ++kh) {
            const int ih = oh - 1 + kh;
            if (ih < 0 || ih >= h) continue;
            for (int kw = 0; kw < 3; ++kw) {
              const int iw = ow - 1 + kw;
              if (iw < 0 || iw >= w) continue;
              const std::int64_t a =
                  in_plane != nullptr ? in_plane[ih * w + iw] : t_raw;
              acc += static_cast<std::uint64_t>(a) *
                     static_cast<std::uint64_t>(std::int64_t{wk[kh * 3 + kw]});
            }
          }
        }
        out.raw[(static_cast<std::size_t>(o) * h + oh) * w + ow] =
            MacArray::writeback(static_cast<std::int64_t>(acc), fb);
      }
    }
  }
  return out;
}

/// Golden reference for BnEngine::run, the PL's three streaming passes per
/// channel as the hardware orders them: the mean, the variance as a
/// running sum of (x - mean)^2 that saturates at INT64_MAX, then the
/// normalize ((x - mean) * inv_std) * gamma + beta with branchy
/// round-half-away-from-zero products, optional ReLU and int32
/// saturation.
ofx::FixedTensor golden_bn(const ofx::FixedTensor& input,
                           const std::vector<std::int32_t>& gamma,
                           const std::vector<std::int32_t>& beta, bool relu,
                           float eps = 1e-5f) {
  const int channels = input.shape[0];
  const std::size_t plane =
      static_cast<std::size_t>(input.shape[1]) * input.shape[2];
  const int fb = input.frac_bits;
  const std::int64_t one = std::int64_t{1} << fb;
  const auto eps_raw = static_cast<std::int64_t>(
      static_cast<double>(eps) * static_cast<double>(one) + 0.5);
  const bool pow2 = (plane & (plane - 1)) == 0;
  int shift = 0;
  while ((std::size_t{1} << shift) < plane) ++shift;
  ofx::FixedTensor out = input;
  for (int c = 0; c < channels; ++c) {
    const std::int32_t* src =
        input.raw.data() + static_cast<std::size_t>(c) * plane;
    std::int32_t* dst = out.raw.data() + static_cast<std::size_t>(c) * plane;
    std::int64_t sum = 0;
    for (std::size_t i = 0; i < plane; ++i) sum += src[i];
    const std::int64_t mean =
        pow2 ? sum >> shift
             : ofx::idiv_i64(sum, static_cast<std::int64_t>(plane));
    constexpr std::uint64_t kSqMax =
        static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max());
    std::uint64_t sq_sum = 0;
    for (std::size_t i = 0; i < plane; ++i) {
      const std::int64_t d = static_cast<std::int64_t>(src[i]) - mean;
      const std::uint64_t mag = static_cast<std::uint64_t>(d < 0 ? -d : d);
      const std::uint64_t d2 = mag * mag;
      sq_sum = d2 > kSqMax - sq_sum ? kSqMax : sq_sum + d2;
    }
    const auto sq = static_cast<std::int64_t>(sq_sum);
    const std::int64_t var =
        (pow2 ? sq >> shift
              : ofx::idiv_i64(sq, static_cast<std::int64_t>(plane))) >>
        fb;
    const auto std_raw = static_cast<std::int64_t>(
        ofx::isqrt_u64(static_cast<std::uint64_t>(var + eps_raw) << fb));
    const std::int64_t inv_std = ofx::idiv_i64(one << fb, std_raw);
    const std::int64_t half = std::int64_t{1} << (fb - 1);
    auto qmul = [fb, half](std::int64_t a, std::int64_t v) {
      const std::int64_t p = a * v;
      return p >= 0 ? (p + half) >> fb : -((-p + half) >> fb);
    };
    for (std::size_t i = 0; i < plane; ++i) {
      const std::int64_t centered = static_cast<std::int64_t>(src[i]) - mean;
      std::int64_t y = qmul(qmul(centered, inv_std), gamma[c]) + beta[c];
      if (relu && y < 0) y = 0;
      if (y > std::numeric_limits<std::int32_t>::max()) {
        y = std::numeric_limits<std::int32_t>::max();
      } else if (y < std::numeric_limits<std::int32_t>::min()) {
        y = std::numeric_limits<std::int32_t>::min();
      }
      dst[i] = static_cast<std::int32_t>(y);
    }
  }
  return out;
}

/// Raw buffer of `n` Q20 values: normal draws, or (rails) an even mix of
/// INT32_MIN, INT32_MAX and uniform 32-bit words, so that accumulators
/// wrap mod 2^64.
std::vector<std::int32_t> random_raws(std::size_t n, ou::Rng& rng, double std,
                                      bool rails) {
  std::vector<std::int32_t> v(n);
  for (auto& x : v) {
    if (!rails) {
      x = static_cast<std::int32_t>(
          std::lround(rng.normal(0.0, std) * (1 << 20)));
      continue;
    }
    switch (rng.uniform_int(3)) {
      case 0: x = std::numeric_limits<std::int32_t>::min(); break;
      case 1: x = std::numeric_limits<std::int32_t>::max(); break;
      default: x = static_cast<std::int32_t>(rng.next_u64() >> 32); break;
    }
  }
  return v;
}

struct ConvGeometry {
  int cin, cout, extent;
};

/// Runs the engine on random weights/input for every t and every kernel
/// tier, asserting bitwise equality with golden_conv.
void expect_engine_matches_golden(const ConvGeometry& g, bool time_plane,
                                  bool rails, ou::Rng& rng) {
  SCOPED_TRACE(std::to_string(g.cin) + "->" + std::to_string(g.cout) + " @" +
               std::to_string(g.extent) + (time_plane ? " +t" : "") +
               (rails ? " rails" : ""));
  ofx::FixedTensor w;
  w.shape = {g.cout, g.cin + (time_plane ? 1 : 0), 3, 3};
  w.raw = random_raws(static_cast<std::size_t>(g.cout) * w.shape[1] * 9, rng,
                      0.1, rails);
  ofx::FixedTensor x;
  x.shape = {g.cin, g.extent, g.extent};
  x.raw = random_raws(static_cast<std::size_t>(g.cin) * g.extent * g.extent,
                      rng, 1.0, rails);
  ConvEngine engine({.in_channels = g.cin, .out_channels = g.cout,
                     .extent = g.extent, .parallelism = 16});
  engine.load_weights(w);
  ASSERT_EQ(engine.has_time_weights(), time_plane);
  for (float t : {0.0f, 0.37f, 11.0f, -2.5f}) {
    const ofx::FixedTensor want = golden_conv(w, x, t);
    for (kernel_tiers::GemmIsa isa : kernel_tiers::usable_tiers()) {
      kernel_tiers::IsaCap cap(isa);
      const ofx::FixedTensor got = engine.run(x, t);
      ASSERT_EQ(got.shape, want.shape);
      EXPECT_EQ(0, std::memcmp(got.raw.data(), want.raw.data(),
                               want.raw.size() * sizeof(std::int32_t)))
          << "t=" << t << " isa=" << odenet::core::gemm_isa_name();
    }
  }
}

/// FNV-1a over the bit patterns of a float tensor: pins outputs bitwise.
std::uint64_t fnv1a_bits(const Tensor& t) {
  std::uint64_t h = 1469598103934665603ull;
  for (std::size_t i = 0; i < t.numel(); ++i) {
    std::uint32_t bits;
    std::memcpy(&bits, t.data() + i, sizeof(bits));
    for (int b = 0; b < 4; ++b) {
      h ^= (bits >> (8 * b)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  return h;
}
}  // namespace

TEST(Device, Xc7z020Inventory) {
  const auto& dev = xc7z020();
  EXPECT_EQ(dev.bram36, 140);
  EXPECT_EQ(dev.dsp, 220);
  EXPECT_EQ(dev.lut, 53200);
  EXPECT_EQ(dev.ff, 106400);
}

TEST(Device, PynqZ2Board) {
  const auto& b = pynq_z2();
  EXPECT_EQ(b.cpu_mhz, 650.0);
  EXPECT_EQ(b.cores, 2);
  EXPECT_EQ(b.dram_mb, 512);
  EXPECT_EQ(b.pl_clock_mhz, 100.0);
}

TEST(Device, TimingClosureMatchesPaper) {
  // conv_x16 closes at 100 MHz; conv_x32 does not (paper §3.1).
  EXPECT_TRUE(meets_timing(16, 100.0));
  EXPECT_FALSE(meets_timing(32, 100.0));
  // Halving the clock admits conv_x32.
  EXPECT_TRUE(meets_timing(32, 50.0));
  EXPECT_EQ(max_parallelism_at(100.0), 16);
}

TEST(MacArray, DspFormulaMatchesTable3) {
  EXPECT_EQ(dsp_for_parallelism(1), 8);
  EXPECT_EQ(dsp_for_parallelism(4), 20);
  EXPECT_EQ(dsp_for_parallelism(8), 36);
  EXPECT_EQ(dsp_for_parallelism(16), 68);
  EXPECT_EQ(dsp_for_parallelism(32), 132);
}

TEST(MacArray, CycleModelGroupsChannels) {
  MacArray m(16);
  // 64 channels -> 4 groups; 10 beats/channel -> 4*10*5 cycles.
  EXPECT_EQ(m.cycles(10, 64), 200u);
  // Fewer channels than units: one group.
  EXPECT_EQ(m.cycles(10, 8), 50u);
  EXPECT_THROW(MacArray(0), odenet::Error);
  EXPECT_THROW(MacArray(65), odenet::Error);
}

TEST(MacArray, WritebackRounding) {
  // 1.5 * 1.0 in Q4: raw 24 * 16 = 384; >>4 with round = 24 (1.5).
  EXPECT_EQ(MacArray::writeback(384, 4), 24);
  // Rounding: raw 7 at frac 2 -> 7/4 = 1.75 -> rounds to 2.
  EXPECT_EQ(MacArray::writeback(7, 2), 2);
  // Negative symmetric rounding.
  EXPECT_EQ(MacArray::writeback(-7, 2), -2);
}

TEST(MacArray, WritebackIsDefinedAtTheRails) {
  constexpr std::int64_t kMin64 = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax64 = std::numeric_limits<std::int64_t>::max();
  constexpr std::int32_t kMin32 = std::numeric_limits<std::int32_t>::min();
  constexpr std::int32_t kMax32 = std::numeric_limits<std::int32_t>::max();
  // Wrapped accumulators at and next to the int64 rails saturate.
  EXPECT_EQ(MacArray::writeback(kMin64, 20), kMin32);
  EXPECT_EQ(MacArray::writeback(kMin64 + 1, 20), kMin32);
  EXPECT_EQ(MacArray::writeback(kMax64, 20), kMax32);
  EXPECT_EQ(MacArray::writeback(kMax64, 1), kMax32);
  // The int32 rails themselves, exactly and half a step past them.
  const std::int64_t top = std::int64_t{kMax32} << 20;
  const std::int64_t bottom = std::int64_t{kMin32} * (std::int64_t{1} << 20);
  EXPECT_EQ(MacArray::writeback(top, 20), kMax32);
  EXPECT_EQ(MacArray::writeback(top + (1 << 19) - 1, 20), kMax32);
  EXPECT_EQ(MacArray::writeback(top + (1 << 19), 20), kMax32);
  EXPECT_EQ(MacArray::writeback(bottom, 20), kMin32);
  EXPECT_EQ(MacArray::writeback(bottom + (1 << 19), 20), kMin32);
  EXPECT_EQ(MacArray::writeback(bottom + (1 << 19) + 1, 20), kMin32 + 1);
  EXPECT_EQ(MacArray::writeback(bottom - (1 << 19), 20), kMin32);
  // Ties round away from zero on both sides.
  EXPECT_EQ(MacArray::writeback(3 << 19, 20), 2);
  EXPECT_EQ(MacArray::writeback(-(3 << 19), 20), -2);
  EXPECT_EQ(MacArray::writeback((1 << 19) - 1, 20), 0);
  EXPECT_EQ(MacArray::writeback(-((1 << 19) - 1), 20), 0);
}

// --------------------------------------------------------------------------
// The published cycle series (§3.1): layer3_2 at conv_x1/4/8/16/32.

struct CycleCase {
  int parallelism;
  double paper_mcycles;
  double tolerance_pct;
};

class Layer32Cycles : public ::testing::TestWithParam<CycleCase> {};

TEST_P(Layer32Cycles, BlockCyclesMatchPaper) {
  const auto p = GetParam();
  const std::uint64_t conv = ConvEngine::conv_cycles(64, 64, 8, p.parallelism);
  const std::uint64_t bn = BnEngine::bn_cycles(64, 8);
  const double mcycles = static_cast<double>(2 * conv + 2 * bn) / 1e6;
  EXPECT_NEAR(mcycles, p.paper_mcycles,
              p.paper_mcycles * p.tolerance_pct / 100.0)
      << "conv_x" << p.parallelism;
}

INSTANTIATE_TEST_SUITE_P(PaperSeries, Layer32Cycles,
                         ::testing::Values(CycleCase{1, 23.78, 0.5},
                                           CycleCase{4, 6.07, 0.1},
                                           CycleCase{8, 3.12, 0.1},
                                           CycleCase{16, 1.64, 0.3},
                                           CycleCase{32, 0.90, 1.0}));

TEST(ConvEngine, CyclesScaleInverselyUpToChannelCap) {
  // layer3_2 conv: exactly 11,796,480 cycles at x1 (64 groups x 36864
  // beats x 5); parallelism beyond Cout=64 cannot help.
  EXPECT_EQ(ConvEngine::conv_cycles(64, 64, 8, 1), 11796480u);
  EXPECT_EQ(ConvEngine::conv_cycles(64, 64, 8, 64),
            ConvEngine::conv_cycles(64, 64, 8, 64));
  EXPECT_EQ(ConvEngine::conv_cycles(64, 64, 8, 16),
            4u * 36864u * 5u);
}

TEST(ConvEngine, ConvDominatesAtSingleMac) {
  // Paper footnote 1: the two convolutions are ~99% of layer3_2 cycles
  // with one MAC unit.
  const double conv = 2.0 * ConvEngine::conv_cycles(64, 64, 8, 1);
  const double bn = 2.0 * BnEngine::bn_cycles(64, 8);
  EXPECT_GT(conv / (conv + bn), 0.99);
}

TEST(ConvEngine, FunctionalMatchesFloatReference) {
  ou::Rng rng(1);
  odenet::core::Conv2d ref({.in_channels = 4, .out_channels = 6});
  odenet::core::init_conv(ref, rng);

  ConvEngine engine({.in_channels = 4, .out_channels = 6, .extent = 5,
                     .parallelism = 4});
  engine.load_weights(ofx::quantize(ref.weight().value, 20));
  EXPECT_FALSE(engine.has_time_weights());

  Tensor x = random_tensor({1, 4, 5, 5}, rng);
  // Reference uses the dequantized weights so both paths compute the same
  // math, the engine in fixed point.
  ref.weight().value = ofx::dequantize(ofx::quantize(ref.weight().value, 20));
  Tensor want = ref.forward(x);

  std::uint64_t cycles = 0;
  auto got = engine.run(ofx::quantize(x.reshaped({4, 5, 5}), 20), 0.0f,
                        &cycles);
  Tensor gotf = ofx::dequantize(got);
  for (std::size_t i = 0; i < want.numel(); ++i) {
    EXPECT_NEAR(gotf.data()[i], want.data()[i], 1e-4f) << "at " << i;
  }
  EXPECT_EQ(cycles, engine.cycles_per_run());
}

TEST(ConvEngine, TimeChannelFoldMatchesConcatConv) {
  ou::Rng rng(2);
  odenet::core::Conv2d ref({.in_channels = 3, .out_channels = 3,
                            .time_channel = true});
  odenet::core::init_conv(ref, rng);
  ref.weight().value = ofx::dequantize(ofx::quantize(ref.weight().value, 20));

  ConvEngine engine({.in_channels = 3, .out_channels = 3, .extent = 6,
                     .parallelism = 1});
  engine.load_weights(ofx::quantize(ref.weight().value, 20));
  EXPECT_TRUE(engine.has_time_weights());

  Tensor x = random_tensor({1, 3, 6, 6}, rng);
  for (float t : {0.0f, 1.0f, 3.0f}) {
    ref.set_time(t);
    Tensor want = ref.forward(x);
    auto got = ofx::dequantize(
        engine.run(ofx::quantize(x.reshaped({3, 6, 6}), 20), t));
    for (std::size_t i = 0; i < want.numel(); ++i) {
      EXPECT_NEAR(got.data()[i], want.data()[i], 2e-4f)
          << "t=" << t << " at " << i;
    }
  }
}

TEST(ConvEngine, RejectsBadShapes) {
  ConvEngine engine({.in_channels = 2, .out_channels = 2, .extent = 4,
                     .parallelism = 1});
  ofx::FixedTensor bad;
  bad.shape = {3, 4, 4};
  bad.raw.resize(48);
  EXPECT_THROW(engine.run(bad, 0.0f), odenet::Error);  // weights not loaded
  odenet::core::Tensor w({2, 2, 3, 3});
  engine.load_weights(ofx::quantize(w, 20));
  EXPECT_THROW(engine.run(bad, 0.0f), odenet::Error);  // wrong channels
}

TEST(ConvEngine, GemmMatchesGoldenLoopOnPaperGeometries) {
  // layer1, layer2_2 and layer3_2 of rODENet: Cin = Cout at 32x32, 16x16
  // and 8x8, with and without the time plane.
  ou::Rng rng(11);
  for (const ConvGeometry& g : {ConvGeometry{16, 16, 32},
                                ConvGeometry{32, 32, 16},
                                ConvGeometry{64, 64, 8}}) {
    for (bool time_plane : {false, true}) {
      expect_engine_matches_golden(g, time_plane, /*rails=*/false, rng);
    }
  }
}

TEST(ConvEngine, GemmMatchesGoldenLoopOnRaggedTiles) {
  // Cout % 4 != 0 (phantom weight rows) and H*W % 8 != 0 (phantom columns
  // in the last panel), down to a 1x1 map where only the centre tap lands.
  ou::Rng rng(12);
  for (const ConvGeometry& g :
       {ConvGeometry{3, 5, 5}, ConvGeometry{1, 7, 3}, ConvGeometry{2, 6, 1},
        ConvGeometry{5, 9, 2}, ConvGeometry{4, 3, 7}}) {
    for (bool time_plane : {false, true}) {
      expect_engine_matches_golden(g, time_plane, /*rails=*/false, rng);
    }
  }
}

TEST(ConvEngine, GemmMatchesGoldenLoopWithRailOperands) {
  // INT32_MIN/INT32_MAX weights and activations: products reach 2^62 and
  // the sums wrap mod 2^64, where the kernels and the reference must still
  // agree bit for bit (and stay free of undefined behaviour).
  ou::Rng rng(13);
  for (const ConvGeometry& g : {ConvGeometry{8, 6, 5}, ConvGeometry{64, 64, 8},
                                ConvGeometry{1, 4, 3}}) {
    for (bool time_plane : {false, true}) {
      expect_engine_matches_golden(g, time_plane, /*rails=*/true, rng);
    }
  }
}

TEST(ConvEngine, GemmMatchesGoldenLoopWhereTilesStraddleRows) {
  // Extents whose 8-column tiles straddle image rows (or run past a plane
  // smaller than one tile) take the masked gather; 9 and 12 also mix in
  // one-row tiles that take the row copy.
  ou::Rng rng(14);
  for (int extent : {1, 2, 3, 5, 6, 7, 9, 12}) {
    for (bool time_plane : {false, true}) {
      expect_engine_matches_golden(ConvGeometry{3, 5, extent}, time_plane,
                                   /*rails=*/false, rng);
    }
    expect_engine_matches_golden(ConvGeometry{2, 4, extent},
                                 /*time_plane=*/true, /*rails=*/true, rng);
  }
}

TEST(BnEngine, CycleModel) {
  // elems*20 + channels*40.
  EXPECT_EQ(BnEngine::bn_cycles(64, 8), 4096u * 20 + 64u * 40);
  EXPECT_EQ(BnEngine::bn_cycles(16, 32), 16384u * 20 + 16u * 40);
}

TEST(BnEngine, FunctionalMatchesBatchStatsBn) {
  ou::Rng rng(3);
  odenet::core::BatchNorm2d ref(4);
  ref.set_use_batch_stats_in_eval(true);
  ref.gamma().value.at1(1) = 1.7f;
  ref.beta().value.at1(2) = -0.6f;

  BnEngine engine({.channels = 4, .extent = 6});
  engine.load_params(ofx::quantize(ref.gamma().value, 20),
                     ofx::quantize(ref.beta().value, 20));

  Tensor x = random_tensor({1, 4, 6, 6}, rng, 1.0);
  Tensor want = ref.forward(x);
  std::uint64_t cycles = 0;
  auto got = ofx::dequantize(
      engine.run(ofx::quantize(x.reshaped({4, 6, 6}), 20), &cycles));
  for (std::size_t i = 0; i < want.numel(); ++i) {
    EXPECT_NEAR(got.data()[i], want.data()[i], 5e-3f) << "at " << i;
  }
  EXPECT_EQ(cycles, engine.cycles_per_run());
}

TEST(BnEngine, FusedReluClamps) {
  BnEngine engine({.channels = 1, .extent = 4, .fused_relu = true});
  odenet::core::Tensor gamma({1}), beta({1});
  gamma.at1(0) = 1.0f;
  engine.load_params(ofx::quantize(gamma, 20), ofx::quantize(beta, 20));
  ou::Rng rng(4);
  Tensor x = random_tensor({1, 1, 4, 4}, rng, 2.0);
  auto out = ofx::dequantize(engine.run(ofx::quantize(x.reshaped({1, 4, 4}),
                                                      20)));
  for (std::size_t i = 0; i < out.numel(); ++i) {
    EXPECT_GE(out.data()[i], 0.0f);
  }
  // Normalized output must contain zeros (the clamped half).
  int zeros = 0;
  for (std::size_t i = 0; i < out.numel(); ++i) {
    zeros += (out.data()[i] == 0.0f);
  }
  EXPECT_GT(zeros, 0);
}

TEST(BnEngine, RailChannelSaturatesVarianceInsteadOfOverflowing) {
  // One 8x8 channel alternating INT32_MAX / INT32_MIN: every squared
  // deviation is ~2^62, so the variance sum passes INT64_MAX on the third
  // element. It saturates there, giving var = (INT64_MAX >> 6) >> 20, a
  // std of 379625062 raw and an inv_std of 2896 raw; gamma 1 and beta 0
  // then map the two rails to +-5931008 raw (+-5.656).
  BnEngine engine({.channels = 1, .extent = 8});
  Tensor gamma({1}), beta({1});
  gamma.at1(0) = 1.0f;
  engine.load_params(ofx::quantize(gamma, 20), ofx::quantize(beta, 20));
  ofx::FixedTensor x;
  x.shape = {1, 8, 8};
  x.raw.resize(64);
  for (std::size_t i = 0; i < x.raw.size(); ++i) {
    x.raw[i] = i % 2 == 0 ? std::numeric_limits<std::int32_t>::max()
                          : std::numeric_limits<std::int32_t>::min();
  }
  const ofx::FixedTensor y = engine.run(x);
  for (std::size_t i = 0; i < y.raw.size(); ++i) {
    EXPECT_EQ(y.raw[i], i % 2 == 0 ? 5931008 : -5931008) << "at " << i;
  }
}

namespace {
enum class Plane { kFullRange, kAlternatingRails, kRailOutlier };

/// A [channels, extent, extent] Q20 map of the given kind.
ofx::FixedTensor bn_input(int channels, int extent, Plane kind,
                          ou::Rng& rng) {
  ofx::FixedTensor x;
  x.shape = {channels, extent, extent};
  const std::size_t n = static_cast<std::size_t>(channels) * extent * extent;
  switch (kind) {
    case Plane::kFullRange:
      x.raw.resize(n);
      for (auto& v : x.raw) v = static_cast<std::int32_t>(rng.next_u64() >> 32);
      break;
    case Plane::kAlternatingRails:
      x.raw.resize(n);
      for (std::size_t i = 0; i < n; ++i) {
        x.raw[i] = i % 2 == 0 ? std::numeric_limits<std::int32_t>::max()
                              : std::numeric_limits<std::int32_t>::min();
      }
      break;
    case Plane::kRailOutlier: {
      x.raw = random_raws(n, rng, 0.5, /*rails=*/false);
      const std::size_t plane = n / static_cast<std::size_t>(channels);
      for (int c = 0; c < channels; ++c) {
        x.raw[static_cast<std::size_t>(c) * plane +
              rng.uniform_int(static_cast<int>(plane))] =
            c % 2 == 0 ? std::numeric_limits<std::int32_t>::max()
                       : std::numeric_limits<std::int32_t>::min();
      }
      break;
    }
  }
  return x;
}

/// Gamma/beta near N(1, 0.5) / N(0, 0.5) at Q20, as trained BNs hold.
std::pair<ofx::FixedTensor, ofx::FixedTensor> bn_params(int channels,
                                                        ou::Rng& rng) {
  ofx::FixedTensor gamma, beta;
  gamma.shape = beta.shape = {channels};
  for (int c = 0; c < channels; ++c) {
    gamma.raw.push_back(static_cast<std::int32_t>(
        std::lround(rng.normal(1.0, 0.5) * (1 << 20))));
    beta.raw.push_back(static_cast<std::int32_t>(
        std::lround(rng.normal(0.0, 0.5) * (1 << 20))));
  }
  return {gamma, beta};
}
}  // namespace

TEST(BnEngine, OnePassMatchesThreePassGoldenLoop) {
  // Exact Σx / Σx² statistics against the saturating three-pass loop:
  // power-of-two and other plane sizes, full-range words, rails whose
  // variance sum saturates, one rail outlier among small values.
  ou::Rng rng(15);
  for (int extent : {1, 2, 3, 6, 7, 8, 12, 16, 32}) {
    for (Plane kind : {Plane::kFullRange, Plane::kAlternatingRails,
                       Plane::kRailOutlier}) {
      for (bool relu : {false, true}) {
        SCOPED_TRACE("extent " + std::to_string(extent) + " kind " +
                     std::to_string(static_cast<int>(kind)) +
                     (relu ? " relu" : ""));
        const int channels = 3;
        const auto [gamma, beta] = bn_params(channels, rng);
        BnEngine engine({.channels = channels, .extent = extent,
                         .fused_relu = relu});
        engine.load_params(gamma, beta);
        const ofx::FixedTensor x = bn_input(channels, extent, kind, rng);
        const ofx::FixedTensor want = golden_bn(x, gamma.raw, beta.raw, relu);
        const ofx::FixedTensor got = engine.run(x);
        ASSERT_EQ(got.shape, want.shape);
        EXPECT_EQ(0, std::memcmp(got.raw.data(), want.raw.data(),
                                 want.raw.size() * sizeof(std::int32_t)));
      }
    }
  }
}

TEST(BnEngine, FusedEulerWritebackMatchesQ20Operators) {
  // BN2 of an Euler step writes z + h*y, with y the normalized value,
  // through Q20's saturating operators — in place over z.
  ou::Rng rng(16);
  for (int extent : {3, 8}) {
    for (float h : {1.0f, 1.0f / 6.0f, -0.75f}) {
      const int channels = 4;
      const auto [gamma, beta] = bn_params(channels, rng);
      BnEngine engine({.channels = channels, .extent = extent});
      engine.load_params(gamma, beta);
      const ofx::FixedTensor x =
          bn_input(channels, extent, Plane::kRailOutlier, rng);
      const ofx::FixedTensor y = golden_bn(x, gamma.raw, beta.raw, false);
      // z spans small values and both rails, so the add saturates too.
      std::vector<std::int32_t> z = random_raws(x.raw.size(), rng, 4.0, false);
      z[0] = std::numeric_limits<std::int32_t>::max();
      z[1] = std::numeric_limits<std::int32_t>::min();
      std::vector<std::int32_t> want(z.size());
      const auto hq = ofx::Q20::from_float(h);
      for (std::size_t i = 0; i < z.size(); ++i) {
        want[i] = (ofx::Q20::from_raw(z[i]) + hq * ofx::Q20::from_raw(y.raw[i]))
                      .raw();
      }
      engine.run(x.raw.data(), z.data(), &hq);
      EXPECT_EQ(0, std::memcmp(z.data(), want.data(),
                               want.size() * sizeof(std::int32_t)))
          << "extent " << extent << " h " << h;
    }
  }
}

TEST(Bram, AllocationGranularity) {
  BramAllocator a;
  // 512 32-bit words fit exactly one BRAM18.
  EXPECT_EQ(a.allocate("b1", 512, 1, 32), 1);
  EXPECT_EQ(a.allocate("b2", 513, 1, 32), 2);
  // 16-bit words pack two per entry.
  EXPECT_EQ(a.allocate("b3", 1024, 1, 16), 1);
  // Banking multiplies granularity.
  EXPECT_EQ(a.allocate("b4", 512, 4, 32), 4);
  EXPECT_EQ(a.bram18_used(), 1 + 2 + 1 + 4);
  EXPECT_EQ(a.bram36_used(), 4);  // ceil(8/2)
}

TEST(Bram, SaturationDetected) {
  FpgaDevice tiny{.part = "tiny", .bram36 = 2, .dsp = 10, .lut = 100,
                  .ff = 100};
  BramAllocator a(tiny);
  a.allocate("big", 5 * 1024, 1, 32);  // 10 BRAM18 = 5 BRAM36 > 2
  EXPECT_TRUE(a.saturated());
  EXPECT_EQ(a.bram36_placed(), 2);
  EXPECT_GT(a.utilization(), 1.0);
}

TEST(Axi, PaperTransferModel) {
  // 1 cycle per float32 word, no setup: layer3_2 fmap = 4096 words.
  EXPECT_EQ(transfer_cycles(4096), 4096u);
  EXPECT_EQ(roundtrip_cycles(4096, 4096), 8192u);
  AxiConfig faster{.cycles_per_word = 0.25, .setup_cycles = 100};
  EXPECT_EQ(transfer_cycles(4096, faster), 100u + 1024u);
}

// --------------------------------------------------------------------------
// Whole-accelerator behaviour.

TEST(Accelerator, RejectsTimingViolation) {
  EXPECT_THROW(OdeBlockAccelerator({.channels = 64, .extent = 8,
                                    .parallelism = 32}),
               odenet::Error);
  // Down-clocked conv_x32 is allowed.
  EXPECT_NO_THROW(OdeBlockAccelerator(
      {.channels = 64, .extent = 8, .parallelism = 32, .clock_mhz = 50.0}));
  // Or with enforcement disabled.
  EXPECT_NO_THROW(OdeBlockAccelerator({.channels = 64, .extent = 8,
                                       .parallelism = 32,
                                       .enforce_timing = false}));
}

TEST(Accelerator, BranchEvalMatchesSoftware) {
  ou::Rng rng(5);
  odenet::core::BuildingBlock block({.in_channels = 4, .out_channels = 4,
                                     .stride = 1, .time_channel = true});
  odenet::core::init_block(block, rng);
  block.bn1().set_use_batch_stats_in_eval(true);
  block.bn2().set_use_batch_stats_in_eval(true);
  // Snap weights to Q20 so both paths see identical parameters.
  for (auto* p : block.params()) {
    p->value = ofx::dequantize(ofx::quantize(p->value, 20));
  }

  OdeBlockAccelerator accel({.channels = 4, .extent = 6, .parallelism = 4});
  accel.load_weights(block);

  Tensor z = random_tensor({1, 4, 6, 6}, rng);
  Tensor want = block.branch_forward(z, 1.0f);
  CycleBreakdown cycles;
  Tensor got = accel.eval_branch(z, 1.0f, &cycles);

  ASSERT_TRUE(got.same_shape(want));
  for (std::size_t i = 0; i < want.numel(); ++i) {
    EXPECT_NEAR(got.data()[i], want.data()[i], 2e-2f) << "at " << i;
  }
  EXPECT_GT(cycles.conv1, 0u);
  EXPECT_GT(cycles.bn2, 0u);
}

TEST(Accelerator, EulerSolveMatchesOdeBlock) {
  ou::Rng rng(6);
  odenet::models::OdeBlock ode({.channels = 4, .executions = 2}, "ode");
  odenet::core::init_block(ode.block(), rng);
  ode.block().bn1().set_use_batch_stats_in_eval(true);
  ode.block().bn2().set_use_batch_stats_in_eval(true);
  for (auto* p : ode.block().params()) {
    p->value = ofx::dequantize(ofx::quantize(p->value, 20));
  }

  OdeBlockAccelerator accel({.channels = 4, .extent = 5, .parallelism = 4});
  accel.load_weights(ode.block());

  Tensor z0 = random_tensor({1, 4, 5, 5}, rng);
  Tensor want = ode.forward(z0);
  AcceleratorReport report;
  Tensor got = accel.solve_euler(z0, 2, 1.0f, &report);

  for (std::size_t i = 0; i < want.numel(); ++i) {
    EXPECT_NEAR(got.data()[i], want.data()[i], 5e-2f) << "at " << i;
  }
  EXPECT_EQ(report.executions, 2);
  EXPECT_GT(report.seconds(), 0.0);
}

TEST(Accelerator, SolveEulerOutputIsPinned) {
  // A seeded layer3_2-shaped block (64 channels, 8x8, time plane) over the
  // 24 Euler steps of rODENet-3-56, under every kernel tier. The hash and
  // samples were captured from the per-pixel MAC loop engine; the GEMM
  // engine must reproduce them bit for bit.
  ou::Rng rng(2021);
  odenet::core::BuildingBlock block({.in_channels = 64, .out_channels = 64,
                                     .stride = 1, .time_channel = true});
  odenet::core::init_block(block, rng);
  OdeBlockAccelerator accel({.channels = 64, .extent = 8, .parallelism = 16});
  accel.load_weights(block);
  Tensor z0 = random_tensor({1, 64, 8, 8}, rng, 1.0);
  for (kernel_tiers::GemmIsa isa : kernel_tiers::usable_tiers()) {
    kernel_tiers::IsaCap cap(isa);
    AcceleratorReport report;
    const Tensor out = accel.solve_euler(z0, 24, 1.0f, &report);
    EXPECT_EQ(fnv1a_bits(out), 0x992c48d85aa3fccbull)
        << odenet::core::gemm_isa_name();
    EXPECT_EQ(out.data()[0], -43.9077225f);
    EXPECT_EQ(out.data()[777], 1.90596867f);
    EXPECT_EQ(out.data()[4095], -54.6747894f);
    EXPECT_EQ(report.total_cycles(), 39641088u);
  }
}

TEST(Accelerator, Layer32CyclesAndTransfersMatchTable5) {
  // rODENet-3 offload geometry at conv_x16: 1.6435 Mcycles compute + 8192
  // transfer cycles = 16.52 ms per execution at 100 MHz.
  OdeBlockAccelerator accel({.channels = 64, .extent = 8, .parallelism = 16});
  const auto c = accel.cycles_per_execution();
  EXPECT_EQ(c.conv1, 4u * 36864u * 5u);
  EXPECT_EQ(c.total(), 2 * ConvEngine::conv_cycles(64, 64, 8, 16) +
                           2 * BnEngine::bn_cycles(64, 8));
  EXPECT_EQ(accel.transfer_cycles_per_execution(), 8192u);
  // 24 executions (rODENet-3-56) -> ~0.40 s, the paper's Table-5 cell.
  AcceleratorReport r;
  r.per_execution = c;
  r.transfer_cycles_per_execution = accel.transfer_cycles_per_execution();
  r.executions = 24;
  r.clock_mhz = 100.0;
  EXPECT_NEAR(r.seconds(), 0.40, 0.01);
}

TEST(Accelerator, LoadRejectsGeometryMismatch) {
  ou::Rng rng(7);
  odenet::core::BuildingBlock block({.in_channels = 8, .out_channels = 8,
                                     .stride = 1});
  odenet::core::init_block(block, rng);
  OdeBlockAccelerator accel({.channels = 4, .extent = 6, .parallelism = 2});
  EXPECT_THROW(accel.load_weights(block), odenet::Error);
  // eval before load_weights:
  EXPECT_THROW(accel.eval_branch(Tensor({1, 4, 6, 6}), 0.0f), odenet::Error);
}

TEST(Accelerator, BramPlanShrinksWithNarrowWeights) {
  OdeBlockAccelerator q20({.channels = 64, .extent = 8, .parallelism = 16,
                           .frac_bits = 20});
  OdeBlockAccelerator q8({.channels = 64, .extent = 8, .parallelism = 16,
                          .frac_bits = 8});
  EXPECT_LT(q8.bram().bram36_used(), q20.bram().bram36_used());
}

TEST(Accelerator, WarmSolveAllocatesOnlyItsResult) {
  // The functional model works in the accelerator's three fmap buffers:
  // once warm, a solve allocates what its returned tensor needs, whatever
  // the step count, and the raw-buffer solve allocates nothing.
  ou::Rng rng(32);
  odenet::core::BuildingBlock block({.in_channels = 64, .out_channels = 64,
                                     .stride = 1, .time_channel = true});
  odenet::core::init_block(block, rng);
  OdeBlockAccelerator accel({.channels = 64, .extent = 8, .parallelism = 16});
  accel.load_weights(block);
  const Tensor z0 = random_tensor({1, 64, 8, 8}, rng);
  (void)accel.solve_euler(z0, 1, 1.0f);  // warm-up
  auto allocations = [](auto&& fn) {
    const std::size_t before = tl_allocations;
    fn();
    return tl_allocations - before;
  };
  const std::size_t result = allocations([&] { Tensor t(z0.shape()); });
  const std::size_t one =
      allocations([&] { (void)accel.solve_euler(z0, 1, 1.0f); });
  const std::size_t many =
      allocations([&] { (void)accel.solve_euler(z0, 24, 1.0f); });
  EXPECT_EQ(one, many);
  EXPECT_LE(many, result);
  std::vector<float> out(z0.numel());
  EXPECT_EQ(0u, allocations([&] {
              accel.solve_euler(z0.data(), 24, 1.0f, out.data());
            }));
}

TEST(Accelerator, WarmStageExecutorAllocatesOnlyItsResult) {
  // rODENet-3-56's layer3_2 on the PL, one image per run as perfbench's
  // offload workload sends it.
  ou::Rng rng(33);
  odenet::models::Network net(
      odenet::models::make_spec(odenet::models::Arch::kROdeNet3, 56));
  net.init(rng);
  net.set_training(false);
  odenet::models::Stage& stage =
      *net.stage(odenet::models::StageId::kLayer3_2);
  odenet::sched::FpgaStageExecutor exec(stage, {});
  const Tensor x = random_tensor({1, 64, 8, 8}, rng);
  odenet::core::StageRunStats stats;
  const Tensor warm = exec.run(stage, x, &stats);
  const std::size_t before_result = tl_allocations;
  { Tensor t(x.shape()); }
  const std::size_t result = tl_allocations - before_result;
  const std::size_t before = tl_allocations;
  const Tensor out = exec.run(stage, x, &stats);
  EXPECT_LE(tl_allocations - before, result);
  EXPECT_EQ(0, std::memcmp(out.data(), warm.data(),
                           out.numel() * sizeof(float)));
  EXPECT_EQ(stats.pl_cycles, 39641088u);
}
