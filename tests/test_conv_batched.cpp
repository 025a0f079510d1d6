// Batched im2col+GEMM conv: property-style parity sweep.
//
// The batched lowering (one column matrix + one GEMM for the whole
// micro-batch, arena-backed scratch) must agree with the naive
// double-accumulation reference (conv_reference.hpp) forward and backward
// (dW and dX), across randomized geometries: kernel {1,3,5}, stride
// {1,2}, pad {0,1,2}, batch {1,2,7,16}, non-square H != W, with and
// without the concat-time channel. Max abs error <= 1e-4 everywhere. Also
// pins down the scratch behaviour (no regrowth after the first call) and
// the n = 0 and pad-only-edge cases.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "conv_reference.hpp"
#include "core/conv2d.hpp"
#include "core/init.hpp"
#include "util/rng.hpp"

using namespace odenet::core;
namespace ou = odenet::util;

namespace {

constexpr float kTol = 1e-4f;

Tensor random_tensor(std::vector<int> shape, ou::Rng& rng) {
  Tensor t(std::move(shape));
  for (std::size_t i = 0; i < t.numel(); ++i) {
    t.data()[i] = static_cast<float>(rng.normal(0.0, 1.0));
  }
  return t;
}

double max_abs_diff(const Tensor& a, const Tensor& b) {
  EXPECT_TRUE(a.same_shape(b)) << a.shape_str() << " vs " << b.shape_str();
  double diff = 0.0;
  for (std::size_t i = 0; i < a.numel(); ++i) {
    diff = std::max(diff, std::fabs(static_cast<double>(a.data()[i]) -
                                    b.data()[i]));
  }
  return diff;
}

struct Geometry {
  int n, cin, cout, h, w, k, s, p;
  bool time_channel;

  std::string str() const {
    return "n=" + std::to_string(n) + " cin=" + std::to_string(cin) +
           " cout=" + std::to_string(cout) + " h=" + std::to_string(h) +
           " w=" + std::to_string(w) + " k=" + std::to_string(k) +
           " s=" + std::to_string(s) + " p=" + std::to_string(p) +
           (time_channel ? " tc" : "");
  }
};

/// Forward + backward parity of the batched conv against the naive
/// reference on one geometry.
void check_parity(const Geometry& g, ou::Rng& rng) {
  SCOPED_TRACE(g.str());
  constexpr float kTime = 0.6f;
  Conv2d conv({.in_channels = g.cin,
               .out_channels = g.cout,
               .kernel = g.k,
               .stride = g.s,
               .pad = g.p,
               .time_channel = g.time_channel});
  init_conv(conv, rng);
  conv.set_training(true);
  conv.set_time(kTime);

  Tensor x = random_tensor({g.n, g.cin, g.h, g.w}, rng);
  const Tensor x_in =
      g.time_channel ? conv_reference::with_time_plane(x, kTime) : x;
  const Tensor& w = conv.weight().value;
  Tensor y_ref = conv_reference::forward(x_in, w, g.s, g.p);
  Tensor y = conv.forward(x);
  EXPECT_LE(max_abs_diff(y, y_ref), kTol) << "fwd";

  Tensor gout = random_tensor(y_ref.shape(), rng);
  conv_reference::Grads ref = conv_reference::backward(x_in, w, gout, g.s,
                                                       g.p);
  Tensor gx = conv.backward(gout);
  const Tensor gx_ref = g.time_channel
                           ? conv_reference::without_time_plane(ref.dx)
                           : ref.dx;
  EXPECT_LE(max_abs_diff(gx, gx_ref), kTol) << "dX";
  EXPECT_LE(max_abs_diff(conv.weight().grad, ref.dw), kTol) << "dW";
}

}  // namespace

TEST(ConvBatchedParity, RandomizedGeometrySweep) {
  // Full kernel/stride/pad grid; batch sizes cycle through {1,2,7,16} and
  // every spatial extent is randomized non-square (H != W).
  const int batches[] = {1, 2, 7, 16};
  ou::Rng rng(42);
  int case_index = 0;
  for (int k : {1, 3, 5}) {
    for (int s : {1, 2}) {
      for (int p : {0, 1, 2}) {
        Geometry g;
        g.k = k;
        g.s = s;
        g.p = p;
        g.n = batches[case_index % 4];
        g.cin = 1 + case_index % 4;
        g.cout = 1 + (case_index / 2) % 5;
        // Non-square, valid for the kernel: in + 2p >= k.
        const int h_min = std::max(1, k - 2 * p);
        g.h = h_min + static_cast<int>(rng.uniform_int(6));
        do {
          g.w = h_min + static_cast<int>(rng.uniform_int(6));
        } while (g.w == g.h);
        g.time_channel = (case_index % 3 == 0);
        check_parity(g, rng);
        ++case_index;
      }
    }
  }
  EXPECT_EQ(case_index, 18);
}

TEST(ConvBatchedParity, LargeBatchOdeBlockShape) {
  // The shape that matters for the paper's ODEBlock (layer3_2-like,
  // narrowed channels): concat-time conv at batch 16.
  ou::Rng rng(7);
  Geometry g{.n = 16, .cin = 8, .cout = 8, .h = 8, .w = 8, .k = 3, .s = 1,
             .p = 1, .time_channel = true};
  check_parity(g, rng);
}

TEST(ConvBatchedParity, InputGradientIsPerSample) {
  // The backward computes dX one sample at a time, so sample i's dX at
  // batch n is, bit for bit, a batch-1 backward on sample i: on the tap
  // plan's stride-1 geometry (planes that are and are not multiples of
  // 16, with and without the time channel) and on the general walk.
  ou::Rng rng(19);
  const Geometry geometries[] = {
      {.n = 5, .cin = 4, .cout = 8, .h = 8, .w = 8, .k = 3, .s = 1, .p = 1,
       .time_channel = true},
      {.n = 3, .cin = 3, .cout = 5, .h = 7, .w = 5, .k = 3, .s = 1, .p = 1,
       .time_channel = true},
      {.n = 4, .cin = 2, .cout = 4, .h = 6, .w = 9, .k = 5, .s = 1, .p = 2,
       .time_channel = false},
      {.n = 3, .cin = 4, .cout = 8, .h = 9, .w = 8, .k = 3, .s = 2, .p = 1,
       .time_channel = false},
      {.n = 2, .cin = 3, .cout = 4, .h = 5, .w = 5, .k = 1, .s = 1, .p = 0,
       .time_channel = true},
  };
  for (const Geometry& g : geometries) {
    SCOPED_TRACE(g.str());
    const Conv2dConfig cfg{.in_channels = g.cin, .out_channels = g.cout,
                           .kernel = g.k, .stride = g.s, .pad = g.p,
                           .time_channel = g.time_channel};
    Conv2d batched(cfg);
    init_conv(batched, rng);
    batched.set_training(true);
    batched.set_time(0.4f);
    Tensor x = random_tensor({g.n, g.cin, g.h, g.w}, rng);
    const Tensor y = batched.forward(x);
    const Tensor gout = random_tensor(y.shape(), rng);
    const Tensor dx = batched.backward(gout);

    const std::size_t in_sample = x.numel() / g.n;
    const std::size_t out_sample = gout.numel() / g.n;
    for (int i = 0; i < g.n; ++i) {
      Conv2d single(cfg);
      single.weight().value = batched.weight().value;
      single.set_training(true);
      single.set_time(0.4f);
      Tensor xi({1, g.cin, g.h, g.w});
      std::copy_n(x.data() + i * in_sample, in_sample, xi.data());
      Tensor gi({1, y.dim(1), y.dim(2), y.dim(3)});
      std::copy_n(gout.data() + i * out_sample, out_sample, gi.data());
      single.forward(xi);
      const Tensor dxi = single.backward(gi);
      EXPECT_EQ(0, std::memcmp(dxi.data(), dx.data() + i * in_sample,
                               in_sample * sizeof(float)))
          << "sample " << i;
    }
  }
}

TEST(ConvBatchedParity, PadOnlyEdgeRows) {
  // h = 1 with k = 3, p = 1: every output row reads two padding rows —
  // the receptive field touches real data only through its center row.
  ou::Rng rng(8);
  check_parity({.n = 2, .cin = 2, .cout = 3, .h = 1, .w = 4, .k = 3, .s = 1,
                .p = 1, .time_channel = false},
               rng);
  // k = 5 with p = 2 over a 2x3 input: outputs exist only because of the
  // padding ring.
  check_parity({.n = 3, .cin = 1, .cout = 2, .h = 2, .w = 3, .k = 5, .s = 1,
                .p = 2, .time_channel = false},
               rng);
}

TEST(ConvBatchedParity, RejectsEmptyBatch) {
  Conv2d conv({.in_channels = 3, .out_channels = 4});
  EXPECT_THROW(conv.forward(Tensor({0, 3, 8, 8})), odenet::Error);
}

TEST(ConvBatchedParity, ScratchArenaStopsGrowingAfterFirstCall) {
  ou::Rng rng(9);
  Conv2d conv({.in_channels = 4, .out_channels = 6});
  init_conv(conv, rng);
  conv.set_training(true);
  Tensor x = random_tensor({7, 4, 9, 5}, rng);
  Tensor gout;

  conv.forward(x);
  gout = random_tensor({7, 6, 9, 5}, rng);
  conv.backward(gout);
  const std::size_t capacity = conv.scratch_arena().capacity();
  const std::uint64_t growths = conv.scratch_arena().growths();
  EXPECT_GT(capacity, 0u);

  // Steady state: same shapes, zero further growth, same capacity.
  for (int i = 0; i < 3; ++i) {
    conv.forward(x);
    conv.backward(gout);
  }
  EXPECT_EQ(conv.scratch_arena().capacity(), capacity);
  EXPECT_EQ(conv.scratch_arena().growths(), growths);

  // A smaller batch recycles the buffer too.
  Tensor x_small = random_tensor({2, 4, 9, 5}, rng);
  conv.forward(x_small);
  EXPECT_EQ(conv.scratch_arena().growths(), growths);
}

TEST(ConvBatchedParity, ExternalArenaIsShared) {
  ou::Rng rng(10);
  ScratchArena arena;
  Conv2d a({.in_channels = 2, .out_channels = 3});
  Conv2d b({.in_channels = 3, .out_channels = 2});
  init_conv(a, rng);
  init_conv(b, rng);
  a.set_arena(&arena);
  b.set_arena(&arena);

  Tensor x = random_tensor({4, 2, 6, 7}, rng);
  Tensor h = a.forward(x);
  (void)b.forward(h);
  // Both layers drew from the one arena; its capacity is the max of the
  // two frames, and the wired arena is what scratch_arena() reports.
  EXPECT_EQ(&a.scratch_arena(), &arena);
  EXPECT_EQ(&b.scratch_arena(), &arena);
  EXPECT_GT(arena.capacity(), 0u);
  EXPECT_EQ(arena.frames(), 2u);
}

// --- packed-weight cache vs object lifetime / snapshot stamping ---------
//
// The packed-weight cache OWNS its storage (a std::vector inside the
// layer), so moving a Network must neither dangle nor stale the cache,
// and apply_snapshot must re-key every layer to the snapshot's version.
#include "models/network.hpp"
#include "models/snapshot.hpp"

TEST(PackedWeightCache, NetworkMoveCtorKeepsPackedWeightsValid) {
  ou::Rng rng(20);
  odenet::models::Network net(odenet::models::make_spec(
      odenet::models::Arch::kROdeNet3, 14,
      {.input_channels = 3, .input_size = 16, .base_channels = 4,
       .num_classes = 5}));
  net.init(rng);
  net.set_training(false);
  // Stamp non-zero weight versions (serving steady state: packs cached).
  net.apply_snapshot(*net.export_snapshot());

  Tensor x = random_tensor({2, 3, 16, 16}, rng);
  Tensor before = net.forward(x);  // builds + caches every packed weight

  odenet::models::Network moved(std::move(net));
  Tensor after = moved.forward(x);  // must reuse or rebuild safely
  ASSERT_TRUE(before.same_shape(after));
  for (std::size_t i = 0; i < before.numel(); ++i) {
    ASSERT_EQ(before.data()[i], after.data()[i]) << "element " << i;
  }
}

TEST(PackedWeightCache, ApplySnapshotStampsVersionsAndRepacksOnce) {
  ou::Rng rng(21);
  odenet::models::Network net(odenet::models::make_spec(
      odenet::models::Arch::kROdeNet3, 14,
      {.input_channels = 3, .input_size = 16, .base_channels = 4,
       .num_classes = 5}));
  net.init(rng);
  net.set_training(false);

  // Freshly initialized weights are unversioned.
  net.for_each_conv(
      [](Conv2d& c) { EXPECT_EQ(c.weight_version(), 0u); });

  auto snap = net.export_snapshot();
  net.apply_snapshot(*snap);
  net.for_each_conv([&](Conv2d& c) {
    EXPECT_EQ(c.weight_version(), snap->version());
  });

  // Steady state: repeated forwards pack each conv exactly once.
  Tensor x = random_tensor({2, 3, 16, 16}, rng);
  (void)net.forward(x);
  std::uint64_t packs_after_first = 0;
  net.for_each_conv(
      [&](Conv2d& c) { packs_after_first += c.weight_packs(); });
  (void)net.forward(x);
  (void)net.forward(x);
  std::uint64_t packs_after_third = 0;
  net.for_each_conv(
      [&](Conv2d& c) { packs_after_third += c.weight_packs(); });
  EXPECT_EQ(packs_after_third, packs_after_first);

  // A new snapshot version invalidates every cache once.
  auto snap2 = net.export_snapshot();
  ASSERT_NE(snap2->version(), snap->version());
  net.apply_snapshot(*snap2);
  (void)net.forward(x);
  std::uint64_t packs_after_swap = 0;
  net.for_each_conv(
      [&](Conv2d& c) { packs_after_swap += c.weight_packs(); });
  EXPECT_GT(packs_after_swap, packs_after_third);
}
