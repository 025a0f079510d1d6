// Fused inference epilogues (core/gemm_kernels.hpp tile4x16_ep + the
// elementwise kernel family, core/im2col.hpp gemm_tiled_pa_ep,
// Conv2d::forward_fused, BuildingBlock's fused branch/Euler paths and the
// allocation-free fixed-step solver loop; the loop's bitwise equality with
// reference steps is in test_solvers):
//  * the epilogue GEMM against the unfused GEMM + a scalar reference
//    epilogue chain — BITWISE per ISA, across full-tile and ragged
//    geometries x epilogue combinations, including residual aliasing C;
//  * the standalone elementwise kernels against references and BITWISE
//    scalar-vs-AVX2 (including -0.0 and NaN for relu);
//  * thread-count invariance of the epilogue GEMM and its implicit-lowering
//    twin (bitwise at 1/2/8);
//  * the batched NCHW store of the epilogue GEMM and its implicit-lowering
//    twin against the batch-1 (channel-major) product permuted in the
//    test — BITWISE, tiles inside one sample and straddling samples,
//    residual aliasing the output, scalar and AVX2, 1/2/8 workers;
//  * Conv2d::forward_fused == forward + affine + relu (+ accumulate), at
//    batch 1 and batched;
//  * BuildingBlock fused branch/forward/Euler and the fused OdeBlock solve
//    vs the conv1 -> bn1 -> ReLU -> conv2 -> bn2 chain run layer by layer;
//  * training mode is untouched (fused path gated off, outputs bitwise);
//  * no arena growth after warmup for the fused OdeBlock forward;
//  * shortcut/shortcut_backward vs the per-element reference walk.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "core/block.hpp"
#include "core/conv2d.hpp"
#include "core/gemm_kernels.hpp"
#include "core/im2col.hpp"
#include "core/init.hpp"
#include "models/odeblock.hpp"
#include "solver/ode.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

using namespace odenet::core;
namespace om = odenet::models;
namespace os = odenet::solver;
namespace ou = odenet::util;

namespace {

std::vector<float> random_vec(std::size_t n, ou::Rng& rng) {
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.normal(0.0, 1.0));
  return v;
}

Tensor random_tensor(std::vector<int> shape, ou::Rng& rng) {
  Tensor t(std::move(shape));
  for (std::size_t i = 0; i < t.numel(); ++i) {
    t.data()[i] = static_cast<float>(rng.normal(0.0, 1.0));
  }
  return t;
}

/// Gives a BN non-trivial eval statistics so the folded affine is not a
/// near-identity (running stats default to mean 0 / var 1 after init).
void randomize_bn(BatchNorm2d& bn, ou::Rng& rng) {
  const std::size_t c = bn.running_mean().numel();
  for (std::size_t i = 0; i < c; ++i) {
    bn.gamma().value.data()[i] = static_cast<float>(rng.uniform(0.5, 1.5));
    bn.beta().value.data()[i] = static_cast<float>(rng.normal(0.0, 0.3));
    bn.running_mean().data()[i] = static_cast<float>(rng.normal(0.0, 0.5));
    bn.running_var().data()[i] = static_cast<float>(rng.uniform(0.5, 2.0));
  }
}

/// The reference epilogue chain, in exactly the kernel's op order:
/// t = c; t *= scale[row]; t += shift[row]; relu; t += beta * r.
void apply_epilogue_ref(std::vector<float>& c, int m, int n,
                        const float* scale, const float* shift, bool relu,
                        const float* residual, float beta) {
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      float t = c[static_cast<std::size_t>(i) * n + j];
      if (scale != nullptr) t = t * scale[i];
      if (shift != nullptr) t = t + shift[i];
      if (relu) t = t > 0.0f ? t : 0.0f;
      if (residual != nullptr) {
        t = t + beta * residual[static_cast<std::size_t>(i) * n + j];
      }
      c[static_cast<std::size_t>(i) * n + j] = t;
    }
  }
}

double max_abs_diff(const float* a, const float* b, std::size_t n) {
  double diff = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    diff = std::max(diff, std::fabs(static_cast<double>(a[i]) - b[i]));
  }
  return diff;
}

struct Shape {
  int m, k, n;
  std::string str() const {
    return "m=" + std::to_string(m) + " k=" + std::to_string(k) +
           " n=" + std::to_string(n);
  }
};

/// Full tiles, ragged rows (m % 4), ragged cols (n % 16), panel edges.
const Shape kShapes[] = {
    {1, 1, 1},    {3, 5, 7},     {4, 8, 16},    {5, 16, 17},  {8, 9, 32},
    {12, 64, 48}, {13, 7, 37},   {17, 27, 100}, {16, 32, 256}, {7, 33, 257},
    {20, 36, 255}, {64, 36, 130},
};

struct EpCombo {
  bool affine, relu, residual;
  const char* str;
};
const EpCombo kCombos[] = {
    {true, false, false, "affine"},
    {false, true, false, "relu"},
    {true, true, false, "affine+relu"},
    {false, false, true, "residual"},
    {true, true, true, "affine+relu+residual"},
};

/// RAII scalar-forcing so a failing EXPECT cannot leak the override.
struct ForceScalar {
  explicit ForceScalar(bool on) { gemm_force_scalar(on); }
  ~ForceScalar() { gemm_force_scalar(false); }
};

/// RAII kernel-pool + parallel-threshold override.
struct PoolOverride {
  explicit PoolOverride(ou::ThreadPool* pool, std::size_t min_flops) {
    set_kernel_pool(pool);
    gemm_set_parallel_min_flops(min_flops);
  }
  ~PoolOverride() {
    set_kernel_pool(nullptr);
    gemm_set_parallel_min_flops(0);
  }
};

/// Runs `check` under the active ISA and the scalar fallback, each on a
/// 1-, 2- and 8-worker kernel pool with the parallel threshold forced to
/// one flop, so even the smallest shape takes the panel split.
template <typename Fn>
void on_every_kernel_config(const Fn& check) {
  for (bool scalar : {false, true}) {
    ForceScalar forced(scalar);
    for (std::size_t workers : {1u, 2u, 8u}) {
      SCOPED_TRACE(testing::Message() << (scalar ? "scalar" : gemm_isa_name())
                                      << " workers=" << workers);
      ou::ThreadPool pool(workers);
      PoolOverride ov(&pool, 1);
      check();
    }
  }
}

/// The channel-major [m, batch * plane] matrix re-laid as NCHW
/// [batch, m, plane] (to_cm = false) or back — the permute the batched
/// store replaced, written out as the reference.
std::vector<float> relayout(const std::vector<float>& src, int m, int batch,
                            std::size_t plane, bool to_cm) {
  std::vector<float> dst(src.size());
  const std::size_t ncols = plane * static_cast<std::size_t>(batch);
  for (int s = 0; s < batch; ++s) {
    for (int i = 0; i < m; ++i) {
      for (std::size_t q = 0; q < plane; ++q) {
        const std::size_t cm = static_cast<std::size_t>(i) * ncols +
                               static_cast<std::size_t>(s) * plane + q;
        const std::size_t nchw =
            (static_cast<std::size_t>(s) * m + i) * plane + q;
        if (to_cm) {
          dst[cm] = src[nchw];
        } else {
          dst[nchw] = src[cm];
        }
      }
    }
  }
  return dst;
}

/// The layer chain the fused branch replaces, run explicitly on the
/// block's own layers: conv1 -> bn1 -> ReLU -> conv2 -> bn2 at time t.
/// `relu` holds the ReLU mask for a backward through the chain.
Tensor chain_branch(BuildingBlock& block, const Tensor& z, float t,
                    ReLU& relu) {
  block.conv1().set_time(t);
  block.conv2().set_time(t);
  Tensor h = block.conv1().forward(z);
  h = block.bn1().forward(h);
  h = relu.forward(h);
  h = block.conv2().forward(h);
  return block.bn2().forward(h);
}

Tensor chain_branch(BuildingBlock& block, const Tensor& z, float t) {
  ReLU relu;
  return chain_branch(block, z, t, relu);
}

void run_ep_vs_composition(const Shape& s, ou::Rng& rng) {
  const auto a = random_vec(static_cast<std::size_t>(s.m) * s.k, rng);
  const auto b = random_vec(static_cast<std::size_t>(s.k) * s.n, rng);
  const auto scale = random_vec(static_cast<std::size_t>(s.m), rng);
  const auto shift = random_vec(static_cast<std::size_t>(s.m), rng);
  const auto resid = random_vec(static_cast<std::size_t>(s.m) * s.n, rng);
  const float beta = 0.37f;
  const std::size_t cn = static_cast<std::size_t>(s.m) * s.n;

  PackedGemmA pa;
  pack_gemm_a(a.data(), s.m, s.k, pa);
  std::vector<float> plain(cn);
  gemm_tiled_pa(pa, b.data(), plain.data(), s.n, false);

  for (const EpCombo& combo : kCombos) {
    SCOPED_TRACE(s.str() + " ep=" + combo.str);
    GemmEpilogue ep;
    if (combo.affine) {
      ep.scale = scale.data();
      ep.shift = shift.data();
    }
    ep.relu = combo.relu;
    if (combo.residual) {
      ep.residual = resid.data();
      ep.beta = beta;
    }
    std::vector<float> got(cn, -7.0f);
    gemm_tiled_pa_ep(pa, b.data(), got.data(), s.n, ep);

    // The unfused composition: the plain GEMM plus a scalar epilogue
    // chain. All epilogue ops are single-rounded IEEE mul/add/max, so the
    // fused result must be BITWISE equal, whichever ISA is active.
    std::vector<float> want = plain;
    apply_epilogue_ref(want, s.m, s.n, ep.scale, ep.shift, ep.relu,
                       ep.residual, ep.beta);
    EXPECT_EQ(0, std::memcmp(got.data(), want.data(), cn * sizeof(float)));
  }
}

}  // namespace

TEST(FusedEpilogue, DispatchTableHasNewKernels) {
  const GemmKernels& k = active_gemm_kernels();
  ASSERT_NE(k.tile4x16_ep, nullptr);
  ASSERT_NE(k.relu_f32, nullptr);
  ASSERT_NE(k.axpy_f32, nullptr);
  ASSERT_NE(k.mul_f32, nullptr);
  ASSERT_NE(k.scale_f32, nullptr);
  ASSERT_NE(k.affine_f32, nullptr);
}

TEST(FusedEpilogue, GemmEpMatchesUnfusedCompositionBitwise) {
  ou::Rng rng(21);
  for (const Shape& s : kShapes) run_ep_vs_composition(s, rng);
}

TEST(FusedEpilogue, GemmEpScalarMatchesUnfusedCompositionBitwise) {
  ForceScalar forced(true);
  ou::Rng rng(22);
  for (const Shape& s : kShapes) run_ep_vs_composition(s, rng);
}

TEST(FusedEpilogue, GemmEpIsaParityWithinTolerance) {
  if (!gemm_avx2_usable()) {
    GTEST_SKIP() << "AVX2+FMA kernels not usable on this host";
  }
  ou::Rng rng(23);
  for (const Shape& s : kShapes) {
    SCOPED_TRACE(s.str());
    const auto a = random_vec(static_cast<std::size_t>(s.m) * s.k, rng);
    const auto b = random_vec(static_cast<std::size_t>(s.k) * s.n, rng);
    const auto scale = random_vec(static_cast<std::size_t>(s.m), rng);
    const auto shift = random_vec(static_cast<std::size_t>(s.m), rng);
    const std::size_t cn = static_cast<std::size_t>(s.m) * s.n;
    GemmEpilogue ep;
    ep.scale = scale.data();
    ep.shift = shift.data();
    ep.relu = true;

    PackedGemmA pa;
    pack_gemm_a(a.data(), s.m, s.k, pa);
    std::vector<float> vec(cn), sca(cn);
    gemm_tiled_pa_ep(pa, b.data(), vec.data(), s.n, ep);
    {
      ForceScalar forced(true);
      gemm_tiled_pa_ep(pa, b.data(), sca.data(), s.n, ep);
    }
    // The k loop uses FMA on AVX2, so parity is tolerance-based (the
    // epilogue itself is contraction-free and adds no extra drift).
    const double tol = 1e-5 * std::sqrt(static_cast<double>(s.k)) + 1e-6;
    EXPECT_LE(max_abs_diff(vec.data(), sca.data(), cn), tol);
  }
}

TEST(FusedEpilogue, GemmEpResidualMayAliasC) {
  // The in-place Euler update z += h * f(z): the residual pointer IS the
  // output buffer. Every tile reads its own residual window before its
  // stores, so the aliased run must match the copy-based run bitwise.
  ou::Rng rng(24);
  for (const Shape& s : {Shape{8, 9, 32}, Shape{13, 7, 37}, Shape{5, 16, 17}}) {
    SCOPED_TRACE(s.str());
    const auto a = random_vec(static_cast<std::size_t>(s.m) * s.k, rng);
    const auto b = random_vec(static_cast<std::size_t>(s.k) * s.n, rng);
    const auto scale = random_vec(static_cast<std::size_t>(s.m), rng);
    const auto shift = random_vec(static_cast<std::size_t>(s.m), rng);
    const auto state = random_vec(static_cast<std::size_t>(s.m) * s.n, rng);
    const std::size_t cn = state.size();

    PackedGemmA pa;
    pack_gemm_a(a.data(), s.m, s.k, pa);
    GemmEpilogue ep;
    ep.scale = scale.data();
    ep.shift = shift.data();
    ep.beta = 0.125f;

    std::vector<float> separate(cn);
    ep.residual = state.data();
    gemm_tiled_pa_ep(pa, b.data(), separate.data(), s.n, ep);

    std::vector<float> inplace = state;
    ep.residual = inplace.data();
    gemm_tiled_pa_ep(pa, b.data(), inplace.data(), s.n, ep);
    EXPECT_EQ(0,
              std::memcmp(inplace.data(), separate.data(), cn * sizeof(float)));
  }
}

TEST(FusedEpilogue, ImplicitLoweringMatchesExplicitBitwise) {
  // The implicit B gather must pack exactly the values im2col
  // materializes — same micro-kernel, same sweep order, so the output is
  // bitwise equal to the explicit composition on either ISA. Each
  // geometry also runs with its last channel as a time channel read from
  // one shared plane.
  struct Geo {
    int c, h, w, m, kernel, pad;
  };
  const Geo geos[] = {{3, 4, 4, 4, 3, 1},   {5, 8, 8, 8, 3, 1},
                      {2, 2, 8, 12, 3, 1},  {4, 16, 16, 8, 3, 1},
                      {7, 8, 2, 4, 3, 1},   {3, 8, 8, 4, 5, 2}};
  const int batch = 3;
  ou::Rng rng(31);
  for (const Geo& geo : geos) {
    for (bool time_channel : {false, true}) {
      SCOPED_TRACE(testing::Message()
                   << "c=" << geo.c << " h=" << geo.h << " w=" << geo.w
                   << " m=" << geo.m << " k=" << geo.kernel
                   << (time_channel ? " tc" : ""));
      const LoweringGeometry g{.channels = geo.c, .height = geo.h,
                               .width = geo.w, .kernel = geo.kernel,
                               .stride = 1, .pad = geo.pad};
      ASSERT_TRUE(gemm_implicit_lowering_ok(g, geo.m));
      const std::size_t kk = g.col_rows();
      const std::size_t n = g.col_cols() * batch;
      const std::size_t plane = static_cast<std::size_t>(geo.h) * geo.w;
      const auto src = random_vec(static_cast<std::size_t>(batch) *
                                      (geo.c - (time_channel ? 1 : 0)) *
                                      plane,
                                  rng);
      const std::vector<float> tplane(plane, 0.625f);
      const float* tp = time_channel ? tplane.data() : nullptr;
      const auto wvec = random_vec(static_cast<std::size_t>(geo.m) * kk, rng);
      const auto scale = random_vec(static_cast<std::size_t>(geo.m), rng);
      const auto shift = random_vec(static_cast<std::size_t>(geo.m), rng);
      PackedGemmA pa;
      pack_gemm_a(wvec.data(), geo.m, static_cast<int>(kk), pa);
      GemmEpilogue ep;
      ep.scale = scale.data();
      ep.shift = shift.data();
      ep.relu = true;
      std::vector<float> cols(kk * n);
      im2col_batched(src.data(), g, batch, cols.data(), tp);
      const std::size_t cn = static_cast<std::size_t>(geo.m) * n;
      auto check = [&] {
        std::vector<float> explicit_c(cn, -1.0f), implicit_c(cn, -2.0f);
        gemm_tiled_pa_ep(pa, cols.data(), explicit_c.data(),
                         static_cast<int>(n), ep, batch);
        gemm_tiled_pa_ep_lowered(pa, src.data(), g, batch,
                                 implicit_c.data(), ep, tp);
        ASSERT_EQ(0, std::memcmp(explicit_c.data(), implicit_c.data(),
                                 cn * sizeof(float)));
      };
      check();
      {
        ForceScalar forced(true);
        check();
      }
      {
        // Both sides under a forced 8-worker split: the gather runs once
        // per task, and m = 4..12 keeps one row block, so every panel is
        // its own task.
        ou::ThreadPool pool(8);
        PoolOverride ov(&pool, 1);
        check();
      }
    }
  }
  // Geometries the implicit path must refuse (caller falls back to the
  // materialized lowering).
  EXPECT_FALSE(gemm_implicit_lowering_ok(
      {.channels = 3, .height = 6, .width = 6}, 4));  // plane % 16 != 0
  EXPECT_FALSE(gemm_implicit_lowering_ok(
      {.channels = 3, .height = 8, .width = 8}, 6));  // m % 4 != 0
  EXPECT_FALSE(gemm_implicit_lowering_ok(
      {.channels = 3, .height = 8, .width = 8, .kernel = 3, .stride = 2}, 4));
  EXPECT_FALSE(gemm_implicit_lowering_ok(
      {.channels = 3, .height = 8, .width = 8, .kernel = 3, .stride = 1,
       .pad = 0},
      4));  // "valid" conv: out extents shrink
}

TEST(FusedEpilogue, BatchedStoreMatchesChannelMajorReferenceBitwise) {
  // gemm_tiled_pa_ep(..., batch) stores column j at pixel j % plane of
  // sample j / plane. The reference is the same GEMM at batch 1 — the
  // channel-major [m, batch * plane] product, its residual laid out alike
  // — permuted to NCHW here. A plane of 64 keeps every tile inside one
  // sample; 36 and 20 make full tiles straddle two samples, 7 three; m = 6
  // and the odd planes add ragged rows and columns. The batched run
  // accumulates in place: its residual IS the output.
  struct Geo {
    int m, k, plane, batch;
  };
  const Geo geos[] = {{8, 27, 64, 3}, {8, 36, 36, 3}, {6, 9, 20, 5},
                      {4, 18, 7, 8},  {12, 45, 36, 2}};
  ou::Rng rng(33);
  for (const Geo& geo : geos) {
    SCOPED_TRACE(testing::Message() << "m=" << geo.m << " k=" << geo.k
                                    << " plane=" << geo.plane
                                    << " batch=" << geo.batch);
    const std::size_t plane = static_cast<std::size_t>(geo.plane);
    const int n = geo.plane * geo.batch;
    const auto a = random_vec(static_cast<std::size_t>(geo.m) * geo.k, rng);
    const auto b = random_vec(static_cast<std::size_t>(geo.k) * n, rng);
    const auto scale = random_vec(static_cast<std::size_t>(geo.m), rng);
    const auto shift = random_vec(static_cast<std::size_t>(geo.m), rng);
    const auto state = random_vec(static_cast<std::size_t>(geo.m) * n, rng);
    PackedGemmA pa;
    pack_gemm_a(a.data(), geo.m, geo.k, pa);
    GemmEpilogue ep;
    ep.scale = scale.data();
    ep.shift = shift.data();
    ep.relu = true;
    ep.beta = 0.5f;
    on_every_kernel_config([&] {
      std::vector<float> state_cm =
          relayout(state, geo.m, geo.batch, plane, true);
      std::vector<float> want_cm(state.size());
      ep.residual = state_cm.data();
      gemm_tiled_pa_ep(pa, b.data(), want_cm.data(), n, ep);
      const auto want = relayout(want_cm, geo.m, geo.batch, plane, false);
      std::vector<float> got = state;
      ep.residual = got.data();
      gemm_tiled_pa_ep(pa, b.data(), got.data(), n, ep, geo.batch);
      ASSERT_EQ(0, std::memcmp(got.data(), want.data(),
                               got.size() * sizeof(float)));
    });
  }

  // The implicit lowering stores the same way (its planes are multiples
  // of 16); the reference is the explicit lowering at batch 1, permuted.
  struct LoweredGeo {
    int c, hw, m, batch;
  };
  const LoweredGeo lowered[] = {{3, 8, 8, 3}, {4, 4, 4, 5}, {2, 16, 12, 2}};
  for (const LoweredGeo& geo : lowered) {
    SCOPED_TRACE(testing::Message() << "lowered c=" << geo.c << " hw="
                                    << geo.hw << " m=" << geo.m
                                    << " batch=" << geo.batch);
    const LoweringGeometry g{.channels = geo.c, .height = geo.hw,
                             .width = geo.hw};
    ASSERT_TRUE(gemm_implicit_lowering_ok(g, geo.m));
    const int kk = static_cast<int>(g.col_rows());
    const std::size_t plane = g.col_cols();
    const int n = static_cast<int>(plane) * geo.batch;
    const auto src = random_vec(
        static_cast<std::size_t>(geo.batch) * geo.c * plane, rng);
    const auto wvec = random_vec(static_cast<std::size_t>(geo.m) * kk, rng);
    const auto scale = random_vec(static_cast<std::size_t>(geo.m), rng);
    const auto shift = random_vec(static_cast<std::size_t>(geo.m), rng);
    const auto state = random_vec(static_cast<std::size_t>(geo.m) * n, rng);
    PackedGemmA pa;
    pack_gemm_a(wvec.data(), geo.m, kk, pa);
    std::vector<float> cols(static_cast<std::size_t>(kk) * n);
    im2col_batched(src.data(), g, geo.batch, cols.data());
    GemmEpilogue ep;
    ep.scale = scale.data();
    ep.shift = shift.data();
    ep.relu = true;
    ep.beta = 0.5f;
    on_every_kernel_config([&] {
      std::vector<float> state_cm =
          relayout(state, geo.m, geo.batch, plane, true);
      std::vector<float> want_cm(state.size());
      ep.residual = state_cm.data();
      gemm_tiled_pa_ep(pa, cols.data(), want_cm.data(), n, ep);
      const auto want = relayout(want_cm, geo.m, geo.batch, plane, false);
      std::vector<float> got = state;
      ep.residual = got.data();
      gemm_tiled_pa_ep_lowered(pa, src.data(), g, geo.batch, got.data(), ep);
      ASSERT_EQ(0, std::memcmp(got.data(), want.data(),
                               got.size() * sizeof(float)));
    });
  }
}

TEST(FusedEpilogue, GemmEpThreadCountInvarianceIsBitwise) {
  ou::Rng rng(25);
  for (const Shape& s : kShapes) {
    SCOPED_TRACE(s.str());
    const auto a = random_vec(static_cast<std::size_t>(s.m) * s.k, rng);
    const auto b = random_vec(static_cast<std::size_t>(s.k) * s.n, rng);
    const auto scale = random_vec(static_cast<std::size_t>(s.m), rng);
    const auto shift = random_vec(static_cast<std::size_t>(s.m), rng);
    const auto resid = random_vec(static_cast<std::size_t>(s.m) * s.n, rng);
    const std::size_t cn = resid.size();
    GemmEpilogue ep;
    ep.scale = scale.data();
    ep.shift = shift.data();
    ep.relu = true;
    ep.residual = resid.data();
    ep.beta = 0.5f;

    std::vector<float> base(cn);
    {
      ou::ThreadPool one(1);
      PoolOverride ov(&one, 1);
      PackedGemmA pa;
      pack_gemm_a(a.data(), s.m, s.k, pa);
      gemm_tiled_pa_ep(pa, b.data(), base.data(), s.n, ep);
    }
    for (std::size_t workers : {2u, 8u}) {
      ou::ThreadPool pool(workers);
      PoolOverride ov(&pool, 1);
      PackedGemmA pa;
      pack_gemm_a(a.data(), s.m, s.k, pa);
      std::vector<float> got(cn, -3.0f);
      gemm_tiled_pa_ep(pa, b.data(), got.data(), s.n, ep);
      EXPECT_EQ(0, std::memcmp(got.data(), base.data(), cn * sizeof(float)))
          << "differs at " << workers << " workers";
    }
  }

  // The implicit-lowering GEMM under the same split. m = 64 spans 16 row
  // tiles, so a lone panel splits into row blocks that each gather it.
  struct Geo {
    int c, h, w, m, kernel, pad, batch;
  };
  const Geo geos[] = {{5, 8, 8, 8, 3, 1, 3},
                      {4, 16, 16, 8, 3, 1, 3},
                      {3, 8, 8, 64, 3, 1, 2},
                      {3, 8, 8, 4, 5, 2, 2}};
  for (const Geo& geo : geos) {
    SCOPED_TRACE(testing::Message() << "lowered c=" << geo.c << " h=" << geo.h
                                    << " m=" << geo.m << " k=" << geo.kernel
                                    << " batch=" << geo.batch);
    const LoweringGeometry g{.channels = geo.c, .height = geo.h,
                             .width = geo.w, .kernel = geo.kernel,
                             .stride = 1, .pad = geo.pad};
    ASSERT_TRUE(gemm_implicit_lowering_ok(g, geo.m));
    const int kk = static_cast<int>(g.col_rows());
    const std::size_t n = g.col_cols() * geo.batch;
    const std::size_t cn = static_cast<std::size_t>(geo.m) * n;
    const auto src = random_vec(
        static_cast<std::size_t>(geo.batch) * geo.c * geo.h * geo.w, rng);
    const auto wvec = random_vec(static_cast<std::size_t>(geo.m) * kk, rng);
    const auto scale = random_vec(static_cast<std::size_t>(geo.m), rng);
    const auto shift = random_vec(static_cast<std::size_t>(geo.m), rng);
    const auto resid = random_vec(cn, rng);
    GemmEpilogue ep;
    ep.scale = scale.data();
    ep.shift = shift.data();
    ep.relu = true;
    ep.residual = resid.data();
    ep.beta = 0.5f;
    PackedGemmA pa;
    pack_gemm_a(wvec.data(), geo.m, kk, pa);

    std::vector<float> base(cn);
    {
      ou::ThreadPool one(1);
      PoolOverride ov(&one, 1);
      gemm_tiled_pa_ep_lowered(pa, src.data(), g, geo.batch, base.data(), ep);
    }
    for (std::size_t workers : {2u, 8u}) {
      ou::ThreadPool pool(workers);
      PoolOverride ov(&pool, 1);
      std::vector<float> got(cn, -3.0f);
      gemm_tiled_pa_ep_lowered(pa, src.data(), g, geo.batch, got.data(), ep);
      EXPECT_EQ(0, std::memcmp(got.data(), base.data(), cn * sizeof(float)))
          << "lowered differs at " << workers << " workers";
    }
  }
}

TEST(FusedEpilogue, ElementwiseKernelsMatchReference) {
  ou::Rng rng(26);
  const GemmKernels& k = active_gemm_kernels();
  for (std::size_t n : {std::size_t{1}, std::size_t{7}, std::size_t{8},
                        std::size_t{9}, std::size_t{64}, std::size_t{1037}}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    const auto x = random_vec(n, rng);
    const auto y0 = random_vec(n, rng);

    std::vector<float> got(n);
    k.relu_f32(x.data(), got.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(got[i], x[i] > 0.0f ? x[i] : 0.0f);
    }
    // In-place form (src == dst is allowed).
    std::vector<float> inpl = x;
    k.relu_f32(inpl.data(), inpl.data(), n);
    EXPECT_EQ(0, std::memcmp(inpl.data(), got.data(), n * sizeof(float)));

    std::vector<float> y = y0;
    k.axpy_f32(0.75f, x.data(), y.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(y[i], y0[i] + 0.75f * x[i]);
    }

    k.mul_f32(x.data(), y0.data(), got.data(), n);
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(got[i], x[i] * y0[i]);
    inpl = x;  // dst aliasing the first operand (Tensor::mul's form)
    k.mul_f32(inpl.data(), y0.data(), inpl.data(), n);
    EXPECT_EQ(0, std::memcmp(inpl.data(), got.data(), n * sizeof(float)));

    inpl = x;
    k.scale_f32(inpl.data(), n, -1.5f);
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(inpl[i], x[i] * -1.5f);

    k.affine_f32(x.data(), got.data(), n, 1.25f, -0.5f);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(got[i], x[i] * 1.25f + -0.5f);
    }
    inpl = x;
    k.affine_f32(inpl.data(), inpl.data(), n, 1.25f, -0.5f);
    EXPECT_EQ(0, std::memcmp(inpl.data(), got.data(), n * sizeof(float)));
  }
}

TEST(FusedEpilogue, ReluKernelSpecialValues) {
  // NaN clamps to 0 and -0.0 comes out as +0.0 — the scalar rule
  // `t > 0 ? t : 0` — in both ISA variants.
  const GemmKernels& k = active_gemm_kernels();
  std::vector<float> x = {std::numeric_limits<float>::quiet_NaN(), -0.0f,
                          0.0f,  -1.0f, 2.0f,
                          std::numeric_limits<float>::infinity(),
                          -std::numeric_limits<float>::infinity(), 3.0f,
                          -4.0f};
  std::vector<float> got(x.size());
  k.relu_f32(x.data(), got.data(), x.size());
  EXPECT_EQ(got[0], 0.0f);
  EXPECT_EQ(std::signbit(got[1]), false);  // -0.0 -> +0.0
  EXPECT_EQ(got[2], 0.0f);
  EXPECT_EQ(got[3], 0.0f);
  EXPECT_EQ(got[4], 2.0f);
  EXPECT_EQ(got[5], std::numeric_limits<float>::infinity());
  EXPECT_EQ(got[6], 0.0f);

  ForceScalar forced(true);
  std::vector<float> sca(x.size());
  active_gemm_kernels().relu_f32(x.data(), sca.data(), x.size());
  EXPECT_EQ(0, std::memcmp(sca.data(), got.data(), x.size() * sizeof(float)));
}

TEST(FusedEpilogue, ElementwiseIsaParityIsBitwise) {
  if (!gemm_avx2_usable()) {
    GTEST_SKIP() << "AVX2+FMA kernels not usable on this host";
  }
  ou::Rng rng(27);
  for (std::size_t n : {std::size_t{1}, std::size_t{8}, std::size_t{9},
                        std::size_t{31}, std::size_t{1000}}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    const auto x = random_vec(n, rng);
    const auto y0 = random_vec(n, rng);
    std::vector<float> vec(n), sca(n);

    active_gemm_kernels().relu_f32(x.data(), vec.data(), n);
    {
      ForceScalar forced(true);
      active_gemm_kernels().relu_f32(x.data(), sca.data(), n);
    }
    EXPECT_EQ(0, std::memcmp(vec.data(), sca.data(), n * sizeof(float)));

    vec = y0;
    active_gemm_kernels().axpy_f32(-0.3f, x.data(), vec.data(), n);
    sca = y0;
    {
      ForceScalar forced(true);
      active_gemm_kernels().axpy_f32(-0.3f, x.data(), sca.data(), n);
    }
    EXPECT_EQ(0, std::memcmp(vec.data(), sca.data(), n * sizeof(float)));

    active_gemm_kernels().mul_f32(x.data(), y0.data(), vec.data(), n);
    {
      ForceScalar forced(true);
      active_gemm_kernels().mul_f32(x.data(), y0.data(), sca.data(), n);
    }
    EXPECT_EQ(0, std::memcmp(vec.data(), sca.data(), n * sizeof(float)));

    vec = x;
    active_gemm_kernels().scale_f32(vec.data(), n, 0.7f);
    sca = x;
    {
      ForceScalar forced(true);
      active_gemm_kernels().scale_f32(sca.data(), n, 0.7f);
    }
    EXPECT_EQ(0, std::memcmp(vec.data(), sca.data(), n * sizeof(float)));

    active_gemm_kernels().affine_f32(x.data(), vec.data(), n, 1.1f, 0.2f);
    {
      ForceScalar forced(true);
      active_gemm_kernels().affine_f32(x.data(), sca.data(), n, 1.1f, 0.2f);
    }
    EXPECT_EQ(0, std::memcmp(vec.data(), sca.data(), n * sizeof(float)));
  }
}

TEST(FusedEpilogue, ConvForwardFusedMatchesUnfusedChain) {
  ou::Rng rng(28);
  struct Geo {
    int n, ci, co, hw;
    bool time_channel;
  };
  // Batch 1 and batched; planes that are multiples of 16 (hw 8: implicit
  // lowering) and planes that are not (explicit lowering, output tiles
  // straddling two samples).
  const Geo geos[] = {
      {1, 3, 5, 6, false}, {1, 4, 4, 7, true},  {3, 3, 5, 6, false},
      {2, 4, 4, 5, true},  {4, 8, 8, 8, true},  {2, 2, 7, 9, false},
  };
  for (const Geo& g : geos) {
    SCOPED_TRACE("n=" + std::to_string(g.n) + " ci=" + std::to_string(g.ci) +
                 " co=" + std::to_string(g.co) + " hw=" + std::to_string(g.hw) +
                 " tc=" + std::to_string(g.time_channel));
    Conv2d conv({.in_channels = g.ci,
                 .out_channels = g.co,
                 .time_channel = g.time_channel});
    init_conv(conv, rng);
    conv.set_training(false);
    conv.set_time(0.625f);
    const auto scale = random_vec(static_cast<std::size_t>(g.co), rng);
    const auto shift = random_vec(static_cast<std::size_t>(g.co), rng);
    Tensor x = random_tensor({g.n, g.ci, g.hw, g.hw}, rng);

    Tensor plain = conv.forward(x);
    ConvEpilogue ep;
    ep.scale = scale.data();
    ep.shift = shift.data();
    ep.relu = true;
    Tensor fused;
    conv.forward_fused(x, ep, fused, /*accumulate=*/false);
    ASSERT_TRUE(fused.same_shape(plain));

    // Scalar composition of the same chain; fused must be bitwise equal.
    const std::size_t plane =
        static_cast<std::size_t>(plain.dim(2)) * plain.dim(3);
    Tensor want = plain;
    for (int ni = 0; ni < g.n; ++ni) {
      for (int c = 0; c < g.co; ++c) {
        float* p = want.data() +
                   (static_cast<std::size_t>(ni) * g.co + c) * plane;
        for (std::size_t i = 0; i < plane; ++i) {
          float t = p[i] * scale[c] + shift[c];
          p[i] = t > 0.0f ? t : 0.0f;
        }
      }
    }
    EXPECT_EQ(0, std::memcmp(fused.data(), want.data(),
                             fused.numel() * sizeof(float)))
        << "overwrite mode";

    // accumulate = true: out += ep(conv(x)).
    Tensor acc = random_tensor(plain.shape(), rng);
    Tensor expect_acc = acc;
    for (std::size_t i = 0; i < acc.numel(); ++i) {
      expect_acc.data()[i] = expect_acc.data()[i] + want.data()[i];
    }
    conv.forward_fused(x, ep, acc, /*accumulate=*/true);
    EXPECT_EQ(0, std::memcmp(acc.data(), expect_acc.data(),
                             acc.numel() * sizeof(float)))
        << "accumulate mode";
  }
}

TEST(FusedEpilogue, BlockFusedBranchMatchesUnfusedBitwise) {
  // At alpha = 1 the fused branch applies exactly the same float ops as
  // conv -> BN(folded affine) -> ReLU -> conv -> BN, so enabling fusion
  // must not change a single bit of the branch output.
  ou::Rng rng(29);
  for (int ch : {3, 8}) {
    for (int n : {1, 2}) {
      SCOPED_TRACE("ch=" + std::to_string(ch) + " n=" + std::to_string(n));
      BuildingBlock block({.in_channels = ch,
                           .out_channels = ch,
                           .stride = 1,
                           .time_channel = true});
      init_block(block, rng);
      randomize_bn(block.bn1(), rng);
      randomize_bn(block.bn2(), rng);
      block.set_training(false);
      Tensor x = random_tensor({n, ch, 6, 6}, rng);

      ASSERT_TRUE(block.fused_eval_ready());
      Tensor fused = block.branch_forward(x, 0.5f);
      Tensor fused_fwd = block.forward(x);
      // forward() runs at the time the last branch evaluation set.
      Tensor unfused = chain_branch(block, x, 0.5f);
      Tensor unfused_fwd = chain_branch(block, x, 0.5f);
      unfused_fwd.add(BuildingBlock::shortcut(x, 1, ch));
      ASSERT_TRUE(fused.same_shape(unfused));
      EXPECT_EQ(0, std::memcmp(fused.data(), unfused.data(),
                               fused.numel() * sizeof(float)))
          << "branch_forward";
      EXPECT_EQ(0, std::memcmp(fused_fwd.data(), unfused_fwd.data(),
                               fused_fwd.numel() * sizeof(float)))
          << "forward";
    }
  }
}

TEST(FusedEpilogue, BlockFusedEulerStepMatchesUnfused) {
  // z += h * f(z, t) with h folded into the bn2 coefficients — one float
  // regrouping vs the unfused h-scaled axpy, so tolerance, not bitwise.
  ou::Rng rng(30);
  BuildingBlock block({.in_channels = 4,
                       .out_channels = 4,
                       .stride = 1,
                       .time_channel = true});
  init_block(block, rng);
  randomize_bn(block.bn1(), rng);
  randomize_bn(block.bn2(), rng);
  block.set_training(false);
  Tensor z0 = random_tensor({2, 4, 6, 6}, rng);
  const float h = 0.25f;

  Tensor z_fused = z0;
  ASSERT_TRUE(block.fused_eval_ready());
  block.fused_euler_step(z_fused, 1.5f, h);

  Tensor z_ref = z0;
  Tensor k1 = chain_branch(block, z_ref, 1.5f);
  z_ref.axpy(h, k1);
  EXPECT_LE(max_abs_diff(z_fused.data(), z_ref.data(), z_ref.numel()), 1e-5);
}

TEST(FusedEpilogue, TrainingModeIsUntouched) {
  ou::Rng rng(31);
  BuildingBlock block({.in_channels = 3,
                       .out_channels = 3,
                       .stride = 1,
                       .time_channel = true});
  init_block(block, rng);
  block.set_training(true);
  EXPECT_FALSE(block.fused_eval_ready());

  // Training forward/backward runs exactly the layer chain — the gate
  // keys off training mode.
  Tensor x = random_tensor({2, 3, 5, 5}, rng);
  block.bn1().set_use_batch_stats_in_eval(true);  // deterministic replay
  block.bn2().set_use_batch_stats_in_eval(true);
  Tensor on = block.forward(x);
  Tensor g_on = block.backward(Tensor::full(on.shape(), 0.5f));
  ReLU relu;
  relu.set_training(true);  // keeps the mask for the backward
  Tensor off_out = chain_branch(block, x, 0.0f, relu);
  off_out.add(BuildingBlock::shortcut(x, 1, 3));
  Tensor g_off = block.bn2().backward(Tensor::full(on.shape(), 0.5f));
  g_off = block.conv2().backward(g_off);
  g_off = relu.backward(g_off);
  g_off = block.bn1().backward(g_off);
  g_off = block.conv1().backward(g_off);
  g_off.add(BuildingBlock::shortcut_backward(Tensor::full(on.shape(), 0.5f),
                                             x.shape(), 1));
  EXPECT_EQ(0, std::memcmp(on.data(), off_out.data(),
                           on.numel() * sizeof(float)));
  EXPECT_EQ(0, std::memcmp(g_on.data(), g_off.data(),
                           g_on.numel() * sizeof(float)));

  // Batch-stat eval also blocks fusion (the affine is not fixed).
  block.set_training(false);
  EXPECT_FALSE(block.fused_eval_ready());
  block.bn1().set_use_batch_stats_in_eval(false);
  block.bn2().set_use_batch_stats_in_eval(false);
  EXPECT_TRUE(block.fused_eval_ready());
}

TEST(FusedEpilogue, OdeBlockFusedSolveMatchesUnfused) {
  ou::Rng rng(32);
  for (auto method : {os::Method::kEuler, os::Method::kHeun, os::Method::kRk4}) {
    SCOPED_TRACE(os::method_name(method));
    om::OdeBlock ob({.channels = 4, .executions = 4, .method = method});
    init_block(ob.block(), rng);
    randomize_bn(ob.block().bn1(), rng);
    randomize_bn(ob.block().bn2(), rng);
    ob.set_training(false);
    Tensor x = random_tensor({2, 4, 6, 6}, rng);

    Tensor fused = ob.forward(x);
    os::FunctionDynamics chain([&](const Tensor& z, float t) {
      return chain_branch(ob.block(), z, t);
    });
    os::SolveOptions opts;
    opts.method = method;
    opts.steps = ob.config().executions;
    Tensor unfused = os::ode_solve(chain, x, ob.t0(), ob.t1(), opts);
    // Euler folds h per step (one regrouping per step); heun/rk4 run the
    // same eval + axpy sequence either way.
    EXPECT_LE(max_abs_diff(fused.data(), unfused.data(), fused.numel()), 1e-5);
  }
}

TEST(FusedEpilogue, OdeBlockStepsWithoutAllocationAfterWarmup) {
  ou::Rng rng(34);
  om::OdeBlock ob({.channels = 4, .executions = 6});
  init_block(ob.block(), rng);
  randomize_bn(ob.block().bn1(), rng);
  randomize_bn(ob.block().bn2(), rng);
  ob.set_training(false);
  ASSERT_TRUE(ob.block().fused_eval_ready());
  Tensor x = random_tensor({2, 4, 8, 8}, rng);

  (void)ob.forward(x);  // warmup: arenas grow, packs build, scratch sizes
  (void)ob.forward(x);
  const std::uint64_t g1 = ob.block().conv1().scratch_arena().growths();
  const std::uint64_t g2 = ob.block().conv2().scratch_arena().growths();
  for (int i = 0; i < 5; ++i) (void)ob.forward(x);
  EXPECT_EQ(ob.block().conv1().scratch_arena().growths(), g1);
  EXPECT_EQ(ob.block().conv2().scratch_arena().growths(), g2);
}

TEST(FusedEpilogue, ShortcutMatchesReferenceWalk) {
  // The memcpy/strided-copy rewrite against the original per-element
  // reference, including odd extents, stride 2 and channel padding.
  ou::Rng rng(35);
  struct Geo {
    int n, c, h, w, stride, co;
  };
  const Geo geos[] = {
      {1, 4, 6, 6, 1, 4},  {2, 3, 5, 7, 2, 6}, {1, 2, 4, 4, 2, 4},
      {3, 5, 9, 9, 2, 5},  {2, 4, 7, 5, 2, 8}, {1, 1, 1, 1, 2, 2},
  };
  for (const Geo& g : geos) {
    SCOPED_TRACE("n=" + std::to_string(g.n) + " c=" + std::to_string(g.c) +
                 " h=" + std::to_string(g.h) + " w=" + std::to_string(g.w) +
                 " s=" + std::to_string(g.stride) +
                 " co=" + std::to_string(g.co));
    Tensor x = random_tensor({g.n, g.c, g.h, g.w}, rng);
    Tensor got = BuildingBlock::shortcut(x, g.stride, g.co);

    const int ho = (g.h + g.stride - 1) / g.stride;
    const int wo = (g.w + g.stride - 1) / g.stride;
    Tensor want({g.n, g.co, ho, wo});
    for (int ni = 0; ni < g.n; ++ni) {
      for (int ci = 0; ci < std::min(g.c, g.co); ++ci) {
        for (int hi = 0; hi < ho; ++hi) {
          for (int wi = 0; wi < wo; ++wi) {
            want.at(ni, ci, hi, wi) =
                x.at(ni, ci, hi * g.stride, wi * g.stride);
          }
        }
      }
    }
    ASSERT_TRUE(got.same_shape(want));
    EXPECT_EQ(0, std::memcmp(got.data(), want.data(),
                             got.numel() * sizeof(float)));

    // Adjoint: scatter grad back, everything off-grid stays zero.
    Tensor gout = random_tensor(got.shape(), rng);
    Tensor gin = BuildingBlock::shortcut_backward(gout, x.shape(), g.stride);
    Tensor gin_want(x.shape());
    for (int ni = 0; ni < g.n; ++ni) {
      for (int ci = 0; ci < std::min(g.c, g.co); ++ci) {
        for (int hi = 0; hi < ho; ++hi) {
          for (int wi = 0; wi < wo; ++wi) {
            if (hi * g.stride < g.h && wi * g.stride < g.w) {
              gin_want.at(ni, ci, hi * g.stride, wi * g.stride) =
                  gout.at(ni, ci, hi, wi);
            }
          }
        }
      }
    }
    EXPECT_EQ(0, std::memcmp(gin.data(), gin_want.data(),
                             gin.numel() * sizeof(float)));
  }
}
