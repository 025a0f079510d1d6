// SIMD GEMM micro-kernels and the packed-weight caches built on them
// (core/gemm_kernels.hpp, the tiled GEMMs in core/im2col.hpp):
//  * every tiled GEMM entry point, in each operand layout (A row-major or
//    transposed, B row-major or transposed), against a double-accumulation
//    reference across a geometry sweep that exercises full tiles, ragged
//    edges and the panel cap;
//  * ISA parity — the AVX2 kernels against the scalar fallback on the
//    same inputs (skipped on hosts without usable AVX2+FMA);
//  * thread-count invariance — the panel split never changes any tile's
//    summation order, so results are BITWISE equal across pool sizes;
//  * the exact int32 x int32 -> int64 tile, scalar vs AVX2 bitwise on
//    int32-rail operands whose sums wrap;
//  * Conv2d's once-per-version weight-packing cache (hit on repeat calls,
//    rebuild on version change / invalidation / unversioned weights), and
//    Linear reading its live weights on every call.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "core/conv2d.hpp"
#include "core/gemm_kernels.hpp"
#include "core/im2col.hpp"
#include "core/init.hpp"
#include "core/linear.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

using namespace odenet::core;
namespace ou = odenet::util;

namespace {

std::vector<float> random_matrix(int rows, int cols, ou::Rng& rng) {
  std::vector<float> m(static_cast<std::size_t>(rows) * cols);
  for (auto& v : m) v = static_cast<float>(rng.normal(0.0, 1.0));
  return m;
}

/// C[m,n] = A[m,k] * B[k,n] accumulated in double — the ground truth the
/// float kernels are compared against.
std::vector<float> reference_gemm(const std::vector<float>& a,
                                  const std::vector<float>& b, int m, int k,
                                  int n) {
  std::vector<float> c(static_cast<std::size_t>(m) * n);
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      double acc = 0.0;
      for (int p = 0; p < k; ++p) {
        acc += static_cast<double>(a[i * k + p]) * b[p * n + j];
      }
      c[static_cast<std::size_t>(i) * n + j] = static_cast<float>(acc);
    }
  }
  return c;
}

/// B[k,n] -> B^T stored [n,k] row-major (the gemm_tiled_bt / pack_gemm_at
/// input).
std::vector<float> transpose(const std::vector<float>& b, int k, int n) {
  std::vector<float> bt(static_cast<std::size_t>(n) * k);
  for (int p = 0; p < k; ++p) {
    for (int j = 0; j < n; ++j) bt[static_cast<std::size_t>(j) * k + p] = b[p * n + j];
  }
  return bt;
}

double max_abs_diff(const std::vector<float>& a, const std::vector<float>& b) {
  EXPECT_EQ(a.size(), b.size());
  double diff = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    diff = std::max(diff,
                    std::fabs(static_cast<double>(a[i]) - b[i]));
  }
  return diff;
}

/// Error scale: k-length float dot products drift ~sqrt(k) ULPs.
double tol_for(int k) { return 1e-5 * std::sqrt(static_cast<double>(k)) + 1e-6; }

struct Shape {
  int m, k, n;
  std::string str() const {
    return "m=" + std::to_string(m) + " k=" + std::to_string(k) +
           " n=" + std::to_string(n);
  }
};

/// Full tiles, ragged rows (m % 4), ragged cols (n % 16), sub-tile sizes,
/// panel boundaries (n near the 256-wide packing panel), a long-n case
/// shaped like a batched lowering, a Linear-head forward (m 1, k 64,
/// n 100), and two conv-dW-like products with k >> n that the panel cap
/// cuts: k 2048 narrows the panel to 64 columns (two panels, the second
/// ragged), k 9400 also splits the depth into two blocks.
const Shape kShapes[] = {
    {1, 1, 1},    {3, 5, 7},     {4, 8, 16},    {5, 16, 17},  {8, 9, 32},
    {12, 64, 48}, {17, 27, 100}, {20, 36, 255}, {16, 32, 256}, {7, 33, 257},
    {64, 36, 585}, {100, 7, 130}, {1, 64, 100}, {16, 2048, 91}, {8, 9400, 21},
};

void run_all_tiled(const Shape& s, ou::Rng& rng) {
  SCOPED_TRACE(s.str());
  const auto a = random_matrix(s.m, s.k, rng);
  const auto b = random_matrix(s.k, s.n, rng);
  const auto at = transpose(a, s.m, s.k);
  const auto bt = transpose(b, s.k, s.n);
  const auto want = reference_gemm(a, b, s.m, s.k, s.n);
  const double tol = tol_for(s.k);
  const std::size_t cn = want.size();

  std::vector<float> c(cn, -7.0f);
  gemm_tiled(a.data(), b.data(), c.data(), s.m, s.k, s.n, false);
  EXPECT_LE(max_abs_diff(c, want), tol) << "gemm_tiled";

  PackedGemmA pa;
  pack_gemm_a(a.data(), s.m, s.k, pa);
  std::fill(c.begin(), c.end(), -7.0f);
  gemm_tiled_pa(pa, b.data(), c.data(), s.n, false);
  EXPECT_LE(max_abs_diff(c, want), tol) << "gemm_tiled_pa";

  // A stored transposed packs to the very same panels.
  PackedGemmA pat;
  pack_gemm_at(at.data(), s.m, s.k, pat);
  EXPECT_EQ(pat.m, pa.m);
  EXPECT_EQ(pat.k, pa.k);
  ASSERT_EQ(pat.data.size(), pa.data.size());
  EXPECT_EQ(0, std::memcmp(pat.data.data(), pa.data.data(),
                           pa.data.size() * sizeof(float)))
      << "pack_gemm_at";
  std::fill(c.begin(), c.end(), -7.0f);
  gemm_tiled_pa(pat, b.data(), c.data(), s.n, false);
  EXPECT_LE(max_abs_diff(c, want), tol) << "pack_gemm_at + gemm_tiled_pa";
  // ... and so does its leading m columns of a wider [k, m + 3] matrix
  // (the conv dX packing W^T's data rows past the time channel's).
  const int ld = s.m + 3;
  std::vector<float> wide(static_cast<std::size_t>(s.k) * ld, 99.0f);
  for (int p = 0; p < s.k; ++p) {
    std::copy_n(at.data() + static_cast<std::size_t>(p) * s.m, s.m,
                wide.data() + static_cast<std::size_t>(p) * ld);
  }
  PackedGemmA patw;
  pack_gemm_at(wide.data(), s.m, s.k, patw, ld);
  ASSERT_EQ(patw.data.size(), pa.data.size());
  EXPECT_EQ(0, std::memcmp(patw.data.data(), pa.data.data(),
                           pa.data.size() * sizeof(float)))
      << "pack_gemm_at with a row stride";

  std::fill(c.begin(), c.end(), -7.0f);
  gemm_tiled_bt(a.data(), bt.data(), c.data(), s.m, s.k, s.n, false);
  EXPECT_LE(max_abs_diff(c, want), tol) << "gemm_tiled_bt";

  // accumulate=true adds onto the existing C.
  std::vector<float> want_acc(cn);
  for (std::size_t i = 0; i < cn; ++i) want_acc[i] = want[i] + 1.5f;
  std::vector<float> acc(cn, 1.5f);
  gemm_tiled_pa(pa, b.data(), acc.data(), s.n, true);
  EXPECT_LE(max_abs_diff(acc, want_acc), tol) << "gemm_tiled_pa accumulate";
  std::fill(acc.begin(), acc.end(), 1.5f);
  gemm_tiled_pa(pat, b.data(), acc.data(), s.n, true);
  EXPECT_LE(max_abs_diff(acc, want_acc), tol)
      << "pack_gemm_at + gemm_tiled_pa accumulate";
  std::fill(acc.begin(), acc.end(), 1.5f);
  gemm_tiled_bt(a.data(), bt.data(), acc.data(), s.m, s.k, s.n, true);
  EXPECT_LE(max_abs_diff(acc, want_acc), tol) << "gemm_tiled_bt accumulate";
}

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

}  // namespace

TEST(GemmKernels, DispatchIsConsistent) {
  const GemmKernels& k = active_gemm_kernels();
  ASSERT_NE(k.tile4x16, nullptr);
  EXPECT_STREQ(k.isa, gemm_isa_name());
  if (gemm_avx2_usable()) {
    EXPECT_TRUE(gemm_avx2_compiled());
    EXPECT_STREQ(gemm_isa_name(), "avx2+fma");
  } else {
    EXPECT_STREQ(gemm_isa_name(), "scalar");
  }
  ForceScalar forced(true);
  EXPECT_TRUE(gemm_forced_scalar());
  EXPECT_STREQ(gemm_isa_name(), "scalar");
}

TEST(GemmKernels, TiledVariantsMatchReferenceAcrossGeometries) {
  ou::Rng rng(7);
  for (const Shape& s : kShapes) run_all_tiled(s, rng);
}

TEST(GemmKernels, ScalarFallbackMatchesReferenceAcrossGeometries) {
  ForceScalar forced(true);
  ou::Rng rng(8);
  for (const Shape& s : kShapes) run_all_tiled(s, rng);
}

TEST(GemmKernels, IsaParityAvx2VsScalar) {
  if (!gemm_avx2_usable()) {
    GTEST_SKIP() << "AVX2+FMA kernels not usable on this host";
  }
  ou::Rng rng(9);
  for (const Shape& s : kShapes) {
    SCOPED_TRACE(s.str());
    const auto a = random_matrix(s.m, s.k, rng);
    const auto b = random_matrix(s.k, s.n, rng);
    const auto at = transpose(a, s.m, s.k);
    const auto bt = transpose(b, s.k, s.n);
    const double tol = tol_for(s.k);
    const std::size_t cn = static_cast<std::size_t>(s.m) * s.n;

    std::vector<float> vec(cn), sca(cn);
    gemm_tiled(a.data(), b.data(), vec.data(), s.m, s.k, s.n, false);
    {
      ForceScalar forced(true);
      gemm_tiled(a.data(), b.data(), sca.data(), s.m, s.k, s.n, false);
    }
    EXPECT_LE(max_abs_diff(vec, sca), tol) << "gemm_tiled isa parity";

    PackedGemmA pat;
    pack_gemm_at(at.data(), s.m, s.k, pat);
    gemm_tiled_pa(pat, b.data(), vec.data(), s.n, false);
    {
      ForceScalar forced(true);
      gemm_tiled_pa(pat, b.data(), sca.data(), s.n, false);
    }
    EXPECT_LE(max_abs_diff(vec, sca), tol) << "pack_gemm_at isa parity";

    gemm_tiled_bt(a.data(), bt.data(), vec.data(), s.m, s.k, s.n, false);
    {
      ForceScalar forced(true);
      gemm_tiled_bt(a.data(), bt.data(), sca.data(), s.m, s.k, s.n, false);
    }
    EXPECT_LE(max_abs_diff(vec, sca), tol) << "gemm_tiled_bt isa parity";
  }
}

TEST(GemmKernels, ThreadCountInvarianceIsBitwise) {
  // Each 4x16 output tile's k loop runs entirely on one worker, so the
  // panel split is pure work division: 1, 2 and 8 threads must produce
  // BITWISE identical results (threshold forced to 0 so even the smallest
  // shapes take the parallel path).
  ou::Rng rng(10);
  for (const Shape& s : kShapes) {
    SCOPED_TRACE(s.str());
    const auto a = random_matrix(s.m, s.k, rng);
    const auto b = random_matrix(s.k, s.n, rng);
    const auto at = transpose(a, s.m, s.k);
    const auto bt = transpose(b, s.k, s.n);
    const std::size_t cn = static_cast<std::size_t>(s.m) * s.n;

    // accumulate=true starts every tile from the C it finds: a split that
    // ran a tile twice, or skipped one, would show in the sum.
    const auto c0 = random_matrix(s.m, s.n, rng);
    std::vector<float> base_pa(cn), base_bt(cn), base_acc = c0,
        base_at_acc = c0, base_bt_acc = c0;
    PackedGemmA pat;
    pack_gemm_at(at.data(), s.m, s.k, pat);
    {
      ou::ThreadPool one(1);
      PoolOverride ov(&one, 1);
      PackedGemmA pa;
      pack_gemm_a(a.data(), s.m, s.k, pa);
      gemm_tiled_pa(pa, b.data(), base_pa.data(), s.n, false);
      gemm_tiled_pa(pa, b.data(), base_acc.data(), s.n, true);
      gemm_tiled_pa(pat, b.data(), base_at_acc.data(), s.n, true);
      gemm_tiled_bt(a.data(), bt.data(), base_bt.data(), s.m, s.k, s.n,
                    false);
      gemm_tiled_bt(a.data(), bt.data(), base_bt_acc.data(), s.m, s.k, s.n,
                    true);
    }
    for (std::size_t workers : {2u, 8u}) {
      ou::ThreadPool pool(workers);
      PoolOverride ov(&pool, 1);
      std::vector<float> got(cn, -3.0f);
      PackedGemmA pa;
      pack_gemm_a(a.data(), s.m, s.k, pa);
      gemm_tiled_pa(pa, b.data(), got.data(), s.n, false);
      EXPECT_EQ(0, std::memcmp(got.data(), base_pa.data(),
                               cn * sizeof(float)))
          << "gemm_tiled_pa differs at " << workers << " workers";
      std::vector<float> acc = c0;
      gemm_tiled_pa(pa, b.data(), acc.data(), s.n, true);
      EXPECT_EQ(0, std::memcmp(acc.data(), base_acc.data(),
                               cn * sizeof(float)))
          << "gemm_tiled_pa accumulate differs at " << workers << " workers";
      acc = c0;
      gemm_tiled_pa(pat, b.data(), acc.data(), s.n, true);
      EXPECT_EQ(0, std::memcmp(acc.data(), base_at_acc.data(),
                               cn * sizeof(float)))
          << "pack_gemm_at accumulate differs at " << workers << " workers";
      // The A pack lives in the calling thread's storage; the workers
      // must read that pack, not their own (empty) thread-local copy.
      std::fill(got.begin(), got.end(), -3.0f);
      gemm_tiled_bt(a.data(), bt.data(), got.data(), s.m, s.k, s.n, false);
      EXPECT_EQ(0, std::memcmp(got.data(), base_bt.data(),
                               cn * sizeof(float)))
          << "gemm_tiled_bt differs at " << workers << " workers";
      acc = c0;
      gemm_tiled_bt(a.data(), bt.data(), acc.data(), s.m, s.k, s.n, true);
      EXPECT_EQ(0, std::memcmp(acc.data(), base_bt_acc.data(),
                               cn * sizeof(float)))
          << "gemm_tiled_bt accumulate differs at " << workers << " workers";
    }
  }
}

TEST(GemmKernels, ExactI32TileIsBitwiseAcrossIsas) {
  // The int32 x int32 -> int64 tile on full-range operands (int32 rails
  // included, so sums wrap mod 2^64) against a wrapping uint64 reference,
  // scalar and AVX2 compared with memcmp. k = 1 is a single product.
  ou::Rng rng(11);
  constexpr std::size_t kLdc = 11;  // wider than the tile: ldc is honoured
  for (int k : {1, 2, 3, 8, 64, 577}) {
    SCOPED_TRACE("k=" + std::to_string(k));
    std::vector<std::int32_t> a(static_cast<std::size_t>(k) * kGemmTileRows);
    std::vector<std::int32_t> b(static_cast<std::size_t>(k) *
                                kGemmTileColsI32);
    for (auto* v : {&a, &b}) {
      for (auto& x : *v) {
        const std::uint64_t r = rng.next_u64();
        x = r % 4 == 0   ? std::numeric_limits<std::int32_t>::min()
            : r % 4 == 1 ? std::numeric_limits<std::int32_t>::max()
                         : static_cast<std::int32_t>(r >> 32);
      }
    }
    std::vector<std::int64_t> want(kGemmTileRows * kLdc, -5);
    for (int i = 0; i < kGemmTileRows; ++i) {
      for (int j = 0; j < kGemmTileColsI32; ++j) {
        std::uint64_t acc = 0;
        for (int p = 0; p < k; ++p) {
          acc += static_cast<std::uint64_t>(
              std::int64_t{a[static_cast<std::size_t>(p) * kGemmTileRows + i]} *
              b[static_cast<std::size_t>(p) * kGemmTileColsI32 + j]);
        }
        want[i * kLdc + j] = static_cast<std::int64_t>(acc);
      }
    }
    std::vector<std::int64_t> sca(want.size(), -5), vec(want.size(), -5);
    {
      ForceScalar forced(true);
      active_gemm_kernels().tile4x8_i32(a.data(), b.data(), k, sca.data(),
                                        kLdc);
    }
    EXPECT_EQ(0, std::memcmp(sca.data(), want.data(),
                             want.size() * sizeof(std::int64_t)))
        << "scalar tile";
    if (!gemm_avx2_usable()) continue;
    active_gemm_kernels().tile4x8_i32(a.data(), b.data(), k, vec.data(), kLdc);
    EXPECT_EQ(0, std::memcmp(vec.data(), sca.data(),
                             want.size() * sizeof(std::int64_t)))
        << "avx2 tile";
  }
}

TEST(GemmKernels, Conv2dPacksOncePerWeightVersion) {
  ou::Rng rng(11);
  Conv2d conv({.in_channels = 3, .out_channels = 8});
  init_conv(conv, rng);
  conv.set_training(false);

  Tensor x({2, 3, 8, 8});
  for (std::size_t i = 0; i < x.numel(); ++i) {
    x.data()[i] = static_cast<float>(rng.normal(0.0, 1.0));
  }

  // Unversioned weights (training default): every call repacks.
  EXPECT_EQ(conv.weight_version(), 0u);
  (void)conv.forward(x);
  (void)conv.forward(x);
  EXPECT_EQ(conv.weight_packs(), 2u);

  // Versioned: one pack, then cache hits.
  conv.set_weight_version(41);
  (void)conv.forward(x);
  (void)conv.forward(x);
  (void)conv.forward(x);
  EXPECT_EQ(conv.weight_packs(), 3u);

  // New version -> one repack.
  conv.set_weight_version(42);
  (void)conv.forward(x);
  (void)conv.forward(x);
  EXPECT_EQ(conv.weight_packs(), 4u);
}

TEST(GemmKernels, PackedCacheStillCorrectAfterRepack) {
  // Linear must read its live weights: forward after an SGD-like in-place
  // weight mutation sees the new values.
  ou::Rng rng(13);
  Linear fc(5, 3);
  for (std::size_t i = 0; i < fc.weight().value.numel(); ++i) {
    fc.weight().value.data()[i] = static_cast<float>(rng.normal(0.0, 0.5));
  }
  Tensor x({2, 5});
  for (std::size_t i = 0; i < x.numel(); ++i) {
    x.data()[i] = static_cast<float>(rng.normal(0.0, 1.0));
  }
  Tensor before = fc.forward(x);
  for (std::size_t i = 0; i < fc.weight().value.numel(); ++i) {
    fc.weight().value.data()[i] += 0.25f;
  }
  Tensor after = fc.forward(x);
  double diff = 0.0;
  for (std::size_t i = 0; i < before.numel(); ++i) {
    diff = std::max(diff, std::fabs(static_cast<double>(before.data()[i]) -
                                    after.data()[i]));
  }
  EXPECT_GT(diff, 0.0) << "forward served stale weights";
}
