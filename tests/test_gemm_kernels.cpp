// SIMD GEMM micro-kernels and the packed-weight caches built on them
// (core/gemm_kernels.hpp, the tiled GEMMs in core/im2col.hpp):
//  * every tiled GEMM entry point, in each operand layout (A row-major or
//    transposed, B row-major or transposed), against a double-accumulation
//    reference across a geometry sweep that exercises full tiles, ragged
//    edges and the panel cap;
//  * ISA parity — the vector kernels against the scalar fallback on the
//    same inputs (skipped on hosts without usable AVX2+FMA);
//  * the row-paired 8 x 16 tiles (tile8x16, tile8x16_ep) against two
//    4 x 16 calls of the same tier, on every tier this host runs, and the
//    AVX-512 tier against AVX2 — BITWISE, tile by tile and through every
//    float driver GEMM at 1/2/8 workers (AVX-512 cases skipped, with the
//    reason, on hosts without the tier; one line reports which tier ran);
//  * gemm_tiled_bt reading an NCHW A in place, bitwise equal to the same
//    product on the channel-major copy;
//  * thread-count invariance — the panel split never changes any tile's
//    summation order, so results are BITWISE equal across pool sizes;
//  * the exact int32 x int32 -> int64 tile, every tier bitwise on
//    int32-rail operands whose sums wrap;
//  * Conv2d's once-per-version weight-packing cache (hit on repeat calls,
//    rebuild on version change / invalidation / unversioned weights), and
//    Linear reading its live weights on every call.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "core/conv2d.hpp"
#include "core/gemm_kernels.hpp"
#include "core/im2col.hpp"
#include "core/init.hpp"
#include "core/linear.hpp"
#include "kernel_tiers.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

using namespace odenet::core;
using namespace kernel_tiers;
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

TEST(GemmKernels, ReportsTierUnderTest) {
  // One line in the test log names the tier the suite ran on, so a green
  // run on a host without AVX-512 does not pass for a test of its tiles.
  std::printf("[ tier     ] gemm_isa_name() = %s; AVX-512 parity cases %s\n",
              gemm_isa_name(),
              avx512_usable() ? "ran"
                              : (std::string("skipped: ") + kNoAvx512).c_str());
  SUCCEED();
}

TEST(GemmKernels, DispatchIsConsistent) {
  const GemmKernels& k = active_gemm_kernels();
  ASSERT_NE(k.tile4x16, nullptr);
  ASSERT_NE(k.tile8x16, nullptr);
  ASSERT_NE(k.tile8x16_i16, nullptr);
  ASSERT_NE(k.tile8x16_ep, nullptr);
  EXPECT_STREQ(k.isa, gemm_isa_name());
  EXPECT_EQ(gemm_isa(), gemm_best_isa());
  const char* names[] = {"scalar", "avx2+fma", "avx512+vnni"};
  EXPECT_STREQ(gemm_isa_name(), names[static_cast<int>(gemm_best_isa())]);
  for (GemmIsa cap : {GemmIsa::kScalar, GemmIsa::kAvx2, GemmIsa::kAvx512}) {
    IsaCap capped(cap);
    const GemmIsa want = std::min(cap, gemm_best_isa());
    EXPECT_EQ(gemm_isa(), want);
    EXPECT_STREQ(gemm_isa_name(), names[static_cast<int>(want)]);
  }
  EXPECT_EQ(gemm_isa(), gemm_best_isa()) << "the cap leaked";
}

TEST(GemmKernels, TiledVariantsMatchReferenceAcrossGeometries) {
  ou::Rng rng(7);
  for (const Shape& s : kShapes) run_all_tiled(s, rng);
}

TEST(GemmKernels, ScalarFallbackMatchesReferenceAcrossGeometries) {
  IsaCap cap(GemmIsa::kScalar);
  ou::Rng rng(8);
  for (const Shape& s : kShapes) run_all_tiled(s, rng);
}

TEST(GemmKernels, IsaParityVectorVsScalar) {
  if (gemm_best_isa() == GemmIsa::kScalar) {
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
      IsaCap cap(GemmIsa::kScalar);
      gemm_tiled(a.data(), b.data(), sca.data(), s.m, s.k, s.n, false);
    }
    EXPECT_LE(max_abs_diff(vec, sca), tol) << "gemm_tiled isa parity";

    PackedGemmA pat;
    pack_gemm_at(at.data(), s.m, s.k, pat);
    gemm_tiled_pa(pat, b.data(), vec.data(), s.n, false);
    {
      IsaCap cap(GemmIsa::kScalar);
      gemm_tiled_pa(pat, b.data(), sca.data(), s.n, false);
    }
    EXPECT_LE(max_abs_diff(vec, sca), tol) << "pack_gemm_at isa parity";

    gemm_tiled_bt(a.data(), bt.data(), vec.data(), s.m, s.k, s.n, false);
    {
      IsaCap cap(GemmIsa::kScalar);
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

namespace {

/// The row-paired f32 tiles of `pair` against two 4 x 16 calls of `quad`
/// over the same packed panels, memcmp per case: accumulate on and off,
/// and the epilogue with scale / shift / ReLU, a separate residual and
/// one aliasing C, beta 1 and not. Row 6 of the pair has a zero A row
/// (its accumulator is +0, -0 after the negative scale and -0 shift,
/// which ReLU must turn into +0) and column 5 of B is NaN (ReLU -> 0).
void expect_pair_tiles_match(const GemmKernels& pair, const GemmKernels& quad,
                             ou::Rng& rng) {
  constexpr std::size_t kLdc = 21;  // wider than the tile: ldc is honoured
  constexpr std::size_t kCn = kGemmPairRows * kLdc;
  for (int k : {1, 7, 128, 585}) {
    SCOPED_TRACE("k=" + std::to_string(k));
    auto a0 = random_matrix(k, kGemmTileRows, rng);
    auto a1 = random_matrix(k, kGemmTileRows, rng);
    auto b = random_matrix(k, kGemmTileCols, rng);
    for (int p = 0; p < k; ++p) {
      a1[static_cast<std::size_t>(p) * kGemmTileRows + 2] = 0.0f;
      b[static_cast<std::size_t>(p) * kGemmTileCols + 5] =
          std::numeric_limits<float>::quiet_NaN();
    }
    const auto c0 = random_matrix(kGemmPairRows, kLdc, rng);
    auto scale = random_matrix(1, kGemmPairRows, rng);
    auto shift = random_matrix(1, kGemmPairRows, rng);
    scale[6] = -1.5f;
    shift[6] = -0.0f;

    for (bool accumulate : {false, true}) {
      std::vector<float> want = c0, got = c0;
      quad.tile4x16(a0.data(), b.data(), k, want.data(), kLdc, accumulate);
      quad.tile4x16(a1.data(), b.data(), k, want.data() + kGemmTileRows * kLdc,
                    kLdc, accumulate);
      pair.tile8x16(a0.data(), a1.data(), b.data(), k, got.data(), kLdc,
                    accumulate);
      EXPECT_EQ(0, std::memcmp(got.data(), want.data(), kCn * sizeof(float)))
          << "tile8x16 accumulate=" << accumulate;
    }

    struct Ep {
      bool scale, shift, relu, residual, alias;
      float beta;
    };
    for (const Ep& e : {Ep{true, false, false, false, false, 1.0f},
                        Ep{true, true, true, false, false, 1.0f},
                        Ep{false, false, true, true, false, 0.37f},
                        Ep{true, true, true, true, true, 1.0f},
                        Ep{true, true, false, true, true, -0.6f}}) {
      SCOPED_TRACE(testing::Message() << "scale=" << e.scale << " shift="
                                      << e.shift << " relu=" << e.relu
                                      << " residual=" << e.residual
                                      << " alias=" << e.alias
                                      << " beta=" << e.beta);
      const float* s8 = e.scale ? scale.data() : nullptr;
      const float* h8 = e.shift ? shift.data() : nullptr;
      // The residual is C itself when aliasing, else a separate window.
      const std::vector<float> resid = random_matrix(kGemmPairRows, kLdc, rng);
      std::vector<float> want = e.alias ? resid : c0;
      std::vector<float> got = want;
      const float* rw = !e.residual ? nullptr
                        : e.alias   ? want.data()
                                    : resid.data();
      const float* rg = !e.residual ? nullptr
                        : e.alias   ? got.data()
                                    : resid.data();
      quad.tile4x16_ep(a0.data(), b.data(), k, want.data(), kLdc, s8, h8,
                       e.relu, rw, kLdc, e.beta);
      quad.tile4x16_ep(a1.data(), b.data(), k,
                       want.data() + kGemmTileRows * kLdc, kLdc,
                       s8 != nullptr ? s8 + kGemmTileRows : nullptr,
                       h8 != nullptr ? h8 + kGemmTileRows : nullptr, e.relu,
                       rw != nullptr ? rw + kGemmTileRows * kLdc : nullptr,
                       kLdc, e.beta);
      pair.tile8x16_ep(a0.data(), a1.data(), b.data(), k, got.data(), kLdc,
                       s8, h8, e.relu, rg, kLdc, e.beta);
      EXPECT_EQ(0, std::memcmp(got.data(), want.data(), kCn * sizeof(float)))
          << "tile8x16_ep";
      if (e.relu && e.scale && e.shift && !e.residual) {
        EXPECT_FALSE(std::signbit(got[6 * kLdc])) << "ReLU kept a -0";
      }
    }
  }
}

}  // namespace

TEST(GemmKernels, RowPairedTilesEqualTwo4x16CallsOnEveryTier) {
  ou::Rng rng(14);
  for (GemmIsa isa : usable_tiers()) {
    const GemmKernels& k = kernels_of(isa);
    SCOPED_TRACE(k.isa);
    expect_pair_tiles_match(k, k, rng);
  }
}

TEST(GemmKernels, Avx512TilesMatchAvx2Bitwise) {
  if (!avx512_usable()) GTEST_SKIP() << kNoAvx512;
  ou::Rng rng(15);
  expect_pair_tiles_match(kernels_of(GemmIsa::kAvx512),
                          kernels_of(GemmIsa::kAvx2), rng);
}

TEST(GemmKernels, DriverGemmsAreBitwiseAcrossAvx2AndAvx512) {
  // Every float GEMM on the driver, capped at AVX2 and on the AVX-512
  // tier, at 1/2/8 workers with the split forced on: row counts that pair
  // fully (8, 64), leave a lone row tile (4, 12, 20), ragged n, depths
  // past kSumDepth and across gemm_tiled_bt's depth blocks, its NCHW A,
  // batched NCHW stores whose planes straddle tiles (36) or not (64), and
  // the implicit lowering with a time plane.
  if (!avx512_usable()) GTEST_SKIP() << kNoAvx512;
  ou::Rng rng(16);
  struct Case {
    int m, k, n;
  };
  const Case cases[] = {{4, 9, 37},   {8, 130, 300}, {12, 27, 48},
                        {20, 300, 33}, {64, 36, 130}, {20, 9400, 21}};
  for (const Case& cs : cases) {
    SCOPED_TRACE(testing::Message() << "m=" << cs.m << " k=" << cs.k
                                    << " n=" << cs.n);
    const auto a = random_matrix(cs.m, cs.k, rng);
    const auto b = random_matrix(cs.k, cs.n, rng);
    const auto bt = transpose(b, cs.k, cs.n);
    const auto c0 = random_matrix(cs.m, cs.n, rng);
    const auto scale = random_matrix(1, cs.m, rng);
    const auto shift = random_matrix(1, cs.m, rng);
    PackedGemmA pa;
    pack_gemm_a(a.data(), cs.m, cs.k, pa);
    // The columns as a batch of 3 or 4 NCHW samples when they split evenly.
    const int batch = cs.k % 4 == 0 ? 4 : cs.k % 3 == 0 ? 3 : 1;
    auto run_all = [&] {
      std::vector<std::vector<float>> out;
      std::vector<float> c = c0;
      gemm_tiled_pa(pa, b.data(), c.data(), cs.n, true);
      out.push_back(c);
      c = c0;
      gemm_tiled_bt(a.data(), bt.data(), c.data(), cs.m, cs.k, cs.n, true);
      out.push_back(c);
      c = c0;
      gemm_tiled_bt(a.data(), bt.data(), c.data(), cs.m, cs.k, cs.n, false,
                    batch);
      out.push_back(c);
      GemmEpilogue ep;
      ep.scale = scale.data();
      ep.shift = shift.data();
      ep.relu = true;
      c = c0;
      ep.residual = c.data();
      ep.beta = 0.5f;
      gemm_tiled_pa_ep(pa, b.data(), c.data(), cs.n, ep);
      out.push_back(c);
      return out;
    };
    for (std::size_t workers : {1u, 2u, 8u}) {
      ou::ThreadPool pool(workers);
      PoolOverride ov(&pool, 1);
      std::vector<std::vector<float>> avx2;
      {
        IsaCap cap(GemmIsa::kAvx2);
        avx2 = run_all();
      }
      const auto avx512 = run_all();
      for (std::size_t i = 0; i < avx2.size(); ++i) {
        EXPECT_EQ(0, std::memcmp(avx512[i].data(), avx2[i].data(),
                                 avx2[i].size() * sizeof(float)))
            << "GEMM #" << i << " at " << workers << " workers";
      }
    }
  }

  // Batched NCHW stores: the explicit lowering's product on planes that
  // straddle tiles (6x6) or not (8x8, 16x16), and the implicit lowering
  // (planes of 64 and 256, with and without a time plane).
  struct Conv {
    int c, hw, m, batch;
  };
  for (const Conv& cv : {Conv{3, 6, 8, 3}, Conv{5, 8, 12, 3},
                         Conv{4, 8, 64, 2}, Conv{2, 16, 20, 2}}) {
    for (bool tc : {false, true}) {
      SCOPED_TRACE(testing::Message() << "conv c=" << cv.c << " hw=" << cv.hw
                                      << " m=" << cv.m << " batch="
                                      << cv.batch << (tc ? " tc" : ""));
      const LoweringGeometry g{.channels = cv.c, .height = cv.hw,
                               .width = cv.hw};
      const int kk = static_cast<int>(g.col_rows());
      const std::size_t plane = g.col_cols();
      const int n = static_cast<int>(plane) * cv.batch;
      const auto src = random_matrix(
          1, cv.batch * (cv.c - (tc ? 1 : 0)) * static_cast<int>(plane), rng);
      const std::vector<float> tplane(plane, -0.375f);
      const float* tp = tc ? tplane.data() : nullptr;
      const auto w = random_matrix(cv.m, kk, rng);
      const auto scale = random_matrix(1, cv.m, rng);
      const auto shift = random_matrix(1, cv.m, rng);
      const auto state = random_matrix(cv.m, n, rng);
      PackedGemmA pw;
      pack_gemm_a(w.data(), cv.m, kk, pw);
      std::vector<float> cols(static_cast<std::size_t>(kk) * n);
      im2col_batched(src.data(), g, cv.batch, cols.data(), tp);
      const bool implicit = gemm_implicit_lowering_ok(g, cv.m);
      auto run_conv = [&] {
        GemmEpilogue ep;
        ep.scale = scale.data();
        ep.shift = shift.data();
        ep.relu = true;
        ep.beta = 0.25f;
        std::vector<float> out = state;
        ep.residual = out.data();
        if (implicit) {
          gemm_tiled_pa_ep_lowered(pw, src.data(), g, cv.batch, out.data(),
                                   ep, tp);
        } else {
          gemm_tiled_pa_ep(pw, cols.data(), out.data(), n, ep, cv.batch);
        }
        return out;
      };
      for (std::size_t workers : {1u, 2u, 8u}) {
        ou::ThreadPool pool(workers);
        PoolOverride ov(&pool, 1);
        std::vector<float> avx2;
        {
          IsaCap cap(GemmIsa::kAvx2);
          avx2 = run_conv();
        }
        const auto avx512 = run_conv();
        EXPECT_EQ(0, std::memcmp(avx512.data(), avx2.data(),
                                 avx2.size() * sizeof(float)))
            << (implicit ? "implicit" : "explicit") << " at " << workers
            << " workers";
      }
    }
  }
}

TEST(GemmKernels, TransposedBReadsNchwAInPlaceBitwise) {
  // gemm_tiled_bt(..., batch) packs A straight from the NCHW
  // [batch, m, plane] tensor (the conv's grad_out); the reference is the
  // same product on the channel-major [m, batch * plane] copy. The packed
  // bytes are the same (checked first), so the products are bitwise equal
  // on every tier and worker count — across kSumDepth spans and, at plane
  // 3200 x 3, across two depth blocks.
  struct Geo {
    int m, plane, batch, n;
  };
  const Geo geos[] = {{3, 7, 2, 5}, {8, 64, 3, 27}, {16, 36, 8, 37},
                      {12, 3200, 3, 20}};
  ou::Rng rng(17);
  for (const Geo& geo : geos) {
    SCOPED_TRACE(testing::Message() << "m=" << geo.m << " plane="
                                    << geo.plane << " batch=" << geo.batch
                                    << " n=" << geo.n);
    const int k = geo.plane * geo.batch;
    const auto nchw = random_matrix(geo.batch * geo.m, geo.plane, rng);
    std::vector<float> cm(nchw.size());
    for (int s = 0; s < geo.batch; ++s) {
      for (int i = 0; i < geo.m; ++i) {
        std::copy_n(nchw.data() + (static_cast<std::size_t>(s) * geo.m + i) *
                                      geo.plane,
                    geo.plane,
                    cm.data() + static_cast<std::size_t>(i) * k +
                        static_cast<std::size_t>(s) * geo.plane);
      }
    }
    PackedGemmA from_nchw, from_copy;
    pack_gemm_a(nchw.data(), geo.m, k, from_nchw, geo.batch);
    pack_gemm_a(cm.data(), geo.m, k, from_copy);
    ASSERT_EQ(from_nchw.data.size(), from_copy.data.size());
    ASSERT_EQ(0, std::memcmp(from_nchw.data.data(), from_copy.data.data(),
                             from_copy.data.size() * sizeof(float)))
        << "NCHW pack";
    const auto bt = random_matrix(geo.n, k, rng);
    const auto c0 = random_matrix(geo.m, geo.n, rng);
    for (GemmIsa isa : usable_tiers()) {
      IsaCap cap(isa);
      for (std::size_t workers : {1u, 8u}) {
        ou::ThreadPool pool(workers);
        PoolOverride ov(&pool, 1);
        for (bool accumulate : {false, true}) {
          SCOPED_TRACE(testing::Message() << gemm_isa_name() << " workers="
                                          << workers << " accumulate="
                                          << accumulate);
          std::vector<float> want = c0, got = c0;
          gemm_tiled_bt(cm.data(), bt.data(), want.data(), geo.m, k, geo.n,
                        accumulate);
          gemm_tiled_bt(nchw.data(), bt.data(), got.data(), geo.m, k, geo.n,
                        accumulate, geo.batch);
          ASSERT_EQ(0, std::memcmp(got.data(), want.data(),
                                   got.size() * sizeof(float)));
        }
      }
    }
  }
}

TEST(GemmKernels, ExactI32TileIsBitwiseAcrossIsas) {
  // The int32 x int32 -> int64 tile on full-range operands (int32 rails
  // included, so sums wrap mod 2^64) against a wrapping uint64 reference,
  // every tier compared with memcmp. k = 1 is a single product.
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
    for (GemmIsa isa : usable_tiers()) {
      std::vector<std::int64_t> got(want.size(), -5);
      kernels_of(isa).tile4x8_i32(a.data(), b.data(), k, got.data(), kLdc);
      EXPECT_EQ(0, std::memcmp(got.data(), want.data(),
                               want.size() * sizeof(std::int64_t)))
          << kernels_of(isa).isa << " tile";
    }
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
