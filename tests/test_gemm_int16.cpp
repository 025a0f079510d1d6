// The int16 integer GEMM micro-kernel path (core/gemm_kernels.hpp):
//  * gemm_i16_tiled_pa against an int64-accumulation reference across the
//    same geometry sweep as the float kernels (full tiles, ragged rows,
//    ragged cols, panel boundaries, odd k);
//  * ISA parity — every tier (the AVX2 madd kernel, the AVX-512 vpdpwssd
//    row-paired tile) against the scalar fallback must be BITWISE
//    identical, including on accumulators that wrap mod 2^32 (every side
//    uses defined wraparound arithmetic);
//  * the row-paired tile8x16_i16 against two tile4x16_i16 calls on every
//    tier, and gemm_i16_tiled_pa capped at AVX2 against the AVX-512 tier
//    at 1/2/8 workers (AVX-512 cases skipped, with the reason, on hosts
//    without the tier);
//  * thread-count invariance — the panel x row-block split never changes
//    any tile's summation order, so 1/2/8 workers agree bitwise;
//  * the batched NCHW store against the batch-1 (channel-major) product
//    permuted in the test — bitwise, tiles inside one sample and
//    straddling samples, overwrite and accumulate, every tier, 1/2/8
//    workers;
//  * saturation edges — operands at the int16 rails accumulate exactly
//    while the true sum fits int32;
//  * the SIMD quantize kernels (qdq_f32, quant_f32_i16) against the
//    scalar fallback bitwise, and against Fixed's round-half-away
//    semantics including NaN/inf/-0.0 specials; the pair quantize
//    (quant_f32_i16_pair) against quant_f32_i16 lane by lane;
//  * the implicit pair-plane GEMM (gemm_i16_pairs_lowered, pair-major
//    weights) against im2col_batched_i16 + gemm_i16_tiled_pa with
//    natural-order weights, bitwise, on every tier and 1/2/8 workers.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "core/gemm_kernels.hpp"
#include "core/im2col.hpp"
#include "fixed/fixed_tensor.hpp"
#include "kernel_tiers.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

using namespace odenet::core;
using namespace kernel_tiers;
namespace ou = odenet::util;
namespace of = odenet::fixed;

namespace {

std::vector<std::int16_t> random_i16(int rows, int cols, int mag,
                                     ou::Rng& rng) {
  std::vector<std::int16_t> m(static_cast<std::size_t>(rows) * cols);
  for (auto& v : m) {
    v = static_cast<std::int16_t>(
        std::lround(rng.normal(0.0, mag / 3.0)));
  }
  return m;
}

/// C[m,n] = A[m,k] * B[k,n] accumulated in int64, then truncated mod 2^32
/// — the kernel's exact contract (wraparound included).
std::vector<std::int32_t> reference_gemm_i16(
    const std::vector<std::int16_t>& a, const std::vector<std::int16_t>& b,
    int m, int k, int n) {
  std::vector<std::int32_t> c(static_cast<std::size_t>(m) * n);
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      std::uint32_t acc = 0;
      for (int p = 0; p < k; ++p) {
        acc += static_cast<std::uint32_t>(
            static_cast<std::int32_t>(a[i * k + p]) * b[p * n + j]);
      }
      c[static_cast<std::size_t>(i) * n + j] =
          static_cast<std::int32_t>(acc);
    }
  }
  return c;
}

struct Shape {
  int m, k, n;
  std::string str() const {
    return "m=" + std::to_string(m) + " k=" + std::to_string(k) +
           " n=" + std::to_string(n);
  }
};

/// Same sweep as the float suite: full tiles, ragged rows (m % 4), ragged
/// cols (n % 16), odd k (the phantom zero tap), panel boundaries around
/// the 256-wide packing panel and a long-n batched-lowering shape.
const Shape kShapes[] = {
    {1, 1, 1},    {3, 5, 7},     {4, 8, 16},   {5, 16, 17},  {8, 9, 32},
    {12, 64, 48}, {17, 27, 100}, {20, 36, 255}, {16, 32, 256}, {7, 33, 257},
    {64, 36, 585}, {100, 7, 130},
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

/// The channel-major [m, batch * plane] matrix re-laid as NCHW
/// [batch, m, plane] (to_cm = false) or back — the permute the batched
/// store replaced, written out as the reference.
std::vector<std::int32_t> relayout(const std::vector<std::int32_t>& src,
                                   int m, int batch, std::size_t plane,
                                   bool to_cm) {
  std::vector<std::int32_t> dst(src.size());
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

void run_i16_sweep(ou::Rng& rng) {
  for (const Shape& s : kShapes) {
    SCOPED_TRACE(s.str());
    // |acc| <= k * 300^2 < 5.3e7 for the largest k — no wrap, so the
    // int64-truncated reference equals plain integer arithmetic.
    const auto a = random_i16(s.m, s.k, 300, rng);
    const auto b = random_i16(s.k, s.n, 300, rng);
    const auto want = reference_gemm_i16(a, b, s.m, s.k, s.n);

    PackedGemmA16 pa;
    pack_gemm_a_i16(a.data(), s.m, s.k, pa);
    std::vector<std::int32_t> c(want.size(), -7);
    gemm_i16_tiled_pa(pa, b.data(), c.data(), s.n, false);
    EXPECT_EQ(0, std::memcmp(c.data(), want.data(),
                             want.size() * sizeof(std::int32_t)))
        << "gemm_i16_tiled_pa";

    // accumulate=true adds onto the existing C (mod 2^32).
    std::vector<std::int32_t> acc(want.size(), 15);
    gemm_i16_tiled_pa(pa, b.data(), acc.data(), s.n, true);
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(acc[i], want[i] + 15) << "accumulate at " << i;
    }
  }
}

}  // namespace

TEST(GemmInt16, TiledMatchesInt64ReferenceAcrossGeometries) {
  ou::Rng rng(21);
  run_i16_sweep(rng);
}

TEST(GemmInt16, ScalarFallbackMatchesReferenceAcrossGeometries) {
  IsaCap cap(GemmIsa::kScalar);
  ou::Rng rng(22);
  run_i16_sweep(rng);
}

TEST(GemmInt16, IsaParityIsBitwise) {
  if (gemm_best_isa() == GemmIsa::kScalar) {
    GTEST_SKIP() << "AVX2+FMA kernels not usable on this host";
  }
  ou::Rng rng(23);
  for (const Shape& s : kShapes) {
    SCOPED_TRACE(s.str());
    // Full-rail magnitudes: lanes may wrap mod 2^32; every tier must wrap
    // identically (the wraparound IS the contract, not UB).
    const auto a = random_i16(s.m, s.k, 20000, rng);
    const auto b = random_i16(s.k, s.n, 20000, rng);
    PackedGemmA16 pa;
    pack_gemm_a_i16(a.data(), s.m, s.k, pa);
    const std::size_t cn = static_cast<std::size_t>(s.m) * s.n;

    std::vector<std::int32_t> sca(cn, -2);
    {
      IsaCap cap(GemmIsa::kScalar);
      gemm_i16_tiled_pa(pa, b.data(), sca.data(), s.n, false);
    }
    for (GemmIsa isa : usable_tiers()) {
      IsaCap cap(isa);
      std::vector<std::int32_t> vec(cn, -1);
      gemm_i16_tiled_pa(pa, b.data(), vec.data(), s.n, false);
      EXPECT_EQ(0, std::memcmp(vec.data(), sca.data(),
                               cn * sizeof(std::int32_t)))
          << "i16 isa parity on " << gemm_isa_name();
    }
  }
}

TEST(GemmInt16, RowPairedTileEqualsTwo4x16CallsOnEveryTier) {
  // tile8x16_i16 over two pair-interleaved A panels against two
  // tile4x16_i16 calls of the same tier (and, on the AVX-512 tier, of
  // AVX2's), accumulate on and off, on operands parked at the int16 rails
  // (+-32768 pairs make 2^31, which wraps) and full-range ones.
  ou::Rng rng(29);
  constexpr std::size_t kLdc = 19;  // wider than the tile: ldc is honoured
  constexpr std::size_t kCn = kGemmPairRows * kLdc;
  const std::int16_t rails[] = {-32768, 32767, -32767, -32768};
  for (int kpairs : {1, 5, 293}) {
    for (bool rail : {true, false}) {
      SCOPED_TRACE(testing::Message() << "kpairs=" << kpairs
                                      << " rails=" << rail);
      std::vector<std::int16_t> a0(static_cast<std::size_t>(kpairs) * 8);
      std::vector<std::int16_t> a1(a0.size());
      std::vector<std::int16_t> b(static_cast<std::size_t>(kpairs) * 32);
      for (auto* v : {&a0, &a1, &b}) {
        for (std::size_t i = 0; i < v->size(); ++i) {
          (*v)[i] = rail ? rails[(i + rng.uniform_int(2)) % 4]
                         : static_cast<std::int16_t>(
                               static_cast<int>(rng.uniform_int(65536)) -
                               32768);
        }
      }
      std::vector<std::int32_t> c0(kCn);
      for (auto& v : c0) v = static_cast<std::int32_t>(rng.next_u64());
      for (GemmIsa isa : usable_tiers()) {
        const GemmKernels& k = kernels_of(isa);
        // The same tier's 4x16 calls, and AVX2's for the AVX-512 tier.
        std::vector<const GemmKernels*> quads = {&k};
        if (isa == GemmIsa::kAvx512) {
          quads.push_back(&kernels_of(GemmIsa::kAvx2));
        }
        for (const GemmKernels* q : quads) {
          for (bool accumulate : {false, true}) {
            std::vector<std::int32_t> want = c0, got = c0;
            q->tile4x16_i16(a0.data(), b.data(), kpairs, want.data(), kLdc,
                            accumulate);
            q->tile4x16_i16(a1.data(), b.data(), kpairs,
                            want.data() + kGemmTileRows * kLdc, kLdc,
                            accumulate);
            k.tile8x16_i16(a0.data(), a1.data(), b.data(), kpairs, got.data(),
                           kLdc, accumulate);
            EXPECT_EQ(0, std::memcmp(got.data(), want.data(),
                                     kCn * sizeof(std::int32_t)))
                << k.isa << " vs two " << q->isa
                << " 4x16 calls, accumulate=" << accumulate;
          }
        }
      }
    }
  }
}

TEST(GemmInt16, DriverIsBitwiseAcrossAvx2AndAvx512) {
  // gemm_i16_tiled_pa capped at AVX2 and on the AVX-512 tier at 1/2/8
  // workers: m that pairs fully (8, 64) or leaves a lone row tile (4, 12,
  // 20), ragged n, and NCHW planes that straddle tiles (36, 7) or not (64).
  if (!avx512_usable()) GTEST_SKIP() << kNoAvx512;
  struct Geo {
    int m, k, plane, batch;
  };
  const Geo geos[] = {{4, 27, 37, 1},  {8, 37, 36, 3}, {12, 585, 64, 2},
                      {20, 9, 7, 8},   {64, 36, 300, 1}, {64, 145, 36, 3}};
  ou::Rng rng(30);
  for (const Geo& geo : geos) {
    SCOPED_TRACE(testing::Message() << "m=" << geo.m << " k=" << geo.k
                                    << " plane=" << geo.plane
                                    << " batch=" << geo.batch);
    const int n = geo.plane * geo.batch;
    const auto a = random_i16(geo.m, geo.k, 20000, rng);
    const auto b = random_i16(geo.k, n, 20000, rng);
    std::vector<std::int32_t> c0(static_cast<std::size_t>(geo.m) * n);
    for (auto& v : c0) v = static_cast<std::int32_t>(rng.next_u64());
    PackedGemmA16 pa;
    pack_gemm_a_i16(a.data(), geo.m, geo.k, pa);
    for (std::size_t workers : {1u, 2u, 8u}) {
      ou::ThreadPool pool(workers);
      PoolOverride ov(&pool, 1);
      for (bool accumulate : {false, true}) {
        std::vector<std::int32_t> avx2 = c0, avx512 = c0;
        {
          IsaCap cap(GemmIsa::kAvx2);
          gemm_i16_tiled_pa(pa, b.data(), avx2.data(), n, accumulate,
                            geo.batch);
        }
        gemm_i16_tiled_pa(pa, b.data(), avx512.data(), n, accumulate,
                          geo.batch);
        EXPECT_EQ(0, std::memcmp(avx512.data(), avx2.data(),
                                 avx2.size() * sizeof(std::int32_t)))
            << workers << " workers, accumulate=" << accumulate;
      }
    }
  }
}

TEST(GemmInt16, ThreadCountInvarianceIsBitwise) {
  // Each 4x16 tile's k loop runs entirely on one worker and integer
  // addition commutes mod 2^32, so the panel split is pure work division:
  // 1, 2 and 8 workers produce BITWISE identical accumulators (threshold
  // forced to 1 flop so even the smallest shapes take the parallel path).
  ou::Rng rng(24);
  for (const Shape& s : kShapes) {
    SCOPED_TRACE(s.str());
    const auto a = random_i16(s.m, s.k, 300, rng);
    const auto b = random_i16(s.k, s.n, 300, rng);
    const std::size_t cn = static_cast<std::size_t>(s.m) * s.n;

    std::vector<std::int32_t> base(cn);
    {
      ou::ThreadPool one(1);
      PoolOverride ov(&one, 1);
      PackedGemmA16 pa;
      pack_gemm_a_i16(a.data(), s.m, s.k, pa);
      gemm_i16_tiled_pa(pa, b.data(), base.data(), s.n, false);
    }
    for (std::size_t workers : {2u, 8u}) {
      ou::ThreadPool pool(workers);
      PoolOverride ov(&pool, 1);
      std::vector<std::int32_t> got(cn, -3);
      PackedGemmA16 pa;
      pack_gemm_a_i16(a.data(), s.m, s.k, pa);
      gemm_i16_tiled_pa(pa, b.data(), got.data(), s.n, false);
      EXPECT_EQ(0, std::memcmp(got.data(), base.data(),
                               cn * sizeof(std::int32_t)))
          << "gemm_i16_tiled_pa differs at " << workers << " workers";
    }
  }
}

TEST(GemmInt16, BatchedStoreMatchesChannelMajorReferenceBitwise) {
  // gemm_i16_tiled_pa(..., batch) stores column j at pixel j % plane of
  // sample j / plane. The reference is the same GEMM at batch 1 — the
  // channel-major [m, batch * plane] product — permuted to NCHW here. A
  // plane of 64 keeps every tile inside one sample; 36 and 20 make full
  // tiles straddle two samples, 7 three; m = 6, odd k and the odd planes
  // add ragged rows, columns and the phantom k tap.
  struct Geo {
    int m, k, plane, batch;
  };
  const Geo geos[] = {{8, 27, 64, 3}, {8, 37, 36, 3}, {6, 9, 20, 5},
                      {4, 18, 7, 8}};
  ou::Rng rng(26);
  for (const Geo& geo : geos) {
    SCOPED_TRACE(testing::Message() << "m=" << geo.m << " k=" << geo.k
                                    << " plane=" << geo.plane
                                    << " batch=" << geo.batch);
    const std::size_t plane = static_cast<std::size_t>(geo.plane);
    const int n = geo.plane * geo.batch;
    const auto a = random_i16(geo.m, geo.k, 300, rng);
    const auto b = random_i16(geo.k, n, 300, rng);
    std::vector<std::int32_t> init(static_cast<std::size_t>(geo.m) * n);
    for (auto& v : init) {
      v = static_cast<std::int32_t>(rng.uniform_int(2001)) - 1000;
    }
    PackedGemmA16 pa;
    pack_gemm_a_i16(a.data(), geo.m, geo.k, pa);
    for (GemmIsa isa : usable_tiers()) {
      IsaCap cap(isa);
      for (std::size_t workers : {1u, 2u, 8u}) {
        ou::ThreadPool pool(workers);
        PoolOverride ov(&pool, 1);
        for (bool accumulate : {false, true}) {
          SCOPED_TRACE(testing::Message()
                       << gemm_isa_name() << " workers=" << workers
                       << " accumulate=" << accumulate);
          std::vector<std::int32_t> want_cm =
              relayout(init, geo.m, geo.batch, plane, true);
          gemm_i16_tiled_pa(pa, b.data(), want_cm.data(), n, accumulate);
          const auto want =
              relayout(want_cm, geo.m, geo.batch, plane, false);
          std::vector<std::int32_t> got = init;
          gemm_i16_tiled_pa(pa, b.data(), got.data(), n, accumulate,
                            geo.batch);
          ASSERT_EQ(0, std::memcmp(got.data(), want.data(),
                                   got.size() * sizeof(std::int32_t)));
        }
      }
    }
  }
}

TEST(GemmInt16, SaturationRailOperandsAccumulateExactly) {
  // Operands parked at the int16 rails: 2 * 32767^2 and mixed-sign rail
  // products all fit int32, so the kernel must return them exactly. The
  // executor's weight envelope guarantees real models never wrap; this
  // pins the arithmetic at the extreme the envelope allows.
  const int m = 5, k = 2, n = 17;  // ragged row + col edges included
  std::vector<std::int16_t> a(static_cast<std::size_t>(m) * k);
  std::vector<std::int16_t> b(static_cast<std::size_t>(k) * n);
  const std::int16_t rails[] = {32767, -32768, -32767, 1};
  for (std::size_t i = 0; i < a.size(); ++i) a[i] = rails[i % 4];
  for (std::size_t i = 0; i < b.size(); ++i) b[i] = rails[(i + 1) % 4];
  const auto want = reference_gemm_i16(a, b, m, k, n);
  // Sanity: this fixture stays within int32 (no wrap in the reference).
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      std::int64_t wide = 0;
      for (int p = 0; p < k; ++p) {
        wide += static_cast<std::int64_t>(a[i * k + p]) * b[p * n + j];
      }
      ASSERT_EQ(wide, want[static_cast<std::size_t>(i) * n + j]);
    }
  }

  PackedGemmA16 pa;
  pack_gemm_a_i16(a.data(), m, k, pa);
  std::vector<std::int32_t> c(want.size());
  gemm_i16_tiled_pa(pa, b.data(), c.data(), n, false);
  EXPECT_EQ(0, std::memcmp(c.data(), want.data(),
                           want.size() * sizeof(std::int32_t)));
  for (GemmIsa isa : usable_tiers()) {
    IsaCap cap(isa);
    std::vector<std::int32_t> got(want.size());
    gemm_i16_tiled_pa(pa, b.data(), got.data(), n, false);
    EXPECT_EQ(0, std::memcmp(c.data(), got.data(),
                             want.size() * sizeof(std::int32_t)))
        << gemm_isa_name();
  }
}

TEST(GemmInt16, PackedPanelsZeroPadEdges) {
  // m=3 (one ragged row), k=5 (phantom odd tap): every pad slot is zero
  // and every live slot lands at [p][i][s] = A[4t+i][2p+s].
  const int m = 3, k = 5;
  std::vector<std::int16_t> a(static_cast<std::size_t>(m) * k);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = static_cast<std::int16_t>(100 + i);
  }
  PackedGemmA16 pa;
  pack_gemm_a_i16(a.data(), m, k, pa);
  ASSERT_EQ(pa.kpairs(), 3);
  ASSERT_EQ(pa.data.size(), static_cast<std::size_t>(1) * 3 * 4 * 2);
  for (int p = 0; p < 3; ++p) {
    for (int i = 0; i < 4; ++i) {
      for (int s = 0; s < 2; ++s) {
        const std::int16_t got = pa.data[(p * 4 + i) * 2 + s];
        const int row = i, col = 2 * p + s;
        if (row >= m || col >= k) {
          EXPECT_EQ(got, 0) << "pad at p=" << p << " i=" << i << " s=" << s;
        } else {
          EXPECT_EQ(got, a[row * k + col]);
        }
      }
    }
  }
}

TEST(GemmInt16, QuantizeKernelsAreIsaBitwiseAndHandleSpecials) {
  const GemmKernels& k = active_gemm_kernels();
  ASSERT_NE(k.tile4x16_i16, nullptr);
  ASSERT_NE(k.qdq_f32, nullptr);
  ASSERT_NE(k.quant_f32_i16, nullptr);

  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  std::vector<float> src = {0.0f,   -0.0f,  1.0f,     -1.0f,  0.3333f,
                            -0.3333f, 1e30f, -1e30f,  inf,    -inf,
                            nan,    7.9999f, -7.9999f, 0.5f / 4096.0f,
                            1.5f / 4096.0f, -1.5f / 4096.0f};
  ou::Rng rng(25);
  for (int i = 0; i < 333; ++i) {  // odd count: SIMD tail path covered
    src.push_back(static_cast<float>(rng.normal(0.0, 4.0)));
  }

  for (int frac : {8, 12, 15}) {
    SCOPED_TRACE("frac=" + std::to_string(frac));
    std::vector<std::int16_t> qv(src.size()), qs(src.size());
    k.quant_f32_i16(src.data(), qv.data(), src.size(), frac);
    {
      IsaCap cap(GemmIsa::kScalar);
      active_gemm_kernels().quant_f32_i16(src.data(), qs.data(), src.size(),
                                          frac);
    }
    EXPECT_EQ(0, std::memcmp(qv.data(), qs.data(),
                             qv.size() * sizeof(std::int16_t)));
    // Specials: NaN -> 0, +-inf/huge -> rails.
    EXPECT_EQ(qs[8], 32767);   // +inf
    EXPECT_EQ(qs[9], -32768);  // -inf
    EXPECT_EQ(qs[10], 0);      // NaN
    EXPECT_EQ(qs[6], 32767);   // +huge
    EXPECT_EQ(qs[7], -32768);  // -huge

    std::vector<float> dv(src), ds(src);
    k.qdq_f32(dv.data(), dv.size(), frac);
    {
      IsaCap cap(GemmIsa::kScalar);
      active_gemm_kernels().qdq_f32(ds.data(), ds.size(), frac);
    }
    EXPECT_EQ(0,
              std::memcmp(dv.data(), ds.data(), dv.size() * sizeof(float)));
    // qdq matches the Fixed scalar reference value-for-value (including
    // -0.0 normalization: the result compares bitwise equal to +0.0).
    for (std::size_t i = 0; i < src.size(); ++i) {
      const float want = of::qdq_value(src[i], frac);
      ASSERT_EQ(ds[i], want) << "qdq mismatch at " << i << " v=" << src[i];
    }
    const float zero = 0.0f;
    EXPECT_EQ(0, std::memcmp(&ds[1], &zero, sizeof(float)));  // -0.0 -> +0.0
  }

  // requant_i32: the AVX2 double-domain shift against the int64 scalar,
  // bitwise, across shifts including 0 (passthrough) and accumulators at
  // the int32 rails.
  std::vector<std::int32_t> accs = {0,          1,           -1,
                                    24,         -24,         23,
                                    2147483647, -2147483647, -2147483648};
  for (int i = 0; i < 500; ++i) {
    accs.push_back(static_cast<std::int32_t>(
        std::llround(rng.normal(0.0, 1e8))));
  }
  for (int shift : {0, 4, 8, 27}) {
    SCOPED_TRACE("shift=" + std::to_string(shift));
    std::vector<float> rv(accs.size()), rs(accs.size());
    k.requant_i32(accs.data(), rv.data(), accs.size(), shift, 20);
    {
      IsaCap cap(GemmIsa::kScalar);
      active_gemm_kernels().requant_i32(accs.data(), rs.data(), accs.size(),
                                        shift, 20);
    }
    EXPECT_EQ(0,
              std::memcmp(rv.data(), rs.data(), rv.size() * sizeof(float)));
  }

  // Round-half-away-from-zero at the exact midpoint: 1.5 ulp of Q12 is
  // 1.5/4096, which must round to raw 2, not the round-to-even 2 vs the
  // round-to-zero 1 — and symmetrically for the negative midpoint.
  std::int16_t q[2];
  const float mids[2] = {1.5f / 4096.0f, -1.5f / 4096.0f};
  active_gemm_kernels().quant_f32_i16(mids, q, 2, 12);
  EXPECT_EQ(q[0], 2);
  EXPECT_EQ(q[1], -2);
}

TEST(GemmInt16, MaxAbsKernelIsIsaBitwiseAndExact) {
  ou::Rng rng(31);
  // Odd length exercises the SIMD tail; the winner sits in the tail so a
  // dropped remainder would be caught.
  std::vector<float> src(8 * 123 + 5);
  for (auto& v : src) v = static_cast<float>(rng.normal(0.0, 3.0));
  src[src.size() - 2] = -97.5f;  // |max| is a negative tail element

  float ref = 0.0f;
  for (float v : src) ref = std::max(ref, std::fabs(v));
  ASSERT_EQ(ref, 97.5f);

  const float vec = active_gemm_kernels().max_abs_f32(src.data(), src.size());
  float sca;
  {
    IsaCap cap(GemmIsa::kScalar);
    sca = active_gemm_kernels().max_abs_f32(src.data(), src.size());
  }
  EXPECT_EQ(vec, ref);
  EXPECT_EQ(sca, ref);
  EXPECT_EQ(0, std::memcmp(&vec, &sca, sizeof(float)));

  // The thread-split wrapper reduces chunk partials — exact max is
  // associative, so any split is bitwise identical; +inf passes through
  // (the executor's isfinite guard rejects it downstream).
  EXPECT_EQ(of::max_abs(src.data(), src.size()), ref);
  EXPECT_EQ(of::max_abs(src.data(), 0), 0.0f);
  std::vector<float> big(100000, 0.25f);
  big[70001] = std::numeric_limits<float>::infinity();
  EXPECT_EQ(of::max_abs(big.data(), big.size()),
            std::numeric_limits<float>::infinity());
}

TEST(GemmInt16, PairLoweredMatchesExplicitBitwise) {
  // gemm_i16_pairs_lowered with pair-major weights against the explicit
  // composition it replaces for the fixed backend's stride-1 convs:
  // im2col_batched_i16 + gemm_i16_tiled_pa with natural-order weights.
  // Both sum the same products in another order, so the int32 C must
  // memcmp-equal — on 4x4 (one tile wraps four rows) to 32x32 (a row
  // spans two tiles) planes, odd and even channel counts (an odd last
  // channel beside a zero lane), with and without a time plane, kernels
  // 3 and 5, batches 1/3/8, every tier, 1/2/8 workers with the parallel
  // threshold forced down. m = 12 runs a row pair and a lone row tile.
  // Every padded lane of the planes holds the -32768 rail: the pair-major
  // weights are zero there, so none of it may reach C.
  constexpr int m = 12;
  constexpr std::int16_t kRail = -32768;
  ou::ThreadPool pool1(1), pool2(2), pool8(8);
  ou::ThreadPool* pools[] = {&pool1, &pool2, &pool8};
  ou::Rng rng(41);
  for (int size : {4, 8, 16, 32}) {
    for (int channels : {3, 4}) {
      for (bool timed : {false, true}) {
        for (int kernel : {3, 5}) {
          LoweringGeometry g;
          g.channels = channels + (timed ? 1 : 0);
          g.height = g.width = size;
          g.kernel = kernel;
          g.pad = kernel / 2;
          ASSERT_TRUE(gemm_implicit_lowering_ok(g, m));
          const int k = static_cast<int>(g.col_rows());
          const auto w = random_i16(m, k, 300, rng);
          PackedGemmA16 natural, paired;
          pack_gemm_a_i16(w.data(), m, k, natural);
          pack_gemm_a_i16_pairs(w.data(), m, g, timed, paired);
          const auto t16 = static_cast<std::int16_t>(
              static_cast<int>(rng.uniform_int(601)) - 300);
          const std::size_t plane = static_cast<std::size_t>(size) * size;
          const int pairs = (channels + 1) / 2;
          for (int batch : {1, 3, 8}) {
            SCOPED_TRACE(testing::Message()
                         << size << "x" << size << " channels=" << channels
                         << " time=" << timed << " kernel=" << kernel
                         << " batch=" << batch);
            const int n = static_cast<int>(plane) * batch;
            const auto x =
                random_i16(batch * channels, static_cast<int>(plane), 300,
                           rng);
            const std::vector<std::int16_t> tplane(plane, t16);
            std::vector<std::int16_t> cols(static_cast<std::size_t>(k) * n);
            im2col_batched_i16(x.data(), g, batch, cols.data(),
                               timed ? tplane.data() : nullptr);
            std::vector<std::int32_t> want(static_cast<std::size_t>(m) * n);
            gemm_i16_tiled_pa(natural, cols.data(), want.data(), n,
                              /*accumulate=*/false, batch);

            std::vector<I16Pair> xp(static_cast<std::size_t>(batch) * pairs *
                                    plane);
            for (int s = 0; s < batch; ++s) {
              for (int q = 0; q < pairs; ++q) {
                const std::int16_t* lo =
                    x.data() + (static_cast<std::size_t>(s) * channels +
                                2 * static_cast<std::size_t>(q)) *
                                   plane;
                const bool hi = 2 * q + 1 < channels;
                I16Pair* dst = xp.data() + (static_cast<std::size_t>(s) *
                                                pairs +
                                            q) *
                                               plane;
                for (std::size_t px = 0; px < plane; ++px) {
                  dst[px] = {lo[px], hi ? lo[plane + px] : kRail};
                }
              }
            }
            const std::vector<I16Pair> tp(plane, I16Pair{t16, kRail});
            for (GemmIsa isa : usable_tiers()) {
              IsaCap cap(isa);
              for (ou::ThreadPool* pool : pools) {
                PoolOverride ov(pool, 1);
                std::vector<std::int32_t> got(want.size(), -5);
                gemm_i16_pairs_lowered(paired, xp.data(), g, batch,
                                       got.data(),
                                       timed ? tp.data() : nullptr);
                ASSERT_EQ(0, std::memcmp(got.data(), want.data(),
                                         want.size() * sizeof(std::int32_t)))
                    << gemm_isa_name() << ", " << pool->worker_count()
                    << " workers";
              }
            }
          }
        }
      }
    }
  }
}

TEST(GemmInt16, PairQuantizeMatchesQuantF32I16PerLane) {
  // quant_f32_i16_pair against quant_f32_i16 lane by lane, memcmp, on
  // every tier: NaN, +-inf, +-huge, values at and one step past the
  // +-int16 rails, -0.0 and round-half midpoints, at lengths that leave
  // every tail the 8-wide vector body can, and with the hi lane absent
  // (nullptr), where it must be 0.
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  constexpr int kFrac = 12;  // rails at 32767 / 4096 and -32768 / 4096
  std::vector<float> lo = {nan,
                           inf,
                           -inf,
                           1e30f,
                           -1e30f,
                           32767.0f / 4096.0f,
                           -32768.0f / 4096.0f,
                           32768.0f / 4096.0f,
                           -32769.0f / 4096.0f,
                           -0.0f,
                           1.5f / 4096.0f,
                           -1.5f / 4096.0f};
  ou::Rng rng(43);
  while (lo.size() < 8 * 12 + 7) {
    lo.push_back(static_cast<float>(rng.normal(0.0, 4.0)));
  }
  const std::vector<float> hi(lo.rbegin(), lo.rend());
  for (GemmIsa isa : usable_tiers()) {
    const GemmKernels& k = kernels_of(isa);
    for (std::size_t n : {std::size_t{1}, std::size_t{7}, std::size_t{8},
                          std::size_t{9}, std::size_t{15}, lo.size()}) {
      SCOPED_TRACE(testing::Message() << k.isa << " n=" << n);
      std::vector<std::int16_t> want_lo(n), want_hi(n);
      k.quant_f32_i16(lo.data(), want_lo.data(), n, kFrac);
      k.quant_f32_i16(hi.data(), want_hi.data(), n, kFrac);
      std::vector<I16Pair> both(n, I16Pair{7, 7}), half(n, I16Pair{7, 7});
      k.quant_f32_i16_pair(lo.data(), hi.data(), both.data(), n, kFrac);
      k.quant_f32_i16_pair(lo.data(), nullptr, half.data(), n, kFrac);
      std::vector<std::int16_t> got_lo(n), got_hi(n), half_lo(n),
          half_hi(n);
      for (std::size_t i = 0; i < n; ++i) {
        got_lo[i] = both[i].lo;
        got_hi[i] = both[i].hi;
        half_lo[i] = half[i].lo;
        half_hi[i] = half[i].hi;
      }
      const std::size_t bytes = n * sizeof(std::int16_t);
      EXPECT_EQ(0, std::memcmp(got_lo.data(), want_lo.data(), bytes));
      EXPECT_EQ(0, std::memcmp(got_hi.data(), want_hi.data(), bytes));
      EXPECT_EQ(0, std::memcmp(half_lo.data(), want_lo.data(), bytes));
      EXPECT_EQ(half_hi, std::vector<std::int16_t>(n, 0));
    }
    // The specials' raws, through the pair kernel itself.
    I16Pair q[9];
    k.quant_f32_i16_pair(lo.data(), nullptr, q, 9, kFrac);
    const std::int16_t want[9] = {0,     32767, -32768, 32767, -32768,
                                  32767, -32768, 32767, -32768};
    for (int i = 0; i < 9; ++i) {
      EXPECT_EQ(q[i].lo, want[i]) << k.isa << " special " << i;
    }
  }
}
