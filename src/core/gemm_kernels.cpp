#include "core/gemm_kernels.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "core/gemm_driver.hpp"
#include "core/im2col.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

namespace odenet::core {

// Defined in gemm_kernels_avx2.cpp — the only translation unit compiled
// with -mavx2 -mfma (its AVX-512 kernels add a per-function target).
// Both return nullptr when that TU was built without AVX2 codegen
// (non-x86, -mno-avx2, or -DODENET_DISABLE_AVX2=ON).
const GemmKernels* gemm_avx2_kernels_impl();
const GemmKernels* gemm_avx512_kernels_impl();

namespace {

/// Scalar full-tile kernel: the exact loop nest (and therefore the exact
/// float summation order) of the pre-dispatch gemm_tiled full-tile path,
/// reading A from the packed [k][4] panel instead of a strided matrix.
void tile4x16_scalar(const float* apanel, const float* bpanel, int k,
                     float* c, std::size_t ldc, bool accumulate) {
  float acc[kGemmTileRows][kGemmTileCols];
  for (int i = 0; i < kGemmTileRows; ++i) {
    for (int j = 0; j < kGemmTileCols; ++j) {
      acc[i][j] = accumulate ? c[i * ldc + j] : 0.0f;
    }
  }
  for (int p = 0; p < k; ++p) {
    const float* brow = bpanel + static_cast<std::size_t>(p) * kGemmTileCols;
    const float a0 = apanel[p * kGemmTileRows + 0];
    const float a1 = apanel[p * kGemmTileRows + 1];
    const float a2 = apanel[p * kGemmTileRows + 2];
    const float a3 = apanel[p * kGemmTileRows + 3];
    for (int j = 0; j < kGemmTileCols; ++j) {
      const float bv = brow[j];
      acc[0][j] += a0 * bv;
      acc[1][j] += a1 * bv;
      acc[2][j] += a2 * bv;
      acc[3][j] += a3 * bv;
    }
  }
  for (int i = 0; i < kGemmTileRows; ++i) {
    float* crow = c + i * ldc;
    for (int j = 0; j < kGemmTileCols; ++j) crow[j] = acc[i][j];
  }
}

/// Full-tile kernel with fused epilogue: the accumulation loop is the
/// byte-for-byte twin of tile4x16_scalar (never accumulating — an epilogue
/// store always overwrites), then every element runs the fixed epilogue
/// chain before its single store. The chain's op order (affine, relu,
/// residual) is mirrored in the vector twins and in gemm_tiled_pa_ep's
/// ragged-edge path; keeping them identical is what makes fused output
/// bitwise equal to GEMM + elementwise kernels on every tier.
void tile4x16_ep_scalar(const float* apanel, const float* bpanel, int k,
                        float* c, std::size_t ldc, const float* scale4,
                        const float* shift4, bool relu, const float* residual,
                        std::size_t ldr, float beta) {
  float acc[kGemmTileRows][kGemmTileCols];
  for (int i = 0; i < kGemmTileRows; ++i) {
    for (int j = 0; j < kGemmTileCols; ++j) acc[i][j] = 0.0f;
  }
  for (int p = 0; p < k; ++p) {
    const float* brow = bpanel + static_cast<std::size_t>(p) * kGemmTileCols;
    const float a0 = apanel[p * kGemmTileRows + 0];
    const float a1 = apanel[p * kGemmTileRows + 1];
    const float a2 = apanel[p * kGemmTileRows + 2];
    const float a3 = apanel[p * kGemmTileRows + 3];
    for (int j = 0; j < kGemmTileCols; ++j) {
      const float bv = brow[j];
      acc[0][j] += a0 * bv;
      acc[1][j] += a1 * bv;
      acc[2][j] += a2 * bv;
      acc[3][j] += a3 * bv;
    }
  }
  for (int i = 0; i < kGemmTileRows; ++i) {
    float* crow = c + i * ldc;
    const float* rrow =
        residual != nullptr ? residual + static_cast<std::size_t>(i) * ldr
                            : nullptr;
    const float s = scale4 != nullptr ? scale4[i] : 0.0f;
    const float b = shift4 != nullptr ? shift4[i] : 0.0f;
    for (int j = 0; j < kGemmTileCols; ++j) {
      float t = acc[i][j];
      if (scale4 != nullptr) t = t * s;
      if (shift4 != nullptr) t = t + b;
      if (relu) t = t > 0.0f ? t : 0.0f;
      if (rrow != nullptr) t = t + beta * rrow[j];
      crow[j] = t;
    }
  }
}

/// Scalar integer full-tile kernel over the pair-interleaved int16 panels.
/// Accumulates in uint32 so the (impossible under the fixed backend's
/// overflow envelope, but reachable with adversarial operands) wraparound
/// is defined behaviour and bitwise identical to `_mm256_madd_epi16` +
/// `_mm256_add_epi32`. The int16*int16 products themselves always fit in
/// int (|p| <= 2^30), so the multiplies are UB-free.
void tile4x16_i16_scalar(const std::int16_t* apanel,
                         const std::int16_t* bpanel, int kpairs,
                         std::int32_t* c, std::size_t ldc, bool accumulate) {
  std::uint32_t acc[kGemmTileRows][kGemmTileCols];
  for (int i = 0; i < kGemmTileRows; ++i) {
    for (int j = 0; j < kGemmTileCols; ++j) {
      acc[i][j] =
          accumulate ? static_cast<std::uint32_t>(c[i * ldc + j]) : 0u;
    }
  }
  for (int p = 0; p < kpairs; ++p) {
    const std::int16_t* ap = apanel + static_cast<std::size_t>(p) * 8;
    const std::int16_t* bp = bpanel + static_cast<std::size_t>(p) * 32;
    for (int i = 0; i < kGemmTileRows; ++i) {
      const int a0 = ap[i * 2 + 0];
      const int a1 = ap[i * 2 + 1];
      for (int j = 0; j < kGemmTileCols; ++j) {
        // The madd dot-pair: both products summed in one 32-bit lane.
        acc[i][j] += static_cast<std::uint32_t>(a0 * bp[j * 2 + 0]) +
                     static_cast<std::uint32_t>(a1 * bp[j * 2 + 1]);
      }
    }
  }
  for (int i = 0; i < kGemmTileRows; ++i) {
    std::int32_t* crow = c + i * ldc;
    for (int j = 0; j < kGemmTileCols; ++j) {
      crow[j] = static_cast<std::int32_t>(acc[i][j]);
    }
  }
}

/// Scalar exact integer tile. The int32 x int32 products are exact in
/// int64; the sums accumulate in uint64, so wraparound (reachable only
/// with int32-rail operands) is defined and bitwise identical to
/// `_mm256_add_epi64`.
void tile4x8_i32_scalar(const std::int32_t* apanel,
                        const std::int32_t* bpanel, int k, std::int64_t* c,
                        std::size_t ldc) {
  std::uint64_t acc[kGemmTileRows][kGemmTileColsI32] = {};
  for (int p = 0; p < k; ++p) {
    const std::int32_t* ap =
        apanel + static_cast<std::size_t>(p) * kGemmTileRows;
    const std::int32_t* bp =
        bpanel + static_cast<std::size_t>(p) * kGemmTileColsI32;
    for (int i = 0; i < kGemmTileRows; ++i) {
      const std::int64_t a = ap[i];
      for (int j = 0; j < kGemmTileColsI32; ++j) {
        acc[i][j] += static_cast<std::uint64_t>(a * bp[j]);
      }
    }
  }
  for (int i = 0; i < kGemmTileRows; ++i) {
    for (int j = 0; j < kGemmTileColsI32; ++j) {
      c[i * ldc + j] = static_cast<std::int64_t>(acc[i][j]);
    }
  }
}

/// One float through the saturating Q(frac_bits) rounding used by every
/// quantize kernel: NaN -> 0, round half away from zero, clamp in the
/// DOUBLE domain (casting an out-of-range double to an integer is UB, so
/// the bound comparison happens before any integer conversion). Returns
/// the integral raw value as a double; +0.0 normalized so the scalar and
/// AVX2 kernels agree bitwise on negatives that round to zero.
inline double quantize_raw_double(float v, double one, double lo, double hi) {
  const double scaled = static_cast<double>(v) * one;
  if (scaled != scaled) return 0.0;  // NaN
  double r = std::trunc(scaled >= 0.0 ? scaled + 0.5 : scaled - 0.5);
  if (r > hi) r = hi;
  if (r < lo) r = lo;
  return r + 0.0;  // -0.0 -> +0.0
}

void qdq_f32_scalar(float* data, std::size_t n, int frac_bits) {
  const double one = static_cast<double>(std::int64_t{1} << frac_bits);
  const double inv = 1.0 / one;
  constexpr double hi = 2147483647.0;   // int32 max, exactly representable
  constexpr double lo = -2147483648.0;  // int32 min
  for (std::size_t i = 0; i < n; ++i) {
    data[i] =
        static_cast<float>(quantize_raw_double(data[i], one, lo, hi) * inv);
  }
}

void quant_f32_i16_scalar(const float* src, std::int16_t* dst, std::size_t n,
                          int frac_bits) {
  const double one = static_cast<double>(std::int64_t{1} << frac_bits);
  constexpr double hi = 32767.0;
  constexpr double lo = -32768.0;
  for (std::size_t i = 0; i < n; ++i) {
    dst[i] =
        static_cast<std::int16_t>(quantize_raw_double(src[i], one, lo, hi));
  }
}

void quant_f32_i16_pair_scalar(const float* lo, const float* hi,
                               I16Pair* dst, std::size_t n, int frac_bits) {
  const double one = static_cast<double>(std::int64_t{1} << frac_bits);
  for (std::size_t i = 0; i < n; ++i) {
    dst[i].lo = static_cast<std::int16_t>(
        quantize_raw_double(lo[i], one, -32768.0, 32767.0));
    dst[i].hi = hi != nullptr ? static_cast<std::int16_t>(quantize_raw_double(
                                    hi[i], one, -32768.0, 32767.0))
                              : std::int16_t{0};
  }
}

void requant_i32_scalar(const std::int32_t* acc, float* dst, std::size_t n,
                        int shift, int frac_bits) {
  const double inv =
      1.0 / static_cast<double>(std::int64_t{1} << frac_bits);
  if (shift == 0) {
    for (std::size_t i = 0; i < n; ++i) {
      dst[i] = static_cast<float>(static_cast<double>(acc[i]) * inv);
    }
    return;
  }
  // Round half away from zero — the Fixed::operator* post-multiply
  // rounding stage, applied once per accumulator instead of once per MAC.
  const std::int64_t half = std::int64_t{1} << (shift - 1);
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t a = acc[i];
    const std::int64_t r =
        a >= 0 ? (a + half) >> shift : -((-a + half) >> shift);
    // r * 2^-f is exact in double (|r| < 2^31), so the only float
    // rounding is the final narrowing — the value lands on the Q grid.
    dst[i] = static_cast<float>(static_cast<double>(r) * inv);
  }
}

float max_abs_f32_scalar(const float* src, std::size_t n) {
  // Four independent accumulators break the dependence chain; exact max
  // makes the regrouping bitwise-neutral.
  float m0 = 0.0f, m1 = 0.0f, m2 = 0.0f, m3 = 0.0f;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    m0 = std::max(m0, std::fabs(src[i]));
    m1 = std::max(m1, std::fabs(src[i + 1]));
    m2 = std::max(m2, std::fabs(src[i + 2]));
    m3 = std::max(m3, std::fabs(src[i + 3]));
  }
  for (; i < n; ++i) m0 = std::max(m0, std::fabs(src[i]));
  return std::max(std::max(m0, m1), std::max(m2, m3));
}

// Scalar elementwise family — the epilogue ops as streaming passes. Each
// op is a single mul/add/compare per element (no contraction possible at
// the baseline ISA), so the AVX2 twins, built with -ffp-contract=off and
// the same two-op sequences, are bitwise identical.

void relu_f32_scalar(const float* src, float* dst, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const float t = src[i];
    dst[i] = t > 0.0f ? t : 0.0f;  // NaN -> 0, -0.0 -> +0.0
  }
}

void axpy_f32_scalar(float a, const float* x, float* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] = y[i] + a * x[i];
}

void mul_f32_scalar(const float* a, const float* b, float* dst,
                    std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] = a[i] * b[i];
}

void scale_f32_scalar(float* x, std::size_t n, float a) {
  for (std::size_t i = 0; i < n; ++i) x[i] = x[i] * a;
}

void affine_f32_scalar(const float* src, float* dst, std::size_t n,
                       float scale, float shift) {
  for (std::size_t i = 0; i < n; ++i) dst[i] = src[i] * scale + shift;
}

constexpr GemmKernels kScalarKernels{
    tile4x16_scalar,
    detail::paired_tile<tile4x16_scalar>,
    tile4x16_i16_scalar,
    detail::paired_tile_i16<tile4x16_i16_scalar>,
    tile4x8_i32_scalar,
    qdq_f32_scalar,
    quant_f32_i16_scalar,
    quant_f32_i16_pair_scalar,
    requant_i32_scalar,
    max_abs_f32_scalar,
    tile4x16_ep_scalar,
    detail::paired_tile_ep<tile4x16_ep_scalar>,
    relu_f32_scalar,
    axpy_f32_scalar,
    mul_f32_scalar,
    scale_f32_scalar,
    affine_f32_scalar,
    "scalar"};

bool cpu_supports_avx2_fma() {
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

bool cpu_supports_avx512_vnni() {
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
  return __builtin_cpu_supports("avx512f") &&
         __builtin_cpu_supports("avx512bw") &&
         __builtin_cpu_supports("avx512vnni");
#else
  return false;
#endif
}

bool env_disables_simd() {
  const char* e = std::getenv("ODENET_SIMD");
  if (e == nullptr) return false;
  return std::strcmp(e, "0") == 0 || std::strcmp(e, "off") == 0 ||
         std::strcmp(e, "OFF") == 0 || std::strcmp(e, "scalar") == 0;
}

std::atomic<GemmIsa> g_isa_cap{GemmIsa::kAvx512};
std::atomic<std::size_t> g_min_flops_override{0};
std::atomic<util::ThreadPool*> g_kernel_pool{nullptr};

constexpr std::size_t kDefaultMinFlops = std::size_t{1} << 20;  // < ~0.5 ms

}  // namespace

GemmIsa gemm_best_isa() {
  static const GemmIsa best = [] {
    if (gemm_avx2_kernels_impl() == nullptr || !cpu_supports_avx2_fma() ||
        env_disables_simd()) {
      return GemmIsa::kScalar;
    }
    return gemm_avx512_kernels_impl() != nullptr &&
                   cpu_supports_avx512_vnni()
               ? GemmIsa::kAvx512
               : GemmIsa::kAvx2;
  }();
  return best;
}

void gemm_cap_isa(GemmIsa cap) {
  g_isa_cap.store(cap, std::memory_order_relaxed);
}

GemmIsa gemm_isa() {
  return std::min(gemm_best_isa(), g_isa_cap.load(std::memory_order_relaxed));
}

const GemmKernels& active_gemm_kernels() {
  switch (gemm_isa()) {
    case GemmIsa::kAvx512:
      return *gemm_avx512_kernels_impl();
    case GemmIsa::kAvx2:
      return *gemm_avx2_kernels_impl();
    case GemmIsa::kScalar:
      break;
  }
  return kScalarKernels;
}

const char* gemm_isa_name() { return active_gemm_kernels().isa; }

std::size_t gemm_parallel_min_flops() {
  const std::size_t v = g_min_flops_override.load(std::memory_order_relaxed);
  return v != 0 ? v : kDefaultMinFlops;
}

void gemm_set_parallel_min_flops(std::size_t flops) {
  g_min_flops_override.store(flops, std::memory_order_relaxed);
}

void set_kernel_pool(util::ThreadPool* pool) {
  g_kernel_pool.store(pool, std::memory_order_release);
}

util::ThreadPool& kernel_pool() {
  util::ThreadPool* pool = g_kernel_pool.load(std::memory_order_acquire);
  return pool != nullptr ? *pool : util::ThreadPool::global();
}

void pack_gemm_a_i16(const std::int16_t* a, int m, int k, PackedGemmA16& out) {
  ODENET_CHECK(m >= 0 && k >= 0, "bad pack_gemm_a_i16 dimensions");
  out.m = m;
  out.k = k;
  const int row_tiles = (m + kGemmTileRows - 1) / kGemmTileRows;
  const int kp = (k + 1) / 2;
  // assign() zero-fills, which doubles as the edge-row / odd-k padding.
  out.data.assign(static_cast<std::size_t>(row_tiles) *
                      static_cast<std::size_t>(std::max(kp, 1)) *
                      kGemmTileRows * 2,
                  0);
  for (int t = 0; t < row_tiles; ++t) {
    const int i0 = t * kGemmTileRows;
    const int mr = std::min(kGemmTileRows, m - i0);
    std::int16_t* panel =
        out.data.data() + static_cast<std::size_t>(t) * kp * kGemmTileRows * 2;
    for (int p = 0; p < kp; ++p) {
      std::int16_t* dst = panel + static_cast<std::size_t>(p) * kGemmTileRows * 2;
      for (int i = 0; i < mr; ++i) {
        const std::int16_t* arow =
            a + (i0 + i) * static_cast<std::size_t>(k);
        dst[i * 2 + 0] = arow[2 * p];
        if (2 * p + 1 < k) dst[i * 2 + 1] = arow[2 * p + 1];
      }
    }
  }
}

void gemm_i16_tiled_pa(const PackedGemmA16& a, const std::int16_t* b,
                       std::int32_t* c, int n, bool accumulate, int batch) {
  ODENET_CHECK(n >= 0 && batch > 0 && n % batch == 0,
               "bad gemm dimensions: n " << n << ", batch " << batch);
  const int k = a.k;
  const int kp = a.kpairs();
  const std::size_t a_tile = static_cast<std::size_t>(kp) * kGemmTileRows * 2;
  const detail::NchwStore out{static_cast<std::size_t>(a.m),
                              static_cast<std::size_t>(n / batch)};
  const GemmKernels& kernels = active_gemm_kernels();
  // Integer addition commutes mod 2^32, so beyond the driver's split
  // invariance every ISA produces bitwise-identical C too.
  detail::gemm_panels<std::int16_t>(
      a.m, k, n,
      static_cast<std::size_t>(std::max(kp, 1)) * kGemmTileCols * 2,
      [&](int p0, int pn, std::int16_t* packed) {
        // Pair-interleaved packing of the panel's full-width column tiles:
        // one sequential pass over B, the padded odd-k tap zeroed
        // explicitly (the storage is recycled, not zero-initialized).
        const int full_tiles = pn / kGemmTileCols;
        for (int p = 0; p < kp; ++p) {
          const std::int16_t* brow0 =
              b + static_cast<std::size_t>(2 * p) * n + p0;
          const std::int16_t* brow1 = 2 * p + 1 < k ? brow0 + n : nullptr;
          for (int jt = 0; jt < full_tiles; ++jt) {
            std::int16_t* dst = packed + (static_cast<std::size_t>(jt) * kp +
                                          static_cast<std::size_t>(p)) *
                                             kGemmTileCols * 2;
            const std::int16_t* s0 = brow0 + jt * kGemmTileCols;
            const std::int16_t* s1 =
                brow1 != nullptr ? brow1 + jt * kGemmTileCols : nullptr;
            for (int j = 0; j < kGemmTileCols; ++j) {
              dst[j * 2 + 0] = s0[j];
              dst[j * 2 + 1] = s1 != nullptr ? s1[j] : 0;
            }
          }
        }
      },
      [&](int t, int rows, int j0, const std::int16_t* bp) {
        const std::int16_t* apanel = a.data.data() + t * a_tile;
        const int i0 = t * kGemmTileRows;
        if (out.tile_in_sample(j0)) {
          std::int32_t* ct = c + out.at(i0, j0);
          if (rows == kGemmPairRows) {
            kernels.tile8x16_i16(apanel, apanel + a_tile, bp, kp, ct,
                                 out.plane, accumulate);
          } else {
            kernels.tile4x16_i16(apanel, bp, kp, ct, out.plane, accumulate);
          }
          return;
        }
        for (int r = 0; r < rows; r += kGemmTileRows) {
          out.straddled_tile(c, accumulate ? c : nullptr, i0 + r, j0,
                             [&](std::int32_t* tile) {
                               kernels.tile4x16_i16(
                                   apanel + r / kGemmTileRows * a_tile, bp,
                                   kp, tile, kGemmTileCols, accumulate);
                             });
        }
      },
      [&](int t, int j0, int mr, int nr, const std::int16_t*) {
        // Scalar dot-pairs reading B in place, with the micro-kernel's
        // exact wraparound semantics — ISA-independent, so edges never
        // perturb the bitwise-parity guarantee.
        const std::int16_t* apanel = a.data.data() + t * a_tile;
        for (int i = 0; i < mr; ++i) {
          for (int j = 0; j < nr; ++j) {
            std::int32_t& cij = c[out.at(t * kGemmTileRows + i, j0 + j)];
            std::uint32_t sum =
                accumulate ? static_cast<std::uint32_t>(cij) : 0u;
            const std::int16_t* bcol = b + j0 + j;
            for (int p = 0; p < kp; ++p) {
              const int a0 = apanel[p * kGemmTileRows * 2 + i * 2 + 0];
              const int a1 = apanel[p * kGemmTileRows * 2 + i * 2 + 1];
              const int b0 = bcol[static_cast<std::size_t>(2 * p) * n];
              const int b1 =
                  2 * p + 1 < k ? bcol[static_cast<std::size_t>(2 * p + 1) * n]
                                : 0;
              sum += static_cast<std::uint32_t>(a0 * b0) +
                     static_cast<std::uint32_t>(a1 * b1);
            }
            cij = static_cast<std::int32_t>(sum);
          }
        }
      });
}

GemmPeak measure_gemm_peak() {
  constexpr int m = 128, k = 576, n = 1024;
  constexpr int reps = 7;
  const double ops = 2.0 * m * k * n;
  // One warm-up call, then the median of `reps` timed calls.
  auto median_seconds = [](auto&& fn) {
    std::vector<double> s;
    for (int r = -1; r < reps; ++r) {
      util::Stopwatch watch;
      fn();
      if (r >= 0) s.push_back(watch.seconds());
    }
    std::sort(s.begin(), s.end());
    return s[s.size() / 2];
  };
  util::Rng rng(1);
  std::vector<float> a(static_cast<std::size_t>(m) * k);
  std::vector<float> b(static_cast<std::size_t>(k) * n);
  std::vector<float> c(static_cast<std::size_t>(m) * n);
  for (float& v : a) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  for (float& v : b) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  PackedGemmA packed;
  pack_gemm_a(a.data(), m, k, packed);
  const double f32 = median_seconds(
      [&] { gemm_tiled_pa(packed, b.data(), c.data(), n, false); });

  std::vector<std::int16_t> a16(a.size()), b16(b.size());
  std::vector<std::int32_t> c32(c.size());
  for (auto& v : a16) v = static_cast<std::int16_t>(rng.uniform_int(255)) - 127;
  for (auto& v : b16) v = static_cast<std::int16_t>(rng.uniform_int(255)) - 127;
  PackedGemmA16 packed16;
  pack_gemm_a_i16(a16.data(), m, k, packed16);
  const double i16 = median_seconds(
      [&] { gemm_i16_tiled_pa(packed16, b16.data(), c32.data(), n, false); });
  return {ops / f32 / 1e9, ops / i16 / 1e9};
}

}  // namespace odenet::core
