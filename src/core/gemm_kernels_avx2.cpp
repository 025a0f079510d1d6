// AVX2/FMA and AVX-512 GEMM micro-kernels — the ONLY translation unit
// built with vector codegen: -mavx2 -mfma for the whole file (CMake sets
// per-source flags), plus a per-function AVX-512 target on the row-paired
// 8 x 16 tiles. The rest of the library stays at the baseline ISA, so the
// runtime dispatch in gemm_kernels.cpp is what decides, not the loader.
// When the flags are absent (non-x86 target, -mno-avx2, or
// -DODENET_DISABLE_AVX2=ON) this file compiles to a stub that reports "no
// vector kernels" for both vector tiers.
#include "core/gemm_kernels.hpp"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include <cmath>
#include <cstring>

namespace odenet::core {
namespace {

/// 4x16 tile = 8 ymm accumulators; each packed B row is loaded once (two
/// 8-wide vectors) and combined with four broadcast A values via FMA. The
/// packed panels come from std::vector storage, so loads/stores are
/// unaligned. Summation order matches the scalar kernel per element up to
/// FMA contraction (one rounding instead of two per multiply-add).
void tile4x16_avx2(const float* apanel, const float* bpanel, int k, float* c,
                   std::size_t ldc, bool accumulate) {
  __m256 c00, c01, c10, c11, c20, c21, c30, c31;
  if (accumulate) {
    c00 = _mm256_loadu_ps(c + 0 * ldc);
    c01 = _mm256_loadu_ps(c + 0 * ldc + 8);
    c10 = _mm256_loadu_ps(c + 1 * ldc);
    c11 = _mm256_loadu_ps(c + 1 * ldc + 8);
    c20 = _mm256_loadu_ps(c + 2 * ldc);
    c21 = _mm256_loadu_ps(c + 2 * ldc + 8);
    c30 = _mm256_loadu_ps(c + 3 * ldc);
    c31 = _mm256_loadu_ps(c + 3 * ldc + 8);
  } else {
    c00 = c01 = c10 = c11 = c20 = c21 = c30 = c31 = _mm256_setzero_ps();
  }
  for (int p = 0; p < k; ++p) {
    const float* brow = bpanel + static_cast<std::size_t>(p) * kGemmTileCols;
    const __m256 b0 = _mm256_loadu_ps(brow);
    const __m256 b1 = _mm256_loadu_ps(brow + 8);
    const float* arow = apanel + static_cast<std::size_t>(p) * kGemmTileRows;
    const __m256 a0 = _mm256_broadcast_ss(arow + 0);
    c00 = _mm256_fmadd_ps(a0, b0, c00);
    c01 = _mm256_fmadd_ps(a0, b1, c01);
    const __m256 a1 = _mm256_broadcast_ss(arow + 1);
    c10 = _mm256_fmadd_ps(a1, b0, c10);
    c11 = _mm256_fmadd_ps(a1, b1, c11);
    const __m256 a2 = _mm256_broadcast_ss(arow + 2);
    c20 = _mm256_fmadd_ps(a2, b0, c20);
    c21 = _mm256_fmadd_ps(a2, b1, c21);
    const __m256 a3 = _mm256_broadcast_ss(arow + 3);
    c30 = _mm256_fmadd_ps(a3, b0, c30);
    c31 = _mm256_fmadd_ps(a3, b1, c31);
  }
  _mm256_storeu_ps(c + 0 * ldc, c00);
  _mm256_storeu_ps(c + 0 * ldc + 8, c01);
  _mm256_storeu_ps(c + 1 * ldc, c10);
  _mm256_storeu_ps(c + 1 * ldc + 8, c11);
  _mm256_storeu_ps(c + 2 * ldc, c20);
  _mm256_storeu_ps(c + 2 * ldc + 8, c21);
  _mm256_storeu_ps(c + 3 * ldc, c30);
  _mm256_storeu_ps(c + 3 * ldc + 8, c31);
}

/// Fused-epilogue twin: the tile4x16_avx2 accumulation body (FMA k-loop,
/// never accumulating), then the epilogue chain applied per ymm pair
/// before the single store. The affine and residual stages deliberately
/// use SEPARATE mul + add intrinsics — no _mm256_fmadd_ps — and this TU
/// is compiled with -ffp-contract=off so the compiler cannot re-fuse
/// them; that keeps every epilogue op one-rounding-per-operation, bitwise
/// equal to the scalar kernel and to the standalone elementwise kernels.
/// relu is max(t, 0) with the VALUE as the first operand: maxps returns
/// the second operand on NaN/equal, matching scalar `t > 0 ? t : 0`
/// (NaN -> 0, -0.0 -> +0.0).
void tile4x16_ep_avx2(const float* apanel, const float* bpanel, int k,
                      float* c, std::size_t ldc, const float* scale4,
                      const float* shift4, bool relu, const float* residual,
                      std::size_t ldr, float beta) {
  __m256 c00, c01, c10, c11, c20, c21, c30, c31;
  c00 = c01 = c10 = c11 = c20 = c21 = c30 = c31 = _mm256_setzero_ps();
  for (int p = 0; p < k; ++p) {
    const float* brow = bpanel + static_cast<std::size_t>(p) * kGemmTileCols;
    const __m256 b0 = _mm256_loadu_ps(brow);
    const __m256 b1 = _mm256_loadu_ps(brow + 8);
    const float* arow = apanel + static_cast<std::size_t>(p) * kGemmTileRows;
    const __m256 a0 = _mm256_broadcast_ss(arow + 0);
    c00 = _mm256_fmadd_ps(a0, b0, c00);
    c01 = _mm256_fmadd_ps(a0, b1, c01);
    const __m256 a1 = _mm256_broadcast_ss(arow + 1);
    c10 = _mm256_fmadd_ps(a1, b0, c10);
    c11 = _mm256_fmadd_ps(a1, b1, c11);
    const __m256 a2 = _mm256_broadcast_ss(arow + 2);
    c20 = _mm256_fmadd_ps(a2, b0, c20);
    c21 = _mm256_fmadd_ps(a2, b1, c21);
    const __m256 a3 = _mm256_broadcast_ss(arow + 3);
    c30 = _mm256_fmadd_ps(a3, b0, c30);
    c31 = _mm256_fmadd_ps(a3, b1, c31);
  }
  const __m256 zero = _mm256_setzero_ps();
  const __m256 beta_v = _mm256_set1_ps(beta);
  __m256 rows[4][2] = {{c00, c01}, {c10, c11}, {c20, c21}, {c30, c31}};
  for (int i = 0; i < kGemmTileRows; ++i) {
    __m256 t0 = rows[i][0];
    __m256 t1 = rows[i][1];
    if (scale4 != nullptr) {
      const __m256 s = _mm256_broadcast_ss(scale4 + i);
      t0 = _mm256_mul_ps(t0, s);
      t1 = _mm256_mul_ps(t1, s);
    }
    if (shift4 != nullptr) {
      const __m256 b = _mm256_broadcast_ss(shift4 + i);
      t0 = _mm256_add_ps(t0, b);
      t1 = _mm256_add_ps(t1, b);
    }
    if (relu) {
      t0 = _mm256_max_ps(t0, zero);
      t1 = _mm256_max_ps(t1, zero);
    }
    if (residual != nullptr) {
      const float* rrow = residual + static_cast<std::size_t>(i) * ldr;
      t0 = _mm256_add_ps(t0, _mm256_mul_ps(beta_v, _mm256_loadu_ps(rrow)));
      t1 = _mm256_add_ps(t1,
                         _mm256_mul_ps(beta_v, _mm256_loadu_ps(rrow + 8)));
    }
    _mm256_storeu_ps(c + static_cast<std::size_t>(i) * ldc, t0);
    _mm256_storeu_ps(c + static_cast<std::size_t>(i) * ldc + 8, t1);
  }
}

/// Integer 4x16 tile via `_mm256_madd_epi16`: each 32-bit broadcast of a
/// packed A pair against a [16][2] pair-interleaved B row yields, per
/// 32-bit lane, the dot of one k-pair for one output column — 8 int32
/// partial sums per madd, accumulated with wraparound `_mm256_add_epi32`.
/// Bitwise identical to the scalar kernel (uint32 wrap there), since
/// integer addition commutes mod 2^32.
void tile4x16_i16_avx2(const std::int16_t* apanel, const std::int16_t* bpanel,
                       int kpairs, std::int32_t* c, std::size_t ldc,
                       bool accumulate) {
  __m256i c00, c01, c10, c11, c20, c21, c30, c31;
  if (accumulate) {
    c00 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(c + 0 * ldc));
    c01 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(c + 0 * ldc + 8));
    c10 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(c + 1 * ldc));
    c11 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(c + 1 * ldc + 8));
    c20 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(c + 2 * ldc));
    c21 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(c + 2 * ldc + 8));
    c30 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(c + 3 * ldc));
    c31 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(c + 3 * ldc + 8));
  } else {
    c00 = c01 = c10 = c11 = c20 = c21 = c30 = c31 = _mm256_setzero_si256();
  }
  for (int p = 0; p < kpairs; ++p) {
    const std::int16_t* brow = bpanel + static_cast<std::size_t>(p) * 32;
    // [16][2] pair-interleaved: lane j of b0/b1 holds (B[2p][j], B[2p+1][j]).
    const __m256i b0 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(brow));
    const __m256i b1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(brow + 16));
    const std::int16_t* arow = apanel + static_cast<std::size_t>(p) * 8;
    std::int32_t pair;
    std::memcpy(&pair, arow + 0, sizeof(pair));
    __m256i av = _mm256_set1_epi32(pair);
    c00 = _mm256_add_epi32(c00, _mm256_madd_epi16(av, b0));
    c01 = _mm256_add_epi32(c01, _mm256_madd_epi16(av, b1));
    std::memcpy(&pair, arow + 2, sizeof(pair));
    av = _mm256_set1_epi32(pair);
    c10 = _mm256_add_epi32(c10, _mm256_madd_epi16(av, b0));
    c11 = _mm256_add_epi32(c11, _mm256_madd_epi16(av, b1));
    std::memcpy(&pair, arow + 4, sizeof(pair));
    av = _mm256_set1_epi32(pair);
    c20 = _mm256_add_epi32(c20, _mm256_madd_epi16(av, b0));
    c21 = _mm256_add_epi32(c21, _mm256_madd_epi16(av, b1));
    std::memcpy(&pair, arow + 6, sizeof(pair));
    av = _mm256_set1_epi32(pair);
    c30 = _mm256_add_epi32(c30, _mm256_madd_epi16(av, b0));
    c31 = _mm256_add_epi32(c31, _mm256_madd_epi16(av, b1));
  }
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(c + 0 * ldc), c00);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(c + 0 * ldc + 8), c01);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(c + 1 * ldc), c10);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(c + 1 * ldc + 8), c11);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(c + 2 * ldc), c20);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(c + 2 * ldc + 8), c21);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(c + 3 * ldc), c30);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(c + 3 * ldc + 8), c31);
}

/// Exact integer 4x8 tile via `_mm256_mul_epi32`, which multiplies the
/// low (signed) dword of each qword lane into an exact int64. One load
/// brings a B row's 8 columns: the even columns already sit in the low
/// dwords and a 32-bit qword shift brings the odd ones down, so each row
/// keeps an even-column and an odd-column accumulator (8 ymm in all),
/// interleaved back into column order once, at the store.
/// `_mm256_add_epi64` wraps mod 2^64 like the scalar kernel's uint64 sums.
void tile4x8_i32_avx2(const std::int32_t* apanel, const std::int32_t* bpanel,
                      int k, std::int64_t* c, std::size_t ldc) {
  __m256i e0, o0, e1, o1, e2, o2, e3, o3;
  e0 = o0 = e1 = o1 = e2 = o2 = e3 = o3 = _mm256_setzero_si256();
  for (int p = 0; p < k; ++p) {
    const __m256i be = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(
        bpanel + static_cast<std::size_t>(p) * kGemmTileColsI32));
    const __m256i bo = _mm256_srli_epi64(be, 32);
    const std::int32_t* arow =
        apanel + static_cast<std::size_t>(p) * kGemmTileRows;
    __m256i av = _mm256_set1_epi32(arow[0]);
    e0 = _mm256_add_epi64(e0, _mm256_mul_epi32(av, be));
    o0 = _mm256_add_epi64(o0, _mm256_mul_epi32(av, bo));
    av = _mm256_set1_epi32(arow[1]);
    e1 = _mm256_add_epi64(e1, _mm256_mul_epi32(av, be));
    o1 = _mm256_add_epi64(o1, _mm256_mul_epi32(av, bo));
    av = _mm256_set1_epi32(arow[2]);
    e2 = _mm256_add_epi64(e2, _mm256_mul_epi32(av, be));
    o2 = _mm256_add_epi64(o2, _mm256_mul_epi32(av, bo));
    av = _mm256_set1_epi32(arow[3]);
    e3 = _mm256_add_epi64(e3, _mm256_mul_epi32(av, be));
    o3 = _mm256_add_epi64(o3, _mm256_mul_epi32(av, bo));
  }
  const __m256i rows[4][2] = {{e0, o0}, {e1, o1}, {e2, o2}, {e3, o3}};
  for (int i = 0; i < kGemmTileRows; ++i) {
    // even = (c0 c2 | c4 c6), odd = (c1 c3 | c5 c7) per 128-bit half.
    const __m256i lo = _mm256_unpacklo_epi64(rows[i][0], rows[i][1]);
    const __m256i hi = _mm256_unpackhi_epi64(rows[i][0], rows[i][1]);
    std::int64_t* crow = c + static_cast<std::size_t>(i) * ldc;
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(crow),
                        _mm256_permute2x128_si256(lo, hi, 0x20));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(crow + 4),
                        _mm256_permute2x128_si256(lo, hi, 0x31));
  }
}

// The AVX-512 tier's row-paired tiles. One zmm holds a whole 16-column
// row, so the 8 x 16 tile is 8 zmm accumulators fed by one B load per k
// (two ymm loads fed 4 rows on AVX2). Per element the arithmetic is the
// AVX2 tile's — one FMA per k in ascending order, the same epilogue op
// sequence, the same wraparound int32 sums — so the outputs are bitwise
// equal to two tile4x16_avx2 / tile4x16_ep_avx2 / tile4x16_i16_avx2
// calls. The target attribute keeps AVX-512 codegen inside these
// functions; they run only when the CPU reports every listed feature.
#define ODENET_AVX512_TARGET \
  __attribute__((target("avx512f,avx512bw,avx512vnni")))

ODENET_AVX512_TARGET
void tile8x16_avx512(const float* apanel0, const float* apanel1,
                     const float* bpanel, int k, float* c, std::size_t ldc,
                     bool accumulate) {
  __m512 c0, c1, c2, c3, c4, c5, c6, c7;
  if (accumulate) {
    c0 = _mm512_loadu_ps(c + 0 * ldc);
    c1 = _mm512_loadu_ps(c + 1 * ldc);
    c2 = _mm512_loadu_ps(c + 2 * ldc);
    c3 = _mm512_loadu_ps(c + 3 * ldc);
    c4 = _mm512_loadu_ps(c + 4 * ldc);
    c5 = _mm512_loadu_ps(c + 5 * ldc);
    c6 = _mm512_loadu_ps(c + 6 * ldc);
    c7 = _mm512_loadu_ps(c + 7 * ldc);
  } else {
    c0 = c1 = c2 = c3 = c4 = c5 = c6 = c7 = _mm512_setzero_ps();
  }
  for (int p = 0; p < k; ++p) {
    const __m512 b =
        _mm512_loadu_ps(bpanel + static_cast<std::size_t>(p) * kGemmTileCols);
    const float* x = apanel0 + static_cast<std::size_t>(p) * kGemmTileRows;
    const float* y = apanel1 + static_cast<std::size_t>(p) * kGemmTileRows;
    c0 = _mm512_fmadd_ps(_mm512_set1_ps(x[0]), b, c0);
    c1 = _mm512_fmadd_ps(_mm512_set1_ps(x[1]), b, c1);
    c2 = _mm512_fmadd_ps(_mm512_set1_ps(x[2]), b, c2);
    c3 = _mm512_fmadd_ps(_mm512_set1_ps(x[3]), b, c3);
    c4 = _mm512_fmadd_ps(_mm512_set1_ps(y[0]), b, c4);
    c5 = _mm512_fmadd_ps(_mm512_set1_ps(y[1]), b, c5);
    c6 = _mm512_fmadd_ps(_mm512_set1_ps(y[2]), b, c6);
    c7 = _mm512_fmadd_ps(_mm512_set1_ps(y[3]), b, c7);
  }
  _mm512_storeu_ps(c + 0 * ldc, c0);
  _mm512_storeu_ps(c + 1 * ldc, c1);
  _mm512_storeu_ps(c + 2 * ldc, c2);
  _mm512_storeu_ps(c + 3 * ldc, c3);
  _mm512_storeu_ps(c + 4 * ldc, c4);
  _mm512_storeu_ps(c + 5 * ldc, c5);
  _mm512_storeu_ps(c + 6 * ldc, c6);
  _mm512_storeu_ps(c + 7 * ldc, c7);
}

/// tile8x16_avx512's k loop (never accumulating), then tile4x16_ep_avx2's
/// epilogue chain per zmm row: separate mul and add (the TU's
/// -ffp-contract=off keeps them two roundings), relu as max(t, 0) with
/// the value first (NaN -> 0, -0.0 -> +0.0), then t + beta * r.
ODENET_AVX512_TARGET
void tile8x16_ep_avx512(const float* apanel0, const float* apanel1,
                        const float* bpanel, int k, float* c, std::size_t ldc,
                        const float* scale8, const float* shift8, bool relu,
                        const float* residual, std::size_t ldr, float beta) {
  __m512 c0, c1, c2, c3, c4, c5, c6, c7;
  c0 = c1 = c2 = c3 = c4 = c5 = c6 = c7 = _mm512_setzero_ps();
  for (int p = 0; p < k; ++p) {
    const __m512 b =
        _mm512_loadu_ps(bpanel + static_cast<std::size_t>(p) * kGemmTileCols);
    const float* x = apanel0 + static_cast<std::size_t>(p) * kGemmTileRows;
    const float* y = apanel1 + static_cast<std::size_t>(p) * kGemmTileRows;
    c0 = _mm512_fmadd_ps(_mm512_set1_ps(x[0]), b, c0);
    c1 = _mm512_fmadd_ps(_mm512_set1_ps(x[1]), b, c1);
    c2 = _mm512_fmadd_ps(_mm512_set1_ps(x[2]), b, c2);
    c3 = _mm512_fmadd_ps(_mm512_set1_ps(x[3]), b, c3);
    c4 = _mm512_fmadd_ps(_mm512_set1_ps(y[0]), b, c4);
    c5 = _mm512_fmadd_ps(_mm512_set1_ps(y[1]), b, c5);
    c6 = _mm512_fmadd_ps(_mm512_set1_ps(y[2]), b, c6);
    c7 = _mm512_fmadd_ps(_mm512_set1_ps(y[3]), b, c7);
  }
  const __m512 zero = _mm512_setzero_ps();
  const __m512 beta_v = _mm512_set1_ps(beta);
  const __m512 rows[kGemmPairRows] = {c0, c1, c2, c3, c4, c5, c6, c7};
  for (int i = 0; i < kGemmPairRows; ++i) {
    __m512 t = rows[i];
    if (scale8 != nullptr) t = _mm512_mul_ps(t, _mm512_set1_ps(scale8[i]));
    if (shift8 != nullptr) t = _mm512_add_ps(t, _mm512_set1_ps(shift8[i]));
    // All lanes kept: _mm512_max_ps's undefined pass-through trips GCC
    // 12's -Wmaybe-uninitialized; the zeroing form is the same vmaxps.
    if (relu) t = _mm512_maskz_max_ps(0xffff, t, zero);
    if (residual != nullptr) {
      const float* rrow = residual + static_cast<std::size_t>(i) * ldr;
      t = _mm512_add_ps(t, _mm512_mul_ps(beta_v, _mm512_loadu_ps(rrow)));
    }
    _mm512_storeu_ps(c + static_cast<std::size_t>(i) * ldc, t);
  }
}

/// A row's (even, odd) k-pair of a pair-interleaved A panel, broadcast to
/// every 32-bit lane.
ODENET_AVX512_TARGET
inline __m512i broadcast_pair(const std::int16_t* ap) {
  std::int32_t v;
  std::memcpy(&v, ap, sizeof(v));
  return _mm512_set1_epi32(v);
}

/// Integer 8x16 tile via `vpdpwssd`: per 32-bit lane, C += a.lo * b.lo +
/// a.hi * b.hi with wraparound — the madd + add of tile4x16_i16_avx2 in
/// one instruction, on one zmm per pair-interleaved [16][2] B row.
ODENET_AVX512_TARGET
void tile8x16_i16_avx512(const std::int16_t* apanel0,
                         const std::int16_t* apanel1,
                         const std::int16_t* bpanel, int kpairs,
                         std::int32_t* c, std::size_t ldc, bool accumulate) {
  __m512i c0, c1, c2, c3, c4, c5, c6, c7;
  if (accumulate) {
    c0 = _mm512_loadu_si512(c + 0 * ldc);
    c1 = _mm512_loadu_si512(c + 1 * ldc);
    c2 = _mm512_loadu_si512(c + 2 * ldc);
    c3 = _mm512_loadu_si512(c + 3 * ldc);
    c4 = _mm512_loadu_si512(c + 4 * ldc);
    c5 = _mm512_loadu_si512(c + 5 * ldc);
    c6 = _mm512_loadu_si512(c + 6 * ldc);
    c7 = _mm512_loadu_si512(c + 7 * ldc);
  } else {
    c0 = c1 = c2 = c3 = c4 = c5 = c6 = c7 = _mm512_setzero_si512();
  }
  for (int p = 0; p < kpairs; ++p) {
    const __m512i b =
        _mm512_loadu_si512(bpanel + static_cast<std::size_t>(p) * 32);
    const std::int16_t* x = apanel0 + static_cast<std::size_t>(p) * 8;
    const std::int16_t* y = apanel1 + static_cast<std::size_t>(p) * 8;
    c0 = _mm512_dpwssd_epi32(c0, broadcast_pair(x + 0), b);
    c1 = _mm512_dpwssd_epi32(c1, broadcast_pair(x + 2), b);
    c2 = _mm512_dpwssd_epi32(c2, broadcast_pair(x + 4), b);
    c3 = _mm512_dpwssd_epi32(c3, broadcast_pair(x + 6), b);
    c4 = _mm512_dpwssd_epi32(c4, broadcast_pair(y + 0), b);
    c5 = _mm512_dpwssd_epi32(c5, broadcast_pair(y + 2), b);
    c6 = _mm512_dpwssd_epi32(c6, broadcast_pair(y + 4), b);
    c7 = _mm512_dpwssd_epi32(c7, broadcast_pair(y + 6), b);
  }
  _mm512_storeu_si512(c + 0 * ldc, c0);
  _mm512_storeu_si512(c + 1 * ldc, c1);
  _mm512_storeu_si512(c + 2 * ldc, c2);
  _mm512_storeu_si512(c + 3 * ldc, c3);
  _mm512_storeu_si512(c + 4 * ldc, c4);
  _mm512_storeu_si512(c + 5 * ldc, c5);
  _mm512_storeu_si512(c + 6 * ldc, c6);
  _mm512_storeu_si512(c + 7 * ldc, c7);
}

#undef ODENET_AVX512_TARGET

/// Vector twin of the scalar quantize_raw_double: 4 doubles at a time.
/// round-half-away-from-zero = trunc(s + copysign(0.5, s)); NaN lanes are
/// zeroed via an ordered-compare mask; the final +0.0 normalizes -0.0 so
/// memcmp parity with the scalar kernel holds for negatives rounding to
/// zero. Saturation clamps in the double domain (no UB cvt).
inline __m256d quantize_raw_pd(__m256d s, __m256d lo, __m256d hi) {
  const __m256d signmask = _mm256_set1_pd(-0.0);
  const __m256d half =
      _mm256_or_pd(_mm256_and_pd(s, signmask), _mm256_set1_pd(0.5));
  __m256d r = _mm256_round_pd(_mm256_add_pd(s, half),
                              _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC);
  r = _mm256_max_pd(r, lo);
  r = _mm256_min_pd(r, hi);
  r = _mm256_and_pd(r, _mm256_cmp_pd(s, s, _CMP_ORD_Q));  // NaN -> 0
  return _mm256_add_pd(r, _mm256_setzero_pd());           // -0.0 -> +0.0
}

/// Scalar tail with the exact double-domain operation sequence of the
/// vector path (and of the scalar TU's quantize_raw_double).
inline double quantize_raw_tail(float v, double one, double lo, double hi) {
  const double scaled = static_cast<double>(v) * one;
  if (scaled != scaled) return 0.0;
  double r = std::trunc(scaled >= 0.0 ? scaled + 0.5 : scaled - 0.5);
  if (r > hi) r = hi;
  if (r < lo) r = lo;
  return r + 0.0;
}

void qdq_f32_avx2(float* data, std::size_t n, int frac_bits) {
  const double one_d = static_cast<double>(std::int64_t{1} << frac_bits);
  const double inv_d = 1.0 / one_d;
  const __m256d one = _mm256_set1_pd(one_d);
  const __m256d inv = _mm256_set1_pd(inv_d);
  const __m256d lo = _mm256_set1_pd(-2147483648.0);
  const __m256d hi = _mm256_set1_pd(2147483647.0);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d s =
        _mm256_mul_pd(_mm256_cvtps_pd(_mm_loadu_ps(data + i)), one);
    const __m256d r = _mm256_mul_pd(
        quantize_raw_pd(s, lo, hi), inv);
    _mm_storeu_ps(data + i, _mm256_cvtpd_ps(r));
  }
  for (; i < n; ++i) {
    data[i] = static_cast<float>(
        quantize_raw_tail(data[i], one_d, -2147483648.0, 2147483647.0) *
        inv_d);
  }
}

/// 8 floats from src quantized to 8 int16 raws at the scale `one`.
inline __m128i quant8_i16(const float* src, __m256d one) {
  const __m256d lo = _mm256_set1_pd(-32768.0);
  const __m256d hi = _mm256_set1_pd(32767.0);
  const __m256d s0 = _mm256_mul_pd(_mm256_cvtps_pd(_mm_loadu_ps(src)), one);
  const __m256d s1 =
      _mm256_mul_pd(_mm256_cvtps_pd(_mm_loadu_ps(src + 4)), one);
  // Values are already clamped to ±int16 in the double domain, so the
  // int32 cvt is exact and the saturating pack never actually saturates.
  const __m128i q0 = _mm256_cvttpd_epi32(quantize_raw_pd(s0, lo, hi));
  const __m128i q1 = _mm256_cvttpd_epi32(quantize_raw_pd(s1, lo, hi));
  return _mm_packs_epi32(q0, q1);
}

inline std::int16_t quant_i16_tail(float v, double one) {
  return static_cast<std::int16_t>(
      quantize_raw_tail(v, one, -32768.0, 32767.0));
}

void quant_f32_i16_avx2(const float* src, std::int16_t* dst, std::size_t n,
                        int frac_bits) {
  const double one_d = static_cast<double>(std::int64_t{1} << frac_bits);
  const __m256d one = _mm256_set1_pd(one_d);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i),
                     quant8_i16(src + i, one));
  }
  for (; i < n; ++i) dst[i] = quant_i16_tail(src[i], one_d);
}

/// quant_f32_i16_avx2 on both spans, their 8-lane results interleaved
/// into 8 pairs by one unpack each for the low and high 4.
void quant_f32_i16_pair_avx2(const float* lo, const float* hi, I16Pair* dst,
                             std::size_t n, int frac_bits) {
  const double one_d = static_cast<double>(std::int64_t{1} << frac_bits);
  const __m256d one = _mm256_set1_pd(one_d);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m128i a = quant8_i16(lo + i, one);
    const __m128i b =
        hi != nullptr ? quant8_i16(hi + i, one) : _mm_setzero_si128();
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i),
                     _mm_unpacklo_epi16(a, b));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i + 4),
                     _mm_unpackhi_epi16(a, b));
  }
  for (; i < n; ++i) {
    dst[i].lo = quant_i16_tail(lo[i], one_d);
    dst[i].hi = hi != nullptr ? quant_i16_tail(hi[i], one_d) : std::int16_t{0};
  }
}

void requant_i32_avx2(const std::int32_t* acc, float* dst, std::size_t n,
                      int shift, int frac_bits) {
  // dst = round_half_away(acc * 2^-shift) * 2^-frac. Every step is exact
  // in double (int32 + the 0.5 half-step fit a 53-bit mantissa, and the
  // scale factors are powers of two), so floor((a + half) >> shift) and
  // trunc(a*2^-shift + 0.5) are the SAME integer — this is bitwise equal
  // to the int64 scalar kernel, vectorized 4 doubles at a time.
  const double inv_shift = 1.0 / static_cast<double>(std::int64_t{1} << shift);
  const double inv_frac =
      1.0 / static_cast<double>(std::int64_t{1} << frac_bits);
  const __m256d vshift = _mm256_set1_pd(inv_shift);
  const __m256d vfrac = _mm256_set1_pd(inv_frac);
  const __m256d sign_mask = _mm256_set1_pd(-0.0);
  const __m256d half_mag = _mm256_set1_pd(0.5);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i a =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc + i));
    const __m256d s0 =
        _mm256_mul_pd(_mm256_cvtepi32_pd(_mm256_castsi256_si128(a)), vshift);
    const __m256d s1 = _mm256_mul_pd(
        _mm256_cvtepi32_pd(_mm256_extracti128_si256(a, 1)), vshift);
    const __m256d r0 = _mm256_round_pd(
        _mm256_add_pd(s0, _mm256_or_pd(_mm256_and_pd(s0, sign_mask),
                                       half_mag)),
        _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC);
    const __m256d r1 = _mm256_round_pd(
        _mm256_add_pd(s1, _mm256_or_pd(_mm256_and_pd(s1, sign_mask),
                                       half_mag)),
        _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC);
    // r * 2^-frac is exact; the +0.0 add normalizes the -0.0 a small
    // negative accumulator truncates to (the int64 scalar yields +0.0).
    const __m256d z = _mm256_setzero_pd();
    _mm_storeu_ps(dst + i, _mm256_cvtpd_ps(_mm256_add_pd(
                               _mm256_mul_pd(r0, vfrac), z)));
    _mm_storeu_ps(dst + i + 4, _mm256_cvtpd_ps(_mm256_add_pd(
                                   _mm256_mul_pd(r1, vfrac), z)));
  }
  const std::int64_t half =
      shift > 0 ? (std::int64_t{1} << (shift - 1)) : 0;
  for (; i < n; ++i) {
    const std::int64_t a = acc[i];
    const std::int64_t r = shift == 0 ? a
                           : a >= 0  ? (a + half) >> shift
                                     : -((-a + half) >> shift);
    dst[i] = static_cast<float>(static_cast<double>(r) * inv_frac);
  }
}

float max_abs_f32_avx2(const float* src, std::size_t n) {
  const __m256 abs_mask =
      _mm256_castsi256_ps(_mm256_set1_epi32(0x7fffffff));
  __m256 m = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    m = _mm256_max_ps(m, _mm256_and_ps(_mm256_loadu_ps(src + i), abs_mask));
  }
  alignas(32) float lanes[8];
  _mm256_store_ps(lanes, m);
  float best = 0.0f;
  for (float v : lanes) best = std::max(best, v);
  for (; i < n; ++i) best = std::max(best, std::fabs(src[i]));
  return best;
}

// Elementwise family — 8-wide bodies plus a scalar tail with the exact
// per-element operation sequence. Separate mul/add (no FMA, and
// -ffp-contract=off forbids re-fusing), so each kernel is bitwise equal
// to its scalar twin.

void relu_f32_avx2(const float* src, float* dst, std::size_t n) {
  const __m256 zero = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(dst + i, _mm256_max_ps(_mm256_loadu_ps(src + i), zero));
  }
  for (; i < n; ++i) {
    const float t = src[i];
    dst[i] = t > 0.0f ? t : 0.0f;
  }
}

void axpy_f32_avx2(float a, const float* x, float* y, std::size_t n) {
  const __m256 av = _mm256_set1_ps(a);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 p = _mm256_mul_ps(av, _mm256_loadu_ps(x + i));
    _mm256_storeu_ps(y + i, _mm256_add_ps(_mm256_loadu_ps(y + i), p));
  }
  for (; i < n; ++i) y[i] = y[i] + a * x[i];
}

void mul_f32_avx2(const float* a, const float* b, float* dst, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        dst + i, _mm256_mul_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i)));
  }
  for (; i < n; ++i) dst[i] = a[i] * b[i];
}

void scale_f32_avx2(float* x, std::size_t n, float a) {
  const __m256 av = _mm256_set1_ps(a);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(x + i, _mm256_mul_ps(_mm256_loadu_ps(x + i), av));
  }
  for (; i < n; ++i) x[i] = x[i] * a;
}

void affine_f32_avx2(const float* src, float* dst, std::size_t n, float scale,
                     float shift) {
  const __m256 sv = _mm256_set1_ps(scale);
  const __m256 bv = _mm256_set1_ps(shift);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 t = _mm256_mul_ps(_mm256_loadu_ps(src + i), sv);
    _mm256_storeu_ps(dst + i, _mm256_add_ps(t, bv));
  }
  for (; i < n; ++i) dst[i] = src[i] * scale + shift;
}

constexpr GemmKernels kAvx2Kernels{
    tile4x16_avx2,
    detail::paired_tile<tile4x16_avx2>,
    tile4x16_i16_avx2,
    detail::paired_tile_i16<tile4x16_i16_avx2>,
    tile4x8_i32_avx2,
    qdq_f32_avx2,
    quant_f32_i16_avx2,
    quant_f32_i16_pair_avx2,
    requant_i32_avx2,
    max_abs_f32_avx2,
    tile4x16_ep_avx2,
    detail::paired_tile_ep<tile4x16_ep_avx2>,
    relu_f32_avx2,
    axpy_f32_avx2,
    mul_f32_avx2,
    scale_f32_avx2,
    affine_f32_avx2,
    "avx2+fma"};

// The AVX-512 tier: the AVX2 table with the row-paired tiles swapped in.
constexpr GemmKernels kAvx512Kernels = [] {
  GemmKernels k = kAvx2Kernels;
  k.tile8x16 = tile8x16_avx512;
  k.tile8x16_i16 = tile8x16_i16_avx512;
  k.tile8x16_ep = tile8x16_ep_avx512;
  k.isa = "avx512+vnni";
  return k;
}();

}  // namespace

const GemmKernels* gemm_avx2_kernels_impl() { return &kAvx2Kernels; }
const GemmKernels* gemm_avx512_kernels_impl() { return &kAvx512Kernels; }

}  // namespace odenet::core

#else  // !(__AVX2__ && __FMA__)

namespace odenet::core {

const GemmKernels* gemm_avx2_kernels_impl() { return nullptr; }
const GemmKernels* gemm_avx512_kernels_impl() { return nullptr; }

}  // namespace odenet::core

#endif
