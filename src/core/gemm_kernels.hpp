// GEMM micro-kernel dispatch: the inner kernels every tiled GEMM is built
// from, in up to three tiers — scalar, AVX2/FMA and AVX-512 — selected
// once at runtime. A tier is the kernel table active_gemm_kernels()
// returns.
//
// The tile kernels operate on PACKED panels (PackedGemmA in im2col.hpp,
// B packed per column panel by each GEMM) so every tier shares one data
// layout and one outer loop nest — the tiled-GEMM driver in
// gemm_driver.hpp, which alone sets the panel width and the thread split;
// only the innermost arithmetic differs. The driver hands each pair of
// full 4-row tiles to the row-paired 8 x 16 entries (tile8x16,
// tile8x16_ep, tile8x16_i16): the AVX-512 tier computes both row tiles in
// one pass over the B micro-panel (8 zmm accumulators, `vfmadd` per k or
// `vpdpwssd` per k-pair), the scalar and AVX2 tiers as two 4 x 16 calls.
// The AVX-512 tier reuses the AVX2 kernels for everything else. Per
// output element the arithmetic is the same in both vector tiers (one
// fused multiply-add per k in ascending order, the same two-rounding
// epilogue, exact int32 wraparound), so their outputs are bitwise equal;
// the scalar tier rounds each multiply-add twice.
//
// The scalar kernels are the portable fallback — non-x86 targets,
// -mno-avx2 builds (cmake -DODENET_DISABLE_AVX2=ON stubs the vector
// translation unit, AVX-512 kernels included) and hosts without AVX2/FMA
// all run them, producing the same ascending-k summation order as the
// pre-SIMD code.
//
// Knobs:
//  * env ODENET_SIMD=0|off|scalar — disable the vector tiers at startup;
//  * gemm_cap_isa() — per-process cap on the tier, for benches and tests
//    (the scalar A/B rows, the ISA-parity suites);
//  * gemm_set_parallel_min_flops() — the flop count below which a GEMM
//    runs sequentially instead of fanning out on the thread pool (tests
//    force it down so even small shapes take the split);
//  * set_kernel_pool() — substitute the pool the lowering/GEMM/BN kernels
//    fan out on (nullptr = the global pool); used by the thread-count
//    invariance tests and the bench's thread-scaling rows.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace odenet::util {
class ThreadPool;
}

namespace odenet::core {

/// Micro-kernel geometry shared by every tiled GEMM: MR rows of A against
/// an NR-wide column strip of B, the MR x NR output tile held in registers
/// across the whole k loop. 4 x 16 floats = 8 AVX ymm accumulators (or 16
/// SSE xmm) — small enough to stay resident, big enough that each loaded
/// B row is reused MR times.
inline constexpr int kGemmTileRows = 4;
inline constexpr int kGemmTileCols = 16;
/// Rows of the row-paired tile: two consecutive 4-row panels of a packed
/// A against one B micro-panel.
inline constexpr int kGemmPairRows = 2 * kGemmTileRows;

/// Full-tile micro-kernel: C[4][16] (+)= sum_p Apanel[p][4] * Bpanel[p][16].
/// `apanel` is a packed [k][4] row panel, `bpanel` a packed [k][16] column
/// panel (both contiguous); C is row-major with leading dimension `ldc`.
using GemmTile4x16Fn = void (*)(const float* apanel, const float* bpanel,
                                int k, float* c, std::size_t ldc,
                                bool accumulate);

/// Row-paired full tile: C[8][16] (+)= the 4x16 tile of `apanel0` in rows
/// 0..3 and that of `apanel1` in rows 4..7, both over the same `bpanel`.
/// The two [k][4] panels are any two row panels of one packed A (the
/// driver passes consecutive ones). Bitwise equal to two GemmTile4x16Fn
/// calls of the same tier.
using GemmTile8x16Fn = void (*)(const float* apanel0, const float* apanel1,
                                const float* bpanel, int k, float* c,
                                std::size_t ldc, bool accumulate);

/// Integer full-tile micro-kernel: C[4][16] (+)= A16 * B16 with int16
/// operands accumulated into int32. k is processed in PAIRS (the
/// `_mm256_madd_epi16` dot-pair shape): `apanel` is a packed
/// [kpairs][4][2] row panel (see PackedGemmA16), `bpanel` a packed
/// [kpairs][16][2] column panel (entry [p][j][s] = B[2p+s][j], filled per
/// column panel by gemm_i16_tiled_pa), both pair-interleaved and
/// zero-padded to an even k. Accumulation is two's-complement wraparound
/// (never saturating, never UB): integer addition is associative mod 2^32,
/// so every ISA, k-order and thread split produces bitwise-identical C.
/// Callers get *mathematically* exact sums by bounding |sum| < 2^31 — the
/// fixed backend's per-conv weight-scale selection guarantees it.
using GemmTileI16Fn = void (*)(const std::int16_t* apanel,
                               const std::int16_t* bpanel, int kpairs,
                               std::int32_t* c, std::size_t ldc,
                               bool accumulate);

/// Row-paired integer tile: C[8][16] (+)= the GemmTileI16Fn tiles of
/// `apanel0` (rows 0..3) and `apanel1` (rows 4..7) over one `bpanel`.
/// Same wraparound contract, so bitwise equal to two GemmTileI16Fn calls
/// on every tier.
using GemmTile8x16I16Fn = void (*)(const std::int16_t* apanel0,
                                   const std::int16_t* apanel1,
                                   const std::int16_t* bpanel, int kpairs,
                                   std::int32_t* c, std::size_t ldc,
                                   bool accumulate);

/// Column width of the exact integer tile: int64 lanes are twice as wide
/// as f32 ones, so the 8 ymm accumulators of the 4x16 f32 tile hold a 4x8
/// int64 tile (a 4x16 one would need all 16 registers).
inline constexpr int kGemmTileColsI32 = 8;

/// Exact integer full-tile micro-kernel: C[4][8] = A32 * B32 with int32
/// operands and int64 results, k >= 1. `apanel` is a packed [k][4] row
/// panel (PackedGemmA's layout), `bpanel` a packed [k][8] column panel,
/// C row-major with leading dimension `ldc`; always overwrites. Every
/// int32 x int32 product is exact in int64 and the sums wrap mod 2^64
/// (never UB), so every ISA, k-order and tiling gives bitwise-identical C.
/// The FPGA simulator's Q20 convolutions run on it.
using GemmTileI32Fn = void (*)(const std::int32_t* apanel,
                               const std::int32_t* bpanel, int k,
                               std::int64_t* c, std::size_t ldc);

/// Saturating Q(frac_bits) quantize/dequantize round trip over a float
/// span, elementwise — fixed::qdq_inplace's inner loop, lifted into the
/// kernel table so the SIMD TU can vectorize it. Bitwise identical to
/// fixed::qdq_value per element (NaN -> 0, round half away from zero,
/// clamp in the double domain).
using QdqF32Fn = void (*)(float* data, std::size_t n, int frac_bits);

/// Saturating quantize of a float span to int16 raw values at
/// Q(frac_bits) — the activation-side entry into the integer GEMM. Same
/// rounding/NaN/saturation semantics as QdqF32Fn, bounds ±int16.
using QuantF32ToI16Fn = void (*)(const float* src, std::int16_t* dst,
                                 std::size_t n, int frac_bits);

/// One pixel of a channel-pair plane: channels 2q (lo) and 2q + 1 (hi) of
/// one pixel as the two int16 lanes of one 32-bit word — the (even, odd)
/// k-pair layout of the integer micro-kernels' B rows, so 16 consecutive
/// pixels of a pair plane are one 64-byte [16][2] micro-panel row.
struct I16Pair {
  std::int16_t lo;
  std::int16_t hi;
};

/// QuantF32ToI16Fn over two float spans into the lanes of one pair span:
/// dst[i] = {q(lo[i]), q(hi[i])}, the hi lane 0 when hi is nullptr (an
/// absent channel). Each lane is bitwise equal to QuantF32ToI16Fn over
/// its span.
using QuantF32ToI16PairFn = void (*)(const float* lo, const float* hi,
                                     I16Pair* dst, std::size_t n,
                                     int frac_bits);

/// Largest |src[i]| over n floats (0 for n == 0). NaNs propagate as "not
/// larger", inf is returned as-is; exact max is associative, so any chunk
/// split or ISA gives the identical result.
using MaxAbsF32Fn = float (*)(const float* src, std::size_t n);

/// Int32 accumulators -> float Q(frac_bits) values via one rounding shift:
/// dst[i] = ((acc[i] +- half) >> shift) * 2^-frac_bits with round half
/// away from zero (Fixed::operator* semantics). All carriers are exact in
/// double, so every ISA variant is bitwise identical to the int64 scalar.
using RequantI32Fn = void (*)(const std::int32_t* acc, float* dst,
                              std::size_t n, int shift, int frac_bits);

/// Full-tile micro-kernel with a fused EPILOGUE: the 4x16 accumulator tile
/// is lowered exactly like GemmTile4x16Fn, then — while still in registers
/// — transformed per element in this fixed order before the single store:
///   t = acc * scale4[i] + shift4[i]   (skipped per-part when null)
///   t = max(t, 0)                     (when relu; NaN -> 0, -0 -> +0)
///   t = t + beta * residual[i*ldr+j]  (when residual != nullptr)
/// scale4/shift4 are the 4 per-row (out-channel) coefficients of THIS
/// tile; residual points at the tile's own 4x16 window (leading dimension
/// ldr) and may alias c — each element is read before its store, and a
/// tile only touches its own window, so in-place residual accumulation
/// (z += h*f(z)) is safe under any thread split.
///
/// Bitwise contract: the epilogue arithmetic uses NO fused multiply-add on
/// any tier (the vector TU is built with -ffp-contract=off), so
/// fused-epilogue output is bitwise identical to running the plain GEMM
/// followed by the elementwise kernels below, on every tier.
using GemmTileEp4x16Fn = void (*)(const float* apanel, const float* bpanel,
                                  int k, float* c, std::size_t ldc,
                                  const float* scale4, const float* shift4,
                                  bool relu, const float* residual,
                                  std::size_t ldr, float beta);

/// Row-paired fused-epilogue tile: GemmTile8x16Fn's accumulation, then
/// GemmTileEp4x16Fn's epilogue chain with the 8 per-row coefficients
/// scale8/shift8 and an 8 x 16 residual window. Bitwise equal to two
/// GemmTileEp4x16Fn calls of the same tier.
using GemmTileEp8x16Fn = void (*)(const float* apanel0, const float* apanel1,
                                  const float* bpanel, int k, float* c,
                                  std::size_t ldc, const float* scale8,
                                  const float* shift8, bool relu,
                                  const float* residual, std::size_t ldr,
                                  float beta);

/// Standalone SIMD elementwise kernels — the epilogue ops as streaming
/// passes, for every elementwise sweep that cannot fuse into a GEMM
/// (Tensor::axpy/scale/mul, ReLU forward/backward, BatchNorm2d eval).
/// Each is bitwise identical across the tiers (two-op mul-then-add
/// sequences, no contraction) and bitwise identical to the matching
/// fused-epilogue stage.
/// dst[i] = src[i] > 0 ? src[i] : 0 (NaN -> 0, -0 -> +0). src may == dst.
using ReluF32Fn = void (*)(const float* src, float* dst, std::size_t n);
/// y[i] += a * x[i].
using AxpyF32Fn = void (*)(float a, const float* x, float* y, std::size_t n);
/// dst[i] = a[i] * b[i]; dst may alias a and/or b.
using MulF32Fn = void (*)(const float* a, const float* b, float* dst,
                          std::size_t n);
/// x[i] *= a.
using ScaleF32Fn = void (*)(float* x, std::size_t n, float a);
/// dst[i] = src[i] * scale + shift (one BN channel plane). src may == dst.
using AffineF32Fn = void (*)(const float* src, float* dst, std::size_t n,
                             float scale, float shift);

struct GemmKernels {
  GemmTile4x16Fn tile4x16;
  GemmTile8x16Fn tile8x16;
  GemmTileI16Fn tile4x16_i16;
  GemmTile8x16I16Fn tile8x16_i16;
  GemmTileI32Fn tile4x8_i32;
  QdqF32Fn qdq_f32;
  QuantF32ToI16Fn quant_f32_i16;
  QuantF32ToI16PairFn quant_f32_i16_pair;
  RequantI32Fn requant_i32;
  MaxAbsF32Fn max_abs_f32;
  GemmTileEp4x16Fn tile4x16_ep;
  GemmTileEp8x16Fn tile8x16_ep;
  ReluF32Fn relu_f32;
  AxpyF32Fn axpy_f32;
  MulF32Fn mul_f32;
  ScaleF32Fn scale_f32;
  AffineF32Fn affine_f32;
  const char* isa;  // "scalar", "avx2+fma" or "avx512+vnni"
};

/// The kernel tiers, lowest first.
enum class GemmIsa { kScalar, kAvx2, kAvx512 };

/// The highest tier this build and host run: AVX-512 when the vector
/// translation unit is compiled in and the CPU reports AVX2, FMA,
/// AVX512F, AVX512BW and AVX512-VNNI; AVX2 when it reports AVX2 and FMA;
/// scalar otherwise or when ODENET_SIMD disables the vector tiers.
GemmIsa gemm_best_isa();

/// Caps the active tier at `cap` (GemmIsa::kAvx512, the default, lifts
/// the cap) — the bench's scalar A/B rows and the ISA-parity tests pin a
/// tier around runs with it. Not meant to be changed while kernels are
/// executing concurrently.
void gemm_cap_isa(GemmIsa cap);

/// The tier every tiled GEMM call uses right now: the lower of
/// gemm_best_isa() and the cap.
GemmIsa gemm_isa();

/// That tier's kernel table.
const GemmKernels& active_gemm_kernels();

/// Name of the active tier ("scalar" / "avx2+fma" / "avx512+vnni").
const char* gemm_isa_name();

/// GEMMs below this many flops (2*m*k*n) run sequentially on the calling
/// thread — fan-out overhead beats the win on small batches. Default 1M
/// flops.
std::size_t gemm_parallel_min_flops();
/// Overrides the threshold (0 restores the default).
void gemm_set_parallel_min_flops(std::size_t flops);

/// Substitutes the thread pool the GEMM, lowering and batch-norm kernels
/// fan out on; nullptr restores the global pool. The pool must outlive
/// every kernel call made while it is installed.
void set_kernel_pool(util::ThreadPool* pool);
util::ThreadPool& kernel_pool();

/// An int16 [m,k] matrix repacked into the pair-interleaved row-panel
/// layout the integer micro-kernel consumes: [ceil(m/4)] panels of
/// [kpairs][4][2], where panel t holds rows 4t..4t+3 and entry
/// [p][i][s] = A[4t+i][2p+s]. The [2] pair axis is innermost so one 32-bit
/// broadcast yields a row's (even, odd) k-pair for `_mm256_madd_epi16`
/// (AVX2) or `_mm512_dpwssd_epi32` (`vpdpwssd`, AVX-512). Edge rows
/// past m and the phantom odd-k tap are zero-padded. This is the
/// once-per-layer packed-weight format the fixed backend keeps on each
/// conv (core::FixedPackedWeights). The layout fixes which two k share a
/// pair, not what k means: a conv packs its weights in the natural k
/// order (channel-major, taps inner — pairs of taps) for an explicit
/// lowering through gemm_i16_tiled_pa, or pair-major
/// (pack_gemm_a_i16_pairs in im2col.hpp — pairs of channels) for
/// gemm_i16_pairs_lowered. Either order sums the same products into the
/// int32 accumulators, and integer addition is exact mod 2^32, so both
/// give the same C bit for bit.
struct PackedGemmA16 {
  std::vector<std::int16_t> data;
  int m = 0;
  int k = 0;  // logical (un-padded) depth

  int kpairs() const { return (k + 1) / 2; }
  bool empty() const { return m == 0 || k == 0; }
};

/// Packs row-major A[m,k] int16 into `out` (storage recycled across calls).
void pack_gemm_a_i16(const std::int16_t* a, int m, int k, PackedGemmA16& out);

/// Integer GEMM: C (+)= A * B with A pre-packed (PackedGemmA16), B
/// row-major int16 [k,n] (the batched lowering of `batch` samples, n a
/// multiple of batch), C int32 stored like gemm_tiled_pa_ep's: column j
/// is pixel j % plane of sample j / plane of an NCHW [batch, m, plane] C
/// (plane = n / batch), so at batch 1 C is row-major [m, n]. The integer
/// twin of gemm_tiled_pa, on the same driver (gemm_driver.hpp): B is
/// pair-interleaved per column panel into recycled thread-local storage,
/// full tiles run the dispatched micro-kernels (row pairs on the 8 x 16
/// entry, `vpdpwssd` on the AVX-512 tier), ragged edges run an
/// ISA-independent scalar path with identical wraparound semantics, and
/// the thread split is bitwise invariant for any worker count (integer
/// addition commutes mod 2^32).
void gemm_i16_tiled_pa(const PackedGemmA16& a, const std::int16_t* b,
                       std::int32_t* c, int n, bool accumulate,
                       int batch = 1);

/// Measured throughput of this host's GEMM kernels on the current kernel
/// pool and tier: one large-conv-sized product (m = 128 out-channels,
/// k = 3x3x64 taps, n = a 32x32 plane), timed as one warm-up then the
/// median of 7 runs, through gemm_tiled_pa (f32) and gemm_i16_tiled_pa
/// (int16 -> int32). The denominators of the benches' fraction-of-peak
/// figures: achieved conv throughput over what the kernels reach here.
struct GemmPeak {
  double gflops_f32 = 0.0;  // 2*m*k*n / median seconds / 1e9
  double gops_i16 = 0.0;
};
GemmPeak measure_gemm_peak();

namespace detail {

// The row-paired entries of a tier with no 8 x 16 kernel of its own (the
// scalar and AVX2 tiers): two 4 x 16 calls over the same B micro-panel,
// so pairing leaves every output of that tier unchanged.

template <GemmTile4x16Fn Quad>
void paired_tile(const float* apanel0, const float* apanel1,
                 const float* bpanel, int k, float* c, std::size_t ldc,
                 bool accumulate) {
  Quad(apanel0, bpanel, k, c, ldc, accumulate);
  Quad(apanel1, bpanel, k, c + kGemmTileRows * ldc, ldc, accumulate);
}

template <GemmTileEp4x16Fn Quad>
void paired_tile_ep(const float* apanel0, const float* apanel1,
                    const float* bpanel, int k, float* c, std::size_t ldc,
                    const float* scale8, const float* shift8, bool relu,
                    const float* residual, std::size_t ldr, float beta) {
  Quad(apanel0, bpanel, k, c, ldc, scale8, shift8, relu, residual, ldr,
       beta);
  Quad(apanel1, bpanel, k, c + kGemmTileRows * ldc, ldc,
       scale8 != nullptr ? scale8 + kGemmTileRows : nullptr,
       shift8 != nullptr ? shift8 + kGemmTileRows : nullptr, relu,
       residual != nullptr ? residual + kGemmTileRows * ldr : nullptr, ldr,
       beta);
}

template <GemmTileI16Fn Quad>
void paired_tile_i16(const std::int16_t* apanel0,
                     const std::int16_t* apanel1, const std::int16_t* bpanel,
                     int kpairs, std::int32_t* c, std::size_t ldc,
                     bool accumulate) {
  Quad(apanel0, bpanel, kpairs, c, ldc, accumulate);
  Quad(apanel1, bpanel, kpairs, c + kGemmTileRows * ldc, ldc, accumulate);
}

}  // namespace detail

}  // namespace odenet::core
