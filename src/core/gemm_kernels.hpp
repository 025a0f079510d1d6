// GEMM micro-kernel dispatch: one scalar and (on x86 hosts that have them)
// one AVX2/FMA implementation of the inner kernels every tiled GEMM is
// built from, selected once at runtime.
//
// The tile kernels operate on PACKED panels (PackedGemmA in im2col.hpp,
// B packed per column panel by each GEMM) so the scalar and vector
// variants share one data layout and one outer loop nest — the tiled-GEMM
// driver in gemm_driver.hpp, which alone sets the panel width and the
// thread split; only the innermost arithmetic differs. The scalar kernels
// are the portable fallback — non-x86 targets, -mno-avx2 builds (cmake
// -DODENET_DISABLE_AVX2=ON skips the AVX2 translation unit entirely) and
// hosts without AVX2/FMA all run them, producing the same ascending-k
// summation order as the pre-SIMD code.
//
// Knobs:
//  * env ODENET_SIMD=0|off|scalar — disable the vector kernels at startup;
//  * gemm_force_scalar(true) — per-process override for benches/tests
//    (A/B rows, ISA-parity suites);
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

/// Full-tile micro-kernel: C[4][16] (+)= sum_p Apanel[p][4] * Bpanel[p][16].
/// `apanel` is a packed [k][4] row panel, `bpanel` a packed [k][16] column
/// panel (both contiguous); C is row-major with leading dimension `ldc`.
using GemmTile4x16Fn = void (*)(const float* apanel, const float* bpanel,
                                int k, float* c, std::size_t ldc,
                                bool accumulate);

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
/// Bitwise contract: the epilogue arithmetic uses NO fused multiply-add in
/// either ISA variant (the AVX2 TU is built with -ffp-contract=off), so
/// fused-epilogue output is bitwise identical to running the plain GEMM
/// followed by the elementwise kernels below, on either ISA.
using GemmTileEp4x16Fn = void (*)(const float* apanel, const float* bpanel,
                                  int k, float* c, std::size_t ldc,
                                  const float* scale4, const float* shift4,
                                  bool relu, const float* residual,
                                  std::size_t ldr, float beta);

/// Standalone SIMD elementwise kernels — the epilogue ops as streaming
/// passes, for every elementwise sweep that cannot fuse into a GEMM
/// (Tensor::axpy/scale/mul, ReLU forward/backward, BatchNorm2d eval).
/// Each is bitwise identical between the scalar and AVX2 variants (two-op
/// mul-then-add sequences, no contraction) and bitwise identical to the
/// matching fused-epilogue stage.
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
  GemmTileI16Fn tile4x16_i16;
  GemmTileI32Fn tile4x8_i32;
  QdqF32Fn qdq_f32;
  QuantF32ToI16Fn quant_f32_i16;
  RequantI32Fn requant_i32;
  MaxAbsF32Fn max_abs_f32;
  GemmTileEp4x16Fn tile4x16_ep;
  ReluF32Fn relu_f32;
  AxpyF32Fn axpy_f32;
  MulF32Fn mul_f32;
  ScaleF32Fn scale_f32;
  AffineF32Fn affine_f32;
  const char* isa;  // "scalar" or "avx2+fma"
};

/// The kernel set every tiled GEMM call uses right now (AVX2 when
/// compiled in, supported by the CPU, and not disabled; scalar otherwise).
const GemmKernels& active_gemm_kernels();

/// Name of the active instruction set ("scalar" / "avx2+fma").
const char* gemm_isa_name();

/// True when the AVX2 translation unit was built with AVX2+FMA codegen.
bool gemm_avx2_compiled();

/// True when the AVX2 kernels are compiled in, the host CPU supports
/// AVX2+FMA, and ODENET_SIMD does not disable them.
bool gemm_avx2_usable();

/// Force the scalar kernels regardless of CPU support — the bench's
/// SIMD-off A/B rows and the ISA-parity tests flip this around runs.
/// Not meant to be toggled while kernels are executing concurrently.
void gemm_force_scalar(bool force);
bool gemm_forced_scalar();

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
/// broadcast yields a row's (even, odd) k-pair for `_mm256_madd_epi16`.
/// Edge rows past m and the phantom odd-k tap are zero-padded. This is the
/// once-per-layer packed-weight format the fixed backend keeps on each
/// conv (core::FixedPackedWeights).
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
/// full 4x16 tiles run the dispatched micro-kernel, ragged edges run an
/// ISA-independent scalar path with identical wraparound semantics, and
/// the thread split is bitwise invariant for any worker count (integer
/// addition commutes mod 2^32).
void gemm_i16_tiled_pa(const PackedGemmA16& a, const std::int16_t* b,
                       std::int32_t* c, int n, bool accumulate,
                       int batch = 1);

/// Measured throughput of this host's GEMM kernels on the current kernel
/// pool and ISA: one large-conv-sized product (m = 128 out-channels,
/// k = 3x3x64 taps, n = a 32x32 plane), timed as one warm-up then the
/// median of 7 runs, through gemm_tiled_pa (f32) and gemm_i16_tiled_pa
/// (int16 -> int32). The denominators of the benches' fraction-of-peak
/// figures: achieved conv throughput over what the kernels reach here.
struct GemmPeak {
  double gflops_f32 = 0.0;  // 2*m*k*n / median seconds / 1e9
  double gops_i16 = 0.0;
};
GemmPeak measure_gemm_peak();

}  // namespace odenet::core
