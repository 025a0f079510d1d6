// im2col / col2im lowering and the tiled GEMMs — the software
// convolution path (core::Conv2d) and the Linear layer's products.
//
// Every float GEMM here (gemm_tiled, gemm_tiled_pa, gemm_tiled_pa_ep,
// gemm_tiled_pa_ep_lowered, gemm_tiled_bt) and the int16
// gemm_i16_pairs_lowered here and gemm_i16_tiled_pa (gemm_kernels.hpp)
// runs on one internal driver, core/gemm_driver.hpp, which alone fixes
// the B-panel width and the panel x row-block thread split; each supplies
// only its panel fill and its tile. Every result is bitwise identical for
// any worker count. The operands come in the layouts their callers
// already hold: A row-major or stored transposed (pack_gemm_a /
// pack_gemm_at), B row-major (gemm_tiled_pa) or stored transposed
// (gemm_tiled_bt).
//
// im2col unfolds each KxK receptive field of a [C,H,W] plane stack into a
// column of a [C*K*K, Ho*Wo] matrix so convolution becomes one matrix
// product with the [Cout, C*K*K] weight view. col2im is its adjoint
// (scatter-add), used for the input gradient. The lowerings work on whole
// [N,C,H,W] batches; a batch of one is the single-sample case (the conv
// backward scatters its input gradient one sample at a time). This file
// is the only code that maps a conv's input to GEMM rows:
//   - A conv with a time channel (the ODE blocks' concatenated t plane)
//     passes one [H*W] plane of t that every sample shares; the lowering
//     reads the last channel's K*K rows from it, so no [N, C+1, H, W]
//     copy of the input is ever built. t is not trained, so the input
//     gradient never has time-channel rows to scatter.
//   - The stride-1 "same" geometry (kernels up to 7x7) lowers through one
//     per-tap plan — each lowered row is the input plane flat-shifted with
//     its out-of-image taps zeroed — shared by the explicit lowering (whole
//     planes), the implicit GEMM panel fill (16-column micro-panel rows)
//     and col2im (contiguous row adds, tap by tap). Every other geometry
//     (the downsampling stride-2 convs, larger kernels) takes the general
//     per-row walk.
//   - The implicit fill is one loop over 4-byte plane elements: float
//     channels for the f32 GEMM, or int16 channel PAIRS (I16Pair, two
//     channels of one pixel per 32-bit word) for the integer GEMM, whose
//     weights are packed pair-major so that each k-pair of its
//     [kpairs][16][2] B micro-panel is one tap of one pair plane — a
//     64-byte copy of 16 pixels, where the natural k order would pair two
//     taps of one channel and interleave two gathered rows element by
//     element.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/gemm_kernels.hpp"

namespace odenet::core {

/// Geometry for one lowering (square input, square kernel).
struct LoweringGeometry {
  int channels = 0;
  int height = 0;
  int width = 0;
  int kernel = 3;
  int stride = 1;
  int pad = 1;

  int out_h() const { return (height + 2 * pad - kernel) / stride + 1; }
  int out_w() const { return (width + 2 * pad - kernel) / stride + 1; }
  std::size_t col_rows() const {
    return static_cast<std::size_t>(channels) * kernel * kernel;
  }
  std::size_t col_cols() const {
    return static_cast<std::size_t>(out_h()) * out_w();
  }
};

/// Batched lowering: unfolds a whole [N,C,H,W] batch into ONE column
/// matrix [col_rows(), N * col_cols()], sample n occupying the contiguous
/// column block [n * col_cols(), (n+1) * col_cols()); out-of-image taps
/// read 0. Convolving the batch is then a single GEMM with the
/// [Cout, C*K*K] weight view — the lowering Conv2d is built on. With a
/// time_plane ([H*W], shared by every sample) the lowering's last channel
/// is the time channel: its K*K rows read time_plane, and src holds the
/// other g.channels - 1 planes per sample. Parallelized over samples.
void im2col_batched(const float* src, const LoweringGeometry& g, int batch,
                    float* dst, const float* time_plane = nullptr);

/// Same batched lowering over pre-quantized int16 activations — the input
/// side of the fixed backend's integer GEMM for a conv that cannot lower
/// implicitly (the stride-2 downsampling convs; the others run
/// gemm_i16_pairs_lowered). Lowering the [N,C,H,W] int16 image instead of
/// quantizing the lowered matrix does the quantize pass once per pixel
/// instead of once per K*K-replicated column entry.
void im2col_batched_i16(const std::int16_t* src, const LoweringGeometry& g,
                        int batch, std::int16_t* dst,
                        const std::int16_t* time_plane = nullptr);

/// Adjoint of im2col_batched (without a time plane): scatter-adds the
/// batched column matrix back into a [N,C,H,W] buffer (which must be
/// zero-initialized or hold a partial sum). Every element receives its
/// adds in tap order, the naive (c, kh, kw, oh, ow) scatter's order, so
/// the tap-plan path and the general walk both match it bit for bit.
/// Parallelized over (sample, channel) planes (disjoint writes).
void col2im_batched(const float* cols, const LoweringGeometry& g, int batch,
                    float* dst);

/// Register-blocked GEMM: C[m,n] (+)= A[m,k] * B[k,n], row-major,
/// accumulation over k in ascending order; when accumulate is false C is
/// overwritten. Computed through an MR x NR micro-kernel that keeps an
/// output tile in registers and reuses each loaded B row across MR rows of
/// A, which on the long column dimension of a batched im2col lowering
/// (n = N*Ho*Wo) cuts B-stream traffic and loop overhead by ~MR x.
void gemm_tiled(const float* a, const float* b, float* c, int m, int k, int n,
                bool accumulate);

/// A [m,k] matrix repacked into the row-panel layout the 4x16 micro-kernel
/// consumes: [ceil(m/4)] panels of [k][4] (panel t holds rows 4t..4t+3,
/// k-major so the kernel reads 4 contiguous A values per k step). Edge
/// rows past m are zero-padded, so a full-width kernel run over the last
/// panel computes zeros for the phantom rows. This is the once-per-layer
/// packed-weight format Conv2d caches across calls.
struct PackedGemmA {
  std::vector<float> data;
  int m = 0;
  int k = 0;

  bool empty() const { return m == 0 || k == 0; }
};

/// Packs row-major A[m,k] into `out` (storage recycled across calls).
/// With batch > 1, A is read in place from an NCHW [batch, m, k / batch]
/// tensor whose sample s supplies columns [s * k / batch,
/// (s + 1) * k / batch): the packed bytes equal those of its
/// channel-major [m, k] copy.
void pack_gemm_a(const float* a, int m, int k, PackedGemmA& out,
                 int batch = 1);

/// Packs A[m,k] from its transpose `at`, stored [k, ld] row-major (ld = 0
/// means m; ld > m packs the leading m columns), into the same layout, so
/// a product whose left operand is held transposed runs on gemm_tiled_pa:
/// the conv input gradient's W^T (W is [Cout, C*K*K]; a conv with a time
/// channel packs only the data channels' rows, ld = (C+1)*K*K) and the
/// Linear weight gradient's G^T (G is [N, out]).
void pack_gemm_at(const float* at, int m, int k, PackedGemmA& out,
                  int ld = 0);

/// C[m,n] (+)= A * B[k,n] with A pre-packed: gemm_tiled with the A-side
/// packing hoisted out, so steady-state serving packs each weight matrix
/// once instead of once per call. Identical summation order to
/// gemm_tiled() under the scalar kernels.
void gemm_tiled_pa(const PackedGemmA& a, const float* b, float* c, int n,
                   bool accumulate);

/// Epilogue applied to every output element of gemm_tiled_pa_ep while the
/// tile is still in registers, in this fixed order:
///   t = acc * scale[i] + shift[i]   (each part skipped when null; i is
///                                    the output ROW, i.e. the conv's out
///                                    channel)
///   t = max(t, 0)                   (when relu)
///   t = t + beta * residual[..]     (when residual != nullptr)
/// residual shares C's layout and MAY alias c — each tile reads its own
/// residual window before storing, so in-place `c = ep(A*B) + beta*c`
/// (the Euler update z += h*f(z)) is safe under any thread split.
struct GemmEpilogue {
  const float* scale = nullptr;  // per-row multipliers [m]
  const float* shift = nullptr;  // per-row addends [m]
  bool relu = false;
  const float* residual = nullptr;  // C's layout, may alias c
  float beta = 1.0f;
};

/// gemm_tiled_pa with the epilogue fused into the micro-kernel's store:
/// C = ep(A * B[k,n]), B the batched lowering of `batch` samples (n a
/// multiple of batch). Column j of the product is pixel j % plane of
/// sample j / plane (plane = n / batch): C is the NCHW [batch, m, plane]
/// conv output, and at batch 1 the row-major [m, n]. Always overwrites
/// (residual IS the accumulate path). The GEMM summation order is
/// identical to gemm_tiled_pa, and the epilogue arithmetic is bitwise
/// identical to running the unfused GEMM followed by the standalone
/// elementwise kernels, on every tier.
void gemm_tiled_pa_ep(const PackedGemmA& a, const float* b, float* c, int n,
                      const GemmEpilogue& ep, int batch = 1);

/// True when gemm_tiled_pa_ep_lowered can run the lowering implicitly:
/// stride-1 "same" geometry (out extents == in extents), plane a multiple
/// of the 16-column micro-tile (so no B micro-panel straddles a sample
/// boundary), and m a multiple of the 4-row micro-tile (so no ragged edge
/// ever needs a materialized column matrix).
bool gemm_implicit_lowering_ok(const LoweringGeometry& g, int m);

/// gemm_tiled_pa_ep with the im2col itself folded into the B-panel pack:
/// instead of materializing the [C*K*K, N*plane] column matrix and copying
/// it into micro-panels, each panel row is gathered straight from the
/// [N,C,H,W] image (and time_plane, as in im2col_batched) through the
/// same tap plan the explicit lowering uses. Packed panel values,
/// summation order, epilogue and the NCHW [batch, m, plane] output are
/// identical to the explicit im2col_batched + gemm_tiled_pa_ep(..., batch)
/// composition, so results are bitwise equal on every tier and under any
/// thread split — the conv just skips one full write + read of the column
/// matrix. Requires gemm_implicit_lowering_ok(g, a.m) and
/// a.k == g.col_rows().
void gemm_tiled_pa_ep_lowered(const PackedGemmA& a, const float* src,
                              const LoweringGeometry& g, int batch, float* c,
                              const GemmEpilogue& ep,
                              const float* time_plane = nullptr);

/// Packs a conv's int16 weights, row-major [m, g.col_rows()] in the
/// natural k order (channel-major, taps inner; the time channel last when
/// time_channel), PAIR-MAJOR for gemm_i16_pairs_lowered: k = [pair][tap]
/// [lane], so a k-pair holds one tap of the two channels of one pair
/// plane. The pair planes (see I16Pair in gemm_kernels.hpp) hold the data
/// channels two to a plane, an odd last one beside a zero lane, then the
/// time channel beside a zero lane in a plane of its own; every lane with
/// no channel behind it is zero. k = 2 * pair planes * K*K.
void pack_gemm_a_i16_pairs(const std::int16_t* w, int m,
                           const LoweringGeometry& g, bool time_channel,
                           PackedGemmA16& out);

/// The integer twin of gemm_tiled_pa_ep_lowered: C = A * lowering(src) as
/// int32, src the input as channel-pair planes [batch, data pairs, H*W]
/// (fixed::quantize_i16_pairs) and time_plane, when g has a time channel,
/// its [H*W] pair plane that every sample shares. With A pair-major
/// (pack_gemm_a_i16_pairs) each k-pair of a B micro-panel is one tap of
/// one pair plane, so the fill gathers each [16][2] row as one 64-byte
/// copy of 16 pixels through the tap plan — no column matrix and no
/// per-element pair interleave. C is the NCHW [batch, m, H*W] output.
/// The padded lanes of the planes never reach C: A is zero there. C is
/// bitwise equal to im2col_batched_i16 + gemm_i16_tiled_pa(..., batch)
/// with the natural-order pack: the same products, summed in another
/// order, exactly mod 2^32 — on every tier and under any thread split.
/// Requires gemm_implicit_lowering_ok(g, a.m) and A packed for g by
/// pack_gemm_a_i16_pairs.
void gemm_i16_pairs_lowered(const PackedGemmA16& a, const I16Pair* src,
                            const LoweringGeometry& g, int batch,
                            std::int32_t* c,
                            const I16Pair* time_plane = nullptr);

/// C[m,n] (+)= A[m,k] * B with B stored transposed, [n,k] row-major: the
/// conv weight gradient G * cols^T (cols is [C*K*K, N*Ho*Wo]) and the
/// Linear forward X * W^T (W is [out, in]). A is row-major [m, k] at
/// batch 1; with batch > 1 it is the NCHW [batch, m, k / batch] tensor
/// pack_gemm_a reads in place — the conv's grad_out as dW's left operand,
/// no channel-major copy. A is packed per call into
/// recycled thread-local storage; B is packed per column panel, its ragged
/// last tile zero-padded and run on the full micro-kernel into a scratch
/// tile whose corner is then stored (added when accumulating). A long k is
/// cut into depth blocks that keep one micro-panel within the driver's
/// panel cap; blocks after the first accumulate onto C.
void gemm_tiled_bt(const float* a, const float* bt, float* c, int m, int k,
                   int n, bool accumulate, int batch = 1);

}  // namespace odenet::core
