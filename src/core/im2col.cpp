#include "core/im2col.hpp"

#include <algorithm>
#include <cstring>

#include "core/gemm_driver.hpp"
#include "core/gemm_kernels.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace odenet::core {

namespace {

/// First output column whose tap ow*stride - pad + kw lands inside [0, w),
/// and one past the last — hoisting the bounds check out of the copy loop.
inline int first_valid_ow(int kw, int pad, int stride) {
  const int shift = pad - kw;
  if (shift <= 0) return 0;
  return (shift + stride - 1) / stride;  // ceil(shift / stride)
}

inline int end_valid_ow(int kw, int pad, int stride, int w, int wo) {
  const int span = w + pad - kw;  // iw < w  <=>  ow*stride < span
  if (span <= 0) return 0;
  const int end = (span + stride - 1) / stride;
  return end < wo ? end : wo;
}

/// Lowers one [C,H,W] sample. Lowered row r of this sample lives at
/// dst + r * row_stride; with row_stride == col_cols() this is the classic
/// per-sample layout, with row_stride == batch * col_cols() it writes one
/// sample's column block of the batched matrix.
///
/// Per (kh, kw) tap the valid output-column range is computed once, so the
/// interior is a branch-free copy: one memcpy per output row at stride 1,
/// a gathered strided copy otherwise. Values are identical to the naive
/// per-element walk (zeros outside, source reads inside). Templated on the
/// element type: the float instantiation serves Conv2d's lowering, the
/// int16 one lowers pre-quantized activations for the integer GEMM (9x
/// cheaper than quantizing the replicated column matrix), the int32 one
/// the FPGA simulator's Q20 raws.
template <typename T>
void im2col_strided(const T* src, const LoweringGeometry& g,
                    std::size_t row_stride, T* dst) {
  const int ho = g.out_h(), wo = g.out_w();
  const std::size_t plane = static_cast<std::size_t>(g.height) * g.width;
  // "Same" geometry (stride 1, symmetric pad: the ODE-block 3x3/pad-1
  // conv): each tap's lowered row is the input plane flat-shifted by
  // (kh-pad)*w + (kw-pad). One plane-sized memcpy replaces ho row-sized
  // ones — the per-call overhead of the small copies dominates on the
  // 8x8/4x4 planes — then the wrapped edge columns and the out-of-range
  // top/bottom rows are zeroed. Values match the general walk exactly.
  if (g.stride == 1 && ho == g.height && wo == g.width) {
    const int h = g.height, w = g.width;
    std::size_t row = 0;
    for (int c = 0; c < g.channels; ++c) {
      const T* cplane = src + static_cast<std::size_t>(c) * plane;
      for (int kh = 0; kh < g.kernel; ++kh) {
        for (int kw = 0; kw < g.kernel; ++kw, ++row) {
          T* out_row = dst + row * row_stride;
          const int dh = kh - g.pad, dw = kw - g.pad;
          const std::ptrdiff_t shift =
              static_cast<std::ptrdiff_t>(dh) * w + dw;
          std::size_t lo = shift < 0 ? static_cast<std::size_t>(-shift) : 0;
          std::size_t hi = shift > 0 ? plane - std::min<std::size_t>(
                                                   plane,
                                                   static_cast<std::size_t>(
                                                       shift))
                                     : plane;
          lo = std::min(lo, plane);
          hi = std::max(hi, lo);
          if (lo > 0) std::memset(out_row, 0, lo * sizeof(T));
          if (hi > lo) {
            std::memcpy(out_row + lo, cplane + lo + shift,
                        (hi - lo) * sizeof(T));
          }
          if (hi < plane) {
            std::memset(out_row + hi, 0, (plane - hi) * sizeof(T));
          }
          // Rows whose source row is outside [0, h) are all zeros. Clamped
          // to [0, h]: a tap further than h rows off the plane (k = 5,
          // pad = 2 on a 1-row input) must not zero past this sample's
          // row block, which in the batched layout belongs to another
          // sample and another thread.
          const int row0 = std::min(dh < 0 ? -dh : 0, h);
          const int row1 = std::max(dh > 0 ? h - dh : h, row0);
          if (row0 > 0) {
            std::memset(out_row, 0,
                        static_cast<std::size_t>(row0) * w * sizeof(T));
          }
          if (row1 < h) {
            std::memset(out_row + static_cast<std::size_t>(row1) * w, 0,
                        static_cast<std::size_t>(h - row1) * w * sizeof(T));
          }
          // The flat shift wraps row ends into neighboring rows; those
          // columns read outside [0, w) and must be zero.
          const int zl = std::min(dw < 0 ? -dw : 0, w);
          const int zr = std::max(w - (dw > 0 ? dw : 0), zl);
          for (int oh = row0; oh < row1; ++oh) {
            T* out = out_row + static_cast<std::size_t>(oh) * w;
            for (int ow = 0; ow < zl; ++ow) out[ow] = T{};
            for (int ow = zr; ow < w; ++ow) out[ow] = T{};
          }
        }
      }
    }
    return;
  }
  std::size_t row = 0;
  for (int c = 0; c < g.channels; ++c) {
    const T* cplane = src + static_cast<std::size_t>(c) * plane;
    for (int kh = 0; kh < g.kernel; ++kh) {
      for (int kw = 0; kw < g.kernel; ++kw, ++row) {
        T* out_row = dst + row * row_stride;
        const int lo = first_valid_ow(kw, g.pad, g.stride);
        const int hi = end_valid_ow(kw, g.pad, g.stride, g.width, wo);
        for (int oh = 0; oh < ho; ++oh) {
          const int ih = oh * g.stride - g.pad + kh;
          T* out = out_row + static_cast<std::size_t>(oh) * wo;
          if (ih < 0 || ih >= g.height || lo >= hi) {
            std::memset(out, 0, static_cast<std::size_t>(wo) * sizeof(T));
            continue;
          }
          const T* in_row = cplane + static_cast<std::size_t>(ih) * g.width;
          for (int ow = 0; ow < lo; ++ow) out[ow] = T{};
          if (g.stride == 1) {
            std::memcpy(out + lo, in_row + lo - g.pad + kw,
                        static_cast<std::size_t>(hi - lo) * sizeof(T));
          } else {
            const T* in = in_row + lo * g.stride - g.pad + kw;
            for (int ow = lo; ow < hi; ++ow, in += g.stride) out[ow] = *in;
          }
          for (int ow = hi; ow < wo; ++ow) out[ow] = T{};
        }
      }
    }
  }
}

/// Adjoint of im2col_strided for one sample (same row_stride convention).
void col2im_strided(const float* cols, const LoweringGeometry& g,
                    std::size_t row_stride, float* dst) {
  const int ho = g.out_h(), wo = g.out_w();
  const std::size_t plane = static_cast<std::size_t>(g.height) * g.width;
  std::size_t row = 0;
  for (int c = 0; c < g.channels; ++c) {
    float* cplane = dst + static_cast<std::size_t>(c) * plane;
    for (int kh = 0; kh < g.kernel; ++kh) {
      for (int kw = 0; kw < g.kernel; ++kw, ++row) {
        const float* in_row = cols + row * row_stride;
        for (int oh = 0; oh < ho; ++oh) {
          const int ih = oh * g.stride - g.pad + kh;
          if (ih < 0 || ih >= g.height) continue;
          float* out = cplane + static_cast<std::size_t>(ih) * g.width;
          const float* in = in_row + static_cast<std::size_t>(oh) * wo;
          for (int ow = 0; ow < wo; ++ow) {
            const int iw = ow * g.stride - g.pad + kw;
            if (iw >= 0 && iw < g.width) out[iw] += in[ow];
          }
        }
      }
    }
  }
}

}  // namespace

void im2col_i32(const std::int32_t* src, const LoweringGeometry& g,
                std::int32_t* dst) {
  im2col_strided(src, g, g.col_cols(), dst);
}

void im2col_batched(const float* src, const LoweringGeometry& g, int batch,
                    float* dst) {
  ODENET_CHECK(batch > 0, "im2col_batched needs a non-empty batch");
  const std::size_t sample =
      static_cast<std::size_t>(g.channels) * g.height * g.width;
  const std::size_t cc = g.col_cols();
  const std::size_t row_stride = cc * static_cast<std::size_t>(batch);
  util::parallel_for(kernel_pool(), 0, static_cast<std::size_t>(batch),
                     [&](std::size_t ni) {
    im2col_strided(src + ni * sample, g, row_stride, dst + ni * cc);
  });
}

void im2col_batched_i16(const std::int16_t* src, const LoweringGeometry& g,
                        int batch, std::int16_t* dst) {
  ODENET_CHECK(batch > 0, "im2col_batched_i16 needs a non-empty batch");
  const std::size_t sample =
      static_cast<std::size_t>(g.channels) * g.height * g.width;
  const std::size_t cc = g.col_cols();
  const std::size_t row_stride = cc * static_cast<std::size_t>(batch);
  util::parallel_for(kernel_pool(), 0, static_cast<std::size_t>(batch),
                     [&](std::size_t ni) {
    im2col_strided(src + ni * sample, g, row_stride, dst + ni * cc);
  });
}

void col2im_batched(const float* cols, const LoweringGeometry& g, int batch,
                    float* dst) {
  ODENET_CHECK(batch > 0, "col2im_batched needs a non-empty batch");
  const std::size_t sample =
      static_cast<std::size_t>(g.channels) * g.height * g.width;
  const std::size_t cc = g.col_cols();
  const std::size_t row_stride = cc * static_cast<std::size_t>(batch);
  util::parallel_for(kernel_pool(), 0, static_cast<std::size_t>(batch),
                     [&](std::size_t ni) {
    col2im_strided(cols + ni * cc, g, row_stride, dst + ni * sample);
  });
}

void permute_channel_major(const float* src, float* dst, int batch,
                           int channels, std::size_t plane, bool to_nchw) {
  const std::size_t ncols = plane * static_cast<std::size_t>(batch);
  util::parallel_for(kernel_pool(), 0, static_cast<std::size_t>(batch),
                     [&](std::size_t ni) {
    for (int c = 0; c < channels; ++c) {
      const std::size_t nchw =
          (ni * static_cast<std::size_t>(channels) + c) * plane;
      const std::size_t cmajor =
          static_cast<std::size_t>(c) * ncols + ni * plane;
      if (to_nchw) {
        std::memcpy(dst + nchw, src + cmajor, plane * sizeof(float));
      } else {
        std::memcpy(dst + cmajor, src + nchw, plane * sizeof(float));
      }
    }
  });
}

void gemm_at(const float* a, const float* b, float* c, int m, int k, int n,
             bool accumulate) {
  // A stored [k, m]: A^T[i, p] = a[p*m + i].
  util::parallel_for(0, static_cast<std::size_t>(m), [&](std::size_t i) {
    float* crow = c + i * n;
    if (!accumulate) {
      for (int j = 0; j < n; ++j) crow[j] = 0.0f;
    }
    for (int p = 0; p < k; ++p) {
      const float av = a[static_cast<std::size_t>(p) * m + i];
      if (av == 0.0f) continue;
      const float* brow = b + static_cast<std::size_t>(p) * n;
      for (int j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  });
}

namespace {

// Micro-kernel geometry (see core/gemm_kernels.hpp — the 4 x 16 tile the
// scalar and AVX2 kernels share).
constexpr int kTileRows = kGemmTileRows;
constexpr int kTileCols = kGemmTileCols;

/// Floats in one packed [k][16] B micro-panel.
std::size_t micro_panel_floats(int k) {
  return static_cast<std::size_t>(std::max(k, 1)) * kTileCols;
}

/// Row tile t of a packed A: its [k][4] panel.
const float* a_panel(const PackedGemmA& a, int t) {
  return a.data.data() + static_cast<std::size_t>(t) * a.k * kTileRows;
}

/// Panel fill from a row-major B[k,n]: the panel's full-width column tiles
/// copied into contiguous [k][16] micro-panels in one sequential pass over
/// B. Rows of a wide B sit one page apart, so sweeping them once per ROW
/// TILE of A would touch k pages per sweep and thrash the TLB; packed,
/// every micro-kernel read is sequential.
void pack_b_panel(const float* b, int k, int n, int p0, int full_tiles,
                  float* packed) {
  for (int p = 0; p < k; ++p) {
    const float* brow = b + static_cast<std::size_t>(p) * n + p0;
    for (int jt = 0; jt < full_tiles; ++jt) {
      std::memcpy(packed + (static_cast<std::size_t>(jt) * k + p) * kTileCols,
                  brow + jt * kTileCols, kTileCols * sizeof(float));
    }
  }
}

/// Ragged-edge dot product: row i of A's packed row tile against B's
/// column bcol read in place, summed in ascending k from `init` — the
/// micro-kernel's values in the scalar kernel's order.
float edge_dot(const float* apanel, int i, const float* bcol, int k, int n,
               float init) {
  float sum = init;
  for (int p = 0; p < k; ++p) {
    sum += apanel[p * kTileRows + i] * bcol[static_cast<std::size_t>(p) * n];
  }
  return sum;
}

/// The fused-epilogue GEMM over any panel fill: full tiles run the fused
/// micro-kernel; ragged ones run edge_dot then the SAME epilogue chain
/// inline (ISA-independent). The epilogue is per-element, so thread-count
/// invariance stays structural. b is the row-major B the ragged path reads
/// (nullptr for the implicit lowering, whose geometry has no ragged tile).
template <typename Fill>
void gemm_ep_panels(const PackedGemmA& a, const float* b, float* c, int n,
                    const GemmEpilogue& ep, const Fill& fill) {
  const int k = a.k;
  const GemmKernels& kernels = active_gemm_kernels();
  const std::size_t ldc = static_cast<std::size_t>(n);
  detail::gemm_panels<float>(
      a.m, k, n, micro_panel_floats(k), fill,
      [&](int t, int j0, const float* bp) {
        const int i0 = t * kTileRows;
        const std::size_t at = static_cast<std::size_t>(i0) * ldc + j0;
        kernels.tile4x16_ep(
            a_panel(a, t), bp, k, c + at, ldc,
            ep.scale != nullptr ? ep.scale + i0 : nullptr,
            ep.shift != nullptr ? ep.shift + i0 : nullptr, ep.relu,
            ep.residual != nullptr ? ep.residual + at : nullptr, ldc,
            ep.beta);
      },
      [&](int t, int j0, int mr, int nr) {
        for (int i = 0; i < mr; ++i) {
          const int row = t * kTileRows + i;
          const std::size_t at = static_cast<std::size_t>(row) * ldc + j0;
          for (int j = 0; j < nr; ++j) {
            float sum = edge_dot(a_panel(a, t), i, b + j0 + j, k, n, 0.0f);
            // The epilogue chain, op for op the micro-kernel's.
            if (ep.scale != nullptr) sum = sum * ep.scale[row];
            if (ep.shift != nullptr) sum = sum + ep.shift[row];
            if (ep.relu) sum = sum > 0.0f ? sum : 0.0f;
            if (ep.residual != nullptr) {
              sum = sum + ep.beta * ep.residual[at + j];
            }
            c[at + j] = sum;
          }
        }
      });
}

}  // namespace

void pack_gemm_a(const float* a, int m, int k, PackedGemmA& out) {
  ODENET_CHECK(m >= 0 && k >= 0, "bad pack_gemm_a dimensions");
  out.m = m;
  out.k = k;
  const int row_tiles = (m + kTileRows - 1) / kTileRows;
  out.data.resize(static_cast<std::size_t>(row_tiles) *
                  static_cast<std::size_t>(std::max(k, 1)) * kTileRows);
  for (int t = 0; t < row_tiles; ++t) {
    const int i0 = t * kTileRows;
    const int mr = std::min(kTileRows, m - i0);
    float* panel = out.data.data() +
                   static_cast<std::size_t>(t) * k * kTileRows;
    for (int p = 0; p < k; ++p) {
      float* dst = panel + static_cast<std::size_t>(p) * kTileRows;
      for (int i = 0; i < mr; ++i) {
        dst[i] = a[(i0 + i) * static_cast<std::size_t>(k) + p];
      }
      for (int i = mr; i < kTileRows; ++i) dst[i] = 0.0f;
    }
  }
}

void gemm_tiled_pa(const PackedGemmA& a, const float* b, float* c, int n,
                   bool accumulate) {
  ODENET_CHECK(n >= 0, "bad gemm dimensions");
  const int k = a.k;
  const GemmKernels& kernels = active_gemm_kernels();
  const std::size_t ldc = static_cast<std::size_t>(n);
  detail::gemm_panels<float>(
      a.m, k, n, micro_panel_floats(k),
      [&](int p0, int full_tiles, float* packed) {
        pack_b_panel(b, k, n, p0, full_tiles, packed);
      },
      [&](int t, int j0, const float* bp) {
        const std::size_t at =
            static_cast<std::size_t>(t) * kTileRows * ldc + j0;
        kernels.tile4x16(a_panel(a, t), bp, k, c + at, ldc, accumulate);
      },
      [&](int t, int j0, int mr, int nr) {
        for (int i = 0; i < mr; ++i) {
          float* crow =
              c + static_cast<std::size_t>(t * kTileRows + i) * ldc + j0;
          for (int j = 0; j < nr; ++j) {
            crow[j] = edge_dot(a_panel(a, t), i, b + j0 + j, k, n,
                               accumulate ? crow[j] : 0.0f);
          }
        }
      });
}

void gemm_tiled_pa_ep(const PackedGemmA& a, const float* b, float* c, int n,
                      const GemmEpilogue& ep) {
  ODENET_CHECK(n >= 0, "bad gemm dimensions");
  gemm_ep_panels(a, b, c, n, ep, [&](int p0, int full_tiles, float* packed) {
    pack_b_panel(b, a.k, n, p0, full_tiles, packed);
  });
}

namespace {

// Per-tap gather plan for the implicit stride-1 "same" lowering: column
// row (c, kh, kw) of the im2col matrix is the input plane shifted by
// `shift` with out-of-image taps zeroed. [lo, hi) bounds the plane range
// whose shifted source lies inside the plane at all; [rlo, rhi) the flat
// range of vertically-valid rows; [zl, zr) the horizontally-valid columns
// within each row. Identical masking to im2col_strided's fast path.
struct TapSpec {
  std::ptrdiff_t shift = 0;
  std::size_t lo = 0, hi = 0;
  std::size_t rlo = 0, rhi = 0;
  int zl = 0, zr = 0;
  // Fast interior range: a micro-panel row wholly inside [flo, fhi) is one
  // constant-size 16-float copy plus ncz pointwise zeros (cz lists the
  // column-clipped in-tile positions — valid because tiles are 16-aligned,
  // so when the image width divides 16 every tile shares one column
  // phase). Tiles outside take the general masked gather.
  std::size_t flo = 0, fhi = 0;
  int cz[kGemmTileCols] = {};
  int ncz = 0;
};

constexpr int kMaxImplicitTaps = 49;  // kernels up to 7x7

// Fill one micro-panel row: columns [q0, q0+16) of the tap-shifted plane.
// rowbase is the flat offset of the row containing q0 (tracked by the
// caller so no per-tile division is needed).
inline void gather_tap_row16(const float* splane, const TapSpec& ts,
                             std::size_t w, std::size_t q0,
                             std::size_t rowbase, float* dst) {
  const std::size_t q1 = q0 + kTileCols;
  const std::size_t a0 = std::max(q0, ts.lo);
  const std::size_t a1 = std::min(q1, ts.hi);
  if (a1 <= a0) {
    std::memset(dst, 0, kTileCols * sizeof(float));
    return;
  }
  if (a0 > q0) std::memset(dst, 0, (a0 - q0) * sizeof(float));
  std::memcpy(dst + (a0 - q0), splane + a0 + ts.shift,
              (a1 - a0) * sizeof(float));
  if (q1 > a1) std::memset(dst + (a1 - q0), 0, (q1 - a1) * sizeof(float));
  // Rows clipped by the vertical shift.
  if (a0 < ts.rlo) {
    const std::size_t e = std::min(a1, ts.rlo);
    std::memset(dst + (a0 - q0), 0, (e - a0) * sizeof(float));
  }
  if (a1 > ts.rhi) {
    const std::size_t s = std::max(a0, ts.rhi);
    std::memset(dst + (s - q0), 0, (a1 - s) * sizeof(float));
  }
  // Columns clipped by the horizontal shift, row by covered row.
  if (ts.zl > 0 || static_cast<std::size_t>(ts.zr) < w) {
    for (std::size_t rb = rowbase; rb < a1; rb += w) {
      std::size_t s = std::max(a0, rb);
      std::size_t e = std::min(a1, rb + static_cast<std::size_t>(ts.zl));
      for (; s < e; ++s) dst[s - q0] = 0.0f;
      s = std::max(a0, rb + static_cast<std::size_t>(ts.zr));
      e = std::min(a1, rb + w);
      for (; s < e; ++s) dst[s - q0] = 0.0f;
    }
  }
}

}  // namespace

bool gemm_implicit_lowering_ok(const LoweringGeometry& g, int m) {
  const std::size_t plane =
      static_cast<std::size_t>(g.height) * static_cast<std::size_t>(g.width);
  return g.stride == 1 && g.height > 0 && g.width > 0 &&
         g.out_h() == g.height && g.out_w() == g.width &&
         plane % kTileCols == 0 && m % kTileRows == 0 &&
         g.kernel * g.kernel <= kMaxImplicitTaps;
}

void gemm_tiled_pa_ep_lowered(const PackedGemmA& a, const float* src,
                              const LoweringGeometry& g, int batch, float* c,
                              const GemmEpilogue& ep) {
  const int m = a.m, k = a.k;
  ODENET_CHECK(gemm_implicit_lowering_ok(g, m),
               "gemm_tiled_pa_ep_lowered: geometry not implicit-eligible");
  ODENET_CHECK(k == static_cast<int>(g.col_rows()),
               "gemm_tiled_pa_ep_lowered: packed A k " << k
                   << " != lowering rows " << g.col_rows());
  ODENET_CHECK(batch > 0, "gemm_tiled_pa_ep_lowered needs a non-empty batch");
  const std::size_t uw = static_cast<std::size_t>(g.width);
  const std::size_t plane = static_cast<std::size_t>(g.height) * uw;
  const std::size_t sample = static_cast<std::size_t>(g.channels) * plane;
  const int n = static_cast<int>(plane * static_cast<std::size_t>(batch));
  const int kk = g.kernel * g.kernel;

  TapSpec taps[kMaxImplicitTaps];
  for (int t = 0; t < kk; ++t) {
    const int dh = t / g.kernel - g.pad, dw = t % g.kernel - g.pad;
    TapSpec& ts = taps[t];
    ts.shift = static_cast<std::ptrdiff_t>(dh) * g.width + dw;
    std::size_t lo = ts.shift < 0 ? static_cast<std::size_t>(-ts.shift) : 0;
    std::size_t hi =
        ts.shift > 0
            ? plane - std::min<std::size_t>(
                          plane, static_cast<std::size_t>(ts.shift))
            : plane;
    ts.lo = std::min(lo, plane);
    ts.hi = std::max(hi, ts.lo);
    const int row0 = dh < 0 ? std::min(-dh, g.height) : 0;
    const int row1 = dh > 0 ? std::max(g.height - dh, row0) : g.height;
    ts.rlo = static_cast<std::size_t>(row0) * uw;
    ts.rhi = static_cast<std::size_t>(row1) * uw;
    ts.zl = std::min(dw < 0 ? -dw : 0, g.width);
    ts.zr = std::max(g.width - (dw > 0 ? dw : 0), ts.zl);
    ts.flo = std::max(ts.lo, ts.rlo);
    ts.fhi = std::max(std::min(ts.hi, ts.rhi), ts.flo);
    ts.ncz = 0;
    if (ts.zl > 0 || ts.zr < g.width) {
      if (g.width <= kTileCols && kTileCols % g.width == 0) {
        for (int j = 0; j < kTileCols; ++j) {
          const int jm = j % g.width;
          if (jm < ts.zl || jm >= ts.zr) ts.cz[ts.ncz++] = j;
        }
      } else {
        ts.fhi = ts.flo;  // column phase varies per tile: general path only
      }
    }
  }

  // gemm_tiled_pa_ep with the B-panel pack replaced by the direct gather.
  // plane % 16 == 0 means every micro-panel sits inside one sample and
  // every panel width is a multiple of 16, so there are no ragged column
  // edges; m % 4 == 0 removes the ragged row edge. Same packed values, same
  // kernel, same sweep order as the explicit composition — bitwise
  // identical output.
  gemm_ep_panels(a, nullptr, c, n, ep,
                 [&](int p0, int full_tiles, float* packed) {
    for (int p = 0; p < k; ++p) {
      const TapSpec& ts = taps[p % kk];
      const float* chan = src + static_cast<std::size_t>(p / kk) * plane;
      std::size_t ni = static_cast<std::size_t>(p0) / plane;
      std::size_t q0 = static_cast<std::size_t>(p0) - ni * plane;
      std::size_t rowbase = (q0 / uw) * uw;
      const float* splane = chan + ni * sample;
      for (int jt = 0; jt < full_tiles; ++jt) {
        float* dst = packed + (static_cast<std::size_t>(jt) * k +
                               static_cast<std::size_t>(p)) *
                                  kTileCols;
        if (q0 >= ts.flo && q0 + kTileCols <= ts.fhi) {
          std::memcpy(dst, splane + q0 + ts.shift,
                      kTileCols * sizeof(float));
          for (int z = 0; z < ts.ncz; ++z) dst[ts.cz[z]] = 0.0f;
        } else {
          gather_tap_row16(splane, ts, uw, q0, rowbase, dst);
        }
        q0 += kTileCols;
        if (q0 == plane) {
          q0 = 0;
          rowbase = 0;
          splane += sample;
        } else {
          while (q0 - rowbase >= uw) rowbase += uw;
        }
      }
    }
  });
}

void permute_channel_major_add(const float* src, float* dst, int batch,
                               int channels, std::size_t plane) {
  const std::size_t ncols = plane * static_cast<std::size_t>(batch);
  const GemmKernels& kernels = active_gemm_kernels();
  util::parallel_for(kernel_pool(), 0, static_cast<std::size_t>(batch),
                     [&](std::size_t ni) {
    for (int c = 0; c < channels; ++c) {
      const std::size_t nchw =
          (ni * static_cast<std::size_t>(channels) + c) * plane;
      const std::size_t cmajor =
          static_cast<std::size_t>(c) * ncols + ni * plane;
      kernels.axpy_f32(1.0f, src + cmajor, dst + nchw, plane);
    }
  });
}

void gemm_tiled(const float* a, const float* b, float* c, int m, int k, int n,
                bool accumulate) {
  ODENET_CHECK(m >= 0 && k >= 0 && n >= 0, "bad gemm dimensions");
  // Per-call A packing into recycled thread-local storage; layers that
  // call repeatedly with fixed weights should cache a PackedGemmA and use
  // gemm_tiled_pa directly (Conv2d/Linear do, keyed by weight version).
  static thread_local PackedGemmA pa;
  pack_gemm_a(a, m, k, pa);
  gemm_tiled_pa(pa, b, c, n, accumulate);
}

void pack_gemm_b_nt(const float* bt, int k, int n, PackedGemmB& out) {
  ODENET_CHECK(k >= 0 && n >= 0, "bad pack_gemm_b_nt dimensions");
  out.k = k;
  out.n = n;
  const int col_tiles = (n + kTileCols - 1) / kTileCols;
  out.data.resize(static_cast<std::size_t>(col_tiles) *
                  static_cast<std::size_t>(std::max(k, 1)) * kTileCols);
  for (int t = 0; t < col_tiles; ++t) {
    const int j0 = t * kTileCols;
    const int nr = std::min(kTileCols, n - j0);
    float* panel = out.data.data() +
                   static_cast<std::size_t>(t) * k * kTileCols;
    for (int p = 0; p < k; ++p) {
      float* dst = panel + static_cast<std::size_t>(p) * kTileCols;
      for (int j = 0; j < nr; ++j) {
        // B[p][j0+j] = bt[(j0+j)*k + p] (bt stores B^T row-major).
        dst[j] = bt[(j0 + j) * static_cast<std::size_t>(k) + p];
      }
      for (int j = nr; j < kTileCols; ++j) dst[j] = 0.0f;
    }
  }
}

void gemm_tiled_pb(const float* a, const PackedGemmB& b, float* c, int m,
                   bool accumulate) {
  ODENET_CHECK(m >= 0, "bad gemm dimensions");
  const int k = b.k, n = b.n;
  if (m == 0 || n == 0) return;
  const GemmKernels& kernels = active_gemm_kernels();
  const int col_tiles = (n + kTileCols - 1) / kTileCols;
  const int row_tiles = (m + kTileRows - 1) / kTileRows;
  static thread_local PackedGemmA pa_storage;
  pack_gemm_a(a, m, k, pa_storage);
  // Pool workers must read the CALLER's pack: naming the thread_local
  // inside the lambda would resolve to each worker's own (empty) copy.
  const PackedGemmA& pa = pa_storage;

  auto run_tiles = [&](int t0, int t1) {
    // Edge tiles run the full-width kernel into a scratch tile (packed
    // panels are zero-padded, so phantom lanes compute zeros) and copy the
    // live mr x nr corner out — every k-loop is vectorized, which matters
    // for the m = 1 single-request Linear.
    float tile[kTileRows * kTileCols];
    for (int t = t0; t < t1; ++t) {
      const int i0 = t * kTileRows;
      const int mr = std::min(kTileRows, m - i0);
      const float* apanel = pa.data.data() +
                            static_cast<std::size_t>(t) * k * kTileRows;
      for (int jt = 0; jt < col_tiles; ++jt) {
        const int j0 = jt * kTileCols;
        const int nr = std::min(kTileCols, n - j0);
        const float* bpanel = b.data.data() +
                              static_cast<std::size_t>(jt) * k * kTileCols;
        if (mr == kTileRows && nr == kTileCols) {
          kernels.tile4x16(apanel, bpanel, k,
                           c + (static_cast<std::size_t>(i0) * n + j0),
                           static_cast<std::size_t>(n), accumulate);
        } else {
          kernels.tile4x16(apanel, bpanel, k, tile, kTileCols,
                           /*accumulate=*/false);
          for (int i = 0; i < mr; ++i) {
            float* crow = c + (i0 + i) * static_cast<std::size_t>(n) + j0;
            const float* trow = tile + i * kTileCols;
            for (int j = 0; j < nr; ++j) {
              crow[j] = accumulate ? crow[j] + trow[j] : trow[j];
            }
          }
        }
      }
    }
  };

  const std::size_t flops = 2ull * static_cast<std::size_t>(m) *
                            static_cast<std::size_t>(k) *
                            static_cast<std::size_t>(n);
  util::ThreadPool& pool = kernel_pool();
  if (flops < gemm_parallel_min_flops() || pool.worker_count() <= 1) {
    run_tiles(0, row_tiles);
    return;
  }
  util::parallel_for(pool, 0, static_cast<std::size_t>(row_tiles),
                     [&](std::size_t t) {
    run_tiles(static_cast<int>(t), static_cast<int>(t) + 1);
  });
}

void gemm_bt_tiled(const float* a, const float* b, float* c, int m, int k,
                   int n, bool accumulate) {
  ODENET_CHECK(m >= 0 && k >= 0 && n >= 0, "bad gemm dimensions");
  // Row quads: each 4-row tile of C streams the whole of B once; the four
  // A rows (and the current B row) stay cache-hot across the tile. The
  // inner dot runs over independent partial sums (scalar: 8-way unroll the
  // vectorizer packs; AVX2: explicit FMA lanes) — see gemm_kernels.hpp.
  const GemmKernels& kernels = active_gemm_kernels();
  const int row_tiles = (m + kTileRows - 1) / kTileRows;
  auto run_tile = [&](std::size_t t) {
    const int i0 = static_cast<int>(t) * kTileRows;
    const int mr = std::min(kTileRows, m - i0);
    for (int j = 0; j < n; ++j) {
      const float* brow = b + static_cast<std::size_t>(j) * k;
      for (int i = 0; i < mr; ++i) {
        const float* arow = a + (i0 + i) * static_cast<std::size_t>(k);
        float* cv = c + (i0 + i) * static_cast<std::size_t>(n) + j;
        const float dot = kernels.dot(arow, brow, k);
        *cv = accumulate ? *cv + dot : dot;
      }
    }
  };
  const std::size_t flops = 2ull * static_cast<std::size_t>(m) *
                            static_cast<std::size_t>(k) *
                            static_cast<std::size_t>(n);
  util::ThreadPool& pool = kernel_pool();
  if (flops < gemm_parallel_min_flops() || pool.worker_count() <= 1) {
    for (int t = 0; t < row_tiles; ++t) run_tile(static_cast<std::size_t>(t));
    return;
  }
  util::parallel_for(pool, 0, static_cast<std::size_t>(row_tiles), run_tile);
}

}  // namespace odenet::core
