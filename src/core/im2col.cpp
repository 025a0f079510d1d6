#include "core/im2col.hpp"

#include <algorithm>
#include <cstring>

#include "core/gemm_driver.hpp"
#include "core/gemm_kernels.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace odenet::core {

namespace {

// Micro-kernel geometry (see core/gemm_kernels.hpp — the 4 x 16 tile
// every tier shares; row pairs run the 8 x 16 entries).
constexpr int kTileRows = kGemmTileRows;
constexpr int kTileCols = kGemmTileCols;

// Per-tap gather plan for the stride-1 "same" lowering: column row (c, kh,
// kw) of the im2col matrix is the input plane flat-shifted by `shift` with
// out-of-image taps zeroed. [lo, hi) bounds the plane range whose shifted
// source lies inside the plane at all; [zl, zr) the horizontally-valid
// columns within each row. No row mask is needed: a position whose column
// is valid reads inside the plane exactly when its source row is inside
// the image, so [lo, hi) clips the rows.
struct TapSpec {
  std::ptrdiff_t shift = 0;
  std::size_t lo = 0, hi = 0;
  std::size_t zl = 0, zr = 0;
  // Fast interior range of the implicit fill: a micro-panel row wholly
  // inside [lo, fhi) is one constant-size 16-element copy plus pointwise
  // zeros at its column-clipped in-tile positions. Tiles are 16-aligned
  // and the plane is a multiple of 16, so when the image width divides 16
  // every tile covers whole rows (cz[0] lists its clips), and when 16
  // divides the width every tile lies in one row: a tap reaches at most
  // kernel / 2 < 16 columns past the edge, so only a row's first tile
  // (cz[0]) and last tile (cz[1]) clip. Other widths take the general
  // gather.
  std::size_t fhi = 0;
  int cz[2][kTileCols] = {};
  int ncz[2] = {};
};

constexpr int kMaxTaps = 49;  // kernels up to 7x7

/// True when g lowers through a tap plan: stride-1 "same" geometry (out
/// extents == in extents) with a kernel of at most kMaxTaps taps.
bool tap_plan_ok(const LoweringGeometry& g) {
  return g.stride == 1 && g.height > 0 && g.width > 0 &&
         g.out_h() == g.height && g.out_w() == g.width &&
         g.kernel * g.kernel <= kMaxTaps;
}

/// Fills taps[kh * K + kw] for every tap of g (requires tap_plan_ok(g)).
void plan_taps(const LoweringGeometry& g, TapSpec* taps) {
  const std::size_t w = static_cast<std::size_t>(g.width);
  const std::size_t plane = static_cast<std::size_t>(g.height) * w;
  for (int t = 0; t < g.kernel * g.kernel; ++t) {
    const int dh = t / g.kernel - g.pad, dw = t % g.kernel - g.pad;
    // The tap's offset as magnitudes: rows up (dh < 0) or down, columns
    // left (dw < 0) or right. A tap may lie further off the plane than it
    // has rows or columns (k = 5, pad = 2 on a one-row input).
    const std::size_t up = dh < 0 ? static_cast<std::size_t>(-dh) : 0;
    const std::size_t down = dh > 0 ? static_cast<std::size_t>(dh) : 0;
    const std::size_t left = dw < 0 ? static_cast<std::size_t>(-dw) : 0;
    const std::size_t right = dw > 0 ? static_cast<std::size_t>(dw) : 0;
    TapSpec& ts = taps[t];
    ts.shift = static_cast<std::ptrdiff_t>(dh) * g.width + dw;
    const std::size_t back = up * w + left, ahead = down * w + right;
    ts.lo = std::min(back > ahead ? back - ahead : 0, plane);
    ts.hi = std::max(plane - std::min(plane, ahead > back ? ahead - back : 0),
                     ts.lo);
    // The flat shift wraps row ends into neighboring rows; those columns
    // read outside [0, w) and must be zero.
    ts.zl = std::min(left, w);
    ts.zr = std::max(w - std::min(right, w), ts.zl);
    ts.fhi = ts.hi;
    ts.ncz[0] = ts.ncz[1] = 0;
    if (ts.zl > 0 || ts.zr < w) {
      if (kTileCols % w == 0 || w % kTileCols == 0) {
        // Column of in-tile position j in a row's first tile (jf, wrapping
        // every w columns) and in its last (jl). Counted, not divided:
        // every conv call plans its taps.
        std::size_t jf = 0;
        for (int j = 0; j < kTileCols; ++j) {
          const std::size_t jl =
              w > kTileCols ? w - kTileCols + static_cast<std::size_t>(j)
                            : jf;
          if (jf < ts.zl || jf >= ts.zr) ts.cz[0][ts.ncz[0]++] = j;
          if (jl < ts.zl || jl >= ts.zr) ts.cz[1][ts.ncz[1]++] = j;
          if (++jf == w) jf = 0;
        }
      } else {
        ts.fhi = ts.lo;  // column phase varies per tile: general path only
      }
    }
  }
}

/// Fills dst[0, len) with positions [q0, q0 + len) of the tap-shifted
/// plane, out-of-image taps zero. rowbase is the flat offset of the row
/// containing q0 (tracked by the caller, so no division is needed).
template <typename T>
inline void gather_tap_row(const T* splane, const TapSpec& ts, std::size_t w,
                           std::size_t q0, std::size_t rowbase,
                           std::size_t len, T* dst) {
  const std::size_t q1 = q0 + len;
  const std::size_t a0 = std::max(q0, ts.lo);
  const std::size_t a1 = std::min(q1, ts.hi);
  if (a1 <= a0) {
    std::memset(dst, 0, len * sizeof(T));
    return;
  }
  if (a0 > q0) std::memset(dst, 0, (a0 - q0) * sizeof(T));
  std::memcpy(dst + (a0 - q0), splane + a0 + ts.shift, (a1 - a0) * sizeof(T));
  if (q1 > a1) std::memset(dst + (a1 - q0), 0, (q1 - a1) * sizeof(T));
  // Columns clipped by the horizontal shift, row by covered row.
  if (ts.zl > 0 || ts.zr < w) {
    for (std::size_t rb = rowbase; rb < a1; rb += w) {
      std::size_t s = std::max(a0, rb);
      std::size_t e = std::min(a1, rb + ts.zl);
      for (; s < e; ++s) dst[s - q0] = T{};
      s = std::max(a0, rb + ts.zr);
      e = std::min(a1, rb + w);
      for (; s < e; ++s) dst[s - q0] = T{};
    }
  }
}

/// Where a lowering reads channel c of sample n: the data planes of x
/// [N, data_channels, H, W], then — for a conv with a time channel — one
/// [H*W] plane of t that every sample shares as its last channel.
template <typename T>
struct PlaneSource {
  const T* x;
  const T* time_plane;  // nullptr: no time channel
  int data_channels;
  std::size_t plane;

  PlaneSource(const T* src, const T* tplane, const LoweringGeometry& g)
      : x(src),
        time_plane(tplane),
        data_channels(g.channels - (tplane != nullptr ? 1 : 0)),
        plane(static_cast<std::size_t>(g.height) * g.width) {
    ODENET_CHECK(data_channels >= 0,
                 "a lowering with a time plane needs a channel for it");
  }

  const T* at(std::size_t n, int c) const {
    if (c == data_channels) return time_plane;
    return x + (n * static_cast<std::size_t>(data_channels) +
                static_cast<std::size_t>(c)) *
                   plane;
  }
};

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

/// Lowers sample n: its lowered row r lives at dst + r * row_stride, one
/// sample's column block of the batched matrix. With a tap plan (the
/// stride-1 "same" geometry) each row is the whole input plane gathered
/// through its tap. Otherwise the valid output-column range of each (kh,
/// kw) tap is computed once, so the interior is a branch-free copy: one
/// memcpy per output row at stride 1, a gathered strided copy otherwise.
/// Values are identical to the naive per-element walk (zeros outside,
/// source reads inside). Templated on the element type: the float
/// instantiation serves Conv2d, the int16 one lowers pre-quantized
/// activations for the integer GEMM.
template <typename T>
void im2col_sample(const PlaneSource<T>& src, std::size_t n,
                   const LoweringGeometry& g, const TapSpec* taps,
                   std::size_t row_stride, T* dst) {
  std::size_t row = 0;
  if (taps != nullptr) {
    const std::size_t w = static_cast<std::size_t>(g.width);
    for (int c = 0; c < g.channels; ++c) {
      const T* cplane = src.at(n, c);
      for (int t = 0; t < g.kernel * g.kernel; ++t, ++row) {
        gather_tap_row(cplane, taps[t], w, 0, 0, src.plane,
                       dst + row * row_stride);
      }
    }
    return;
  }
  const int ho = g.out_h(), wo = g.out_w();
  for (int c = 0; c < g.channels; ++c) {
    const T* cplane = src.at(n, c);
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

/// Adjoint of im2col_sample for one channel plane: scatter-adds its K*K
/// lowered rows (row_stride apart) into dst. With a tap plan each tap's
/// in-image positions are contiguous spans of whole rows, added span by
/// span; otherwise the general walk visits (kh, kw, oh, ow) with a bounds
/// test per tap. Either way every element receives its adds in tap order,
/// so both give the naive scatter's values bit for bit.
void col2im_plane(const float* cols, const LoweringGeometry& g,
                  const TapSpec* taps, std::size_t row_stride, float* dst) {
  const int kk = g.kernel * g.kernel;
  if (taps != nullptr) {
    const std::size_t w = static_cast<std::size_t>(g.width);
    for (int t = 0; t < kk; ++t) {
      const TapSpec& ts = taps[t];
      const float* in = cols + static_cast<std::size_t>(t) * row_stride;
      // Position q reads dst[q + shift]; it is in-image when q lies in
      // [lo, hi) and its column in [zl, zr).
      for (std::size_t rb = ts.lo / w * w; rb < ts.hi; rb += w) {
        const std::size_t s = std::max(ts.lo, rb + ts.zl);
        const std::size_t e = std::min(ts.hi, rb + ts.zr);
        if (s >= e) continue;
        float* out = dst + static_cast<std::ptrdiff_t>(s) + ts.shift;
        const float* src = in + s;
        for (std::size_t j = 0; j < e - s; ++j) out[j] += src[j];
      }
    }
    return;
  }
  const int ho = g.out_h(), wo = g.out_w();
  for (int t = 0; t < kk; ++t) {
    const int kh = t / g.kernel, kw = t % g.kernel;
    const float* in_row = cols + static_cast<std::size_t>(t) * row_stride;
    for (int oh = 0; oh < ho; ++oh) {
      const int ih = oh * g.stride - g.pad + kh;
      if (ih < 0 || ih >= g.height) continue;
      float* out = dst + static_cast<std::size_t>(ih) * g.width;
      const float* in = in_row + static_cast<std::size_t>(oh) * wo;
      for (int ow = 0; ow < wo; ++ow) {
        const int iw = ow * g.stride - g.pad + kw;
        if (iw >= 0 && iw < g.width) out[iw] += in[ow];
      }
    }
  }
}

template <typename T>
void im2col_batch(const T* src, const LoweringGeometry& g, int batch, T* dst,
                  const T* time_plane) {
  ODENET_CHECK(batch > 0, "im2col_batched needs a non-empty batch");
  const PlaneSource<T> in(src, time_plane, g);
  TapSpec taps[kMaxTaps];
  const bool planned = tap_plan_ok(g);
  if (planned) plan_taps(g, taps);
  const std::size_t cc = g.col_cols();
  const std::size_t row_stride = cc * static_cast<std::size_t>(batch);
  util::parallel_for(kernel_pool(), 0, static_cast<std::size_t>(batch),
                     [&](std::size_t ni) {
    im2col_sample(in, ni, g, planned ? taps : nullptr, row_stride,
                  dst + ni * cc);
  });
}

}  // namespace

void im2col_batched(const float* src, const LoweringGeometry& g, int batch,
                    float* dst, const float* time_plane) {
  im2col_batch(src, g, batch, dst, time_plane);
}

void im2col_batched_i16(const std::int16_t* src, const LoweringGeometry& g,
                        int batch, std::int16_t* dst,
                        const std::int16_t* time_plane) {
  im2col_batch(src, g, batch, dst, time_plane);
}

void col2im_batched(const float* cols, const LoweringGeometry& g, int batch,
                    float* dst) {
  ODENET_CHECK(batch > 0, "col2im_batched needs a non-empty batch");
  TapSpec taps[kMaxTaps];
  const bool planned = tap_plan_ok(g);
  if (planned) plan_taps(g, taps);
  const std::size_t plane = static_cast<std::size_t>(g.height) * g.width;
  const std::size_t cc = g.col_cols();
  const std::size_t row_stride = cc * static_cast<std::size_t>(batch);
  const std::size_t kk = static_cast<std::size_t>(g.kernel) * g.kernel;
  const std::size_t channels = static_cast<std::size_t>(g.channels);
  // One task per (sample, channel) plane: disjoint writes, so one sample's
  // scatter spreads over the pool too.
  util::parallel_for(kernel_pool(), 0,
                     static_cast<std::size_t>(batch) * channels,
                     [&](std::size_t task) {
    const std::size_t ni = task / channels, c = task % channels;
    col2im_plane(cols + c * kk * row_stride + ni * cc, g,
                 planned ? taps : nullptr, row_stride, dst + task * plane);
  });
}

namespace {

/// Terms gemm_tiled_bt sums per scratch tile before adding it to C.
constexpr int kSumDepth = 128;

/// Floats in one packed [k][16] B micro-panel.
std::size_t micro_panel_floats(int k) {
  return static_cast<std::size_t>(std::max(k, 1)) * kTileCols;
}

/// Row tile t of a packed A: its [k][4] panel.
const float* a_panel(const PackedGemmA& a, int t) {
  return a.data.data() + static_cast<std::size_t>(t) * a.k * kTileRows;
}

/// Panel fill from a row-major B[k,n]: the full-width column tiles of the
/// panel's pn columns copied into contiguous [k][16] micro-panels in one
/// sequential pass over B (its ragged tile is read in place by edge_dot).
/// Rows of a wide B sit one page apart, so sweeping them once per ROW TILE
/// of A would touch k pages per sweep and thrash the TLB; packed, every
/// micro-kernel read is sequential.
void pack_b_panel(const float* b, int k, int n, int p0, int pn,
                  float* packed) {
  const int full_tiles = pn / kTileCols;
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

/// The fused-epilogue GEMM over any panel fill, every tile stored through
/// `out`: full tiles run the fused micro-kernel (a tile straddling two
/// samples through a scratch tile); ragged ones run edge_dot then the SAME
/// epilogue chain inline (ISA-independent). The epilogue is per-element,
/// so thread-count invariance stays structural. b is the row-major B the
/// ragged path reads (nullptr for the implicit lowering, whose geometry
/// has no ragged tile).
template <typename Fill>
void gemm_ep_panels(const PackedGemmA& a, const float* b, float* c, int n,
                    const detail::NchwStore& out, const GemmEpilogue& ep,
                    const Fill& fill) {
  const int k = a.k;
  const GemmKernels& kernels = active_gemm_kernels();
  detail::gemm_panels<float>(
      a.m, k, n, micro_panel_floats(k), fill,
      [&](int t, int rows, int j0, const float* bp) {
        const int i0 = t * kTileRows;
        const float* scale = ep.scale != nullptr ? ep.scale + i0 : nullptr;
        const float* shift = ep.shift != nullptr ? ep.shift + i0 : nullptr;
        if (out.tile_in_sample(j0)) {
          const std::size_t at = out.at(i0, j0);
          const float* residual =
              ep.residual != nullptr ? ep.residual + at : nullptr;
          if (rows == kGemmPairRows) {
            kernels.tile8x16_ep(a_panel(a, t), a_panel(a, t + 1), bp, k,
                                c + at, out.plane, scale, shift, ep.relu,
                                residual, out.plane, ep.beta);
          } else {
            kernels.tile4x16_ep(a_panel(a, t), bp, k, c + at, out.plane,
                                scale, shift, ep.relu, residual, out.plane,
                                ep.beta);
          }
          return;
        }
        for (int r = 0; r < rows; r += kTileRows) {
          out.straddled_tile(c, ep.residual, i0 + r, j0, [&](float* tile) {
            kernels.tile4x16_ep(
                a_panel(a, t + r / kTileRows), bp, k, tile, kTileCols,
                scale != nullptr ? scale + r : nullptr,
                shift != nullptr ? shift + r : nullptr, ep.relu,
                ep.residual != nullptr ? tile : nullptr, kTileCols, ep.beta);
          });
        }
      },
      [&](int t, int j0, int mr, int nr, const float*) {
        for (int i = 0; i < mr; ++i) {
          const int row = t * kTileRows + i;
          for (int j = 0; j < nr; ++j) {
            const std::size_t at = out.at(row, j0 + j);
            float sum = edge_dot(a_panel(a, t), i, b + j0 + j, k, n, 0.0f);
            // The epilogue chain, op for op the micro-kernel's.
            if (ep.scale != nullptr) sum = sum * ep.scale[row];
            if (ep.shift != nullptr) sum = sum + ep.shift[row];
            if (ep.relu) sum = sum > 0.0f ? sum : 0.0f;
            if (ep.residual != nullptr) sum = sum + ep.beta * ep.residual[at];
            c[at] = sum;
          }
        }
      });
}

/// The implicit lowering's panel fill: columns [p0, p0 + pn) of g's
/// lowered rows (plane-major, taps inner), each of the panel's full
/// 16-column tiles gathered straight from `in`'s planes through the tap
/// plan into a [rows][16] micro-panel. T is the 4-byte element of one
/// plane: a float channel (gemm_tiled_pa_ep_lowered) or an I16Pair of
/// two int16 channels (gemm_i16_pairs_lowered, whose g has one channel
/// per pair plane, so each row is one [16][2] int16 row of the panel).
template <typename T>
void fill_lowered_panel(const PlaneSource<T>& in, const LoweringGeometry& g,
                        const TapSpec* taps, int p0, int pn, T* packed) {
  const int k = static_cast<int>(g.col_rows());
  const int kk = g.kernel * g.kernel;
  const std::size_t uw = static_cast<std::size_t>(g.width);
  const std::size_t plane = in.plane;
  const int full_tiles = pn / kTileCols;
  for (int p = 0; p < k; ++p) {
    const TapSpec& ts = taps[p % kk];
    const int ch = p / kk;
    std::size_t ni = static_cast<std::size_t>(p0) / plane;
    std::size_t q0 = static_cast<std::size_t>(p0) - ni * plane;
    std::size_t rowbase = (q0 / uw) * uw;
    const T* splane = in.at(ni, ch);
    for (int jt = 0; jt < full_tiles; ++jt) {
      T* dst = packed + (static_cast<std::size_t>(jt) * k +
                         static_cast<std::size_t>(p)) *
                            kTileCols;
      if (q0 >= ts.lo && q0 + kTileCols <= ts.fhi) {
        std::memcpy(dst, splane + q0 + ts.shift, kTileCols * sizeof(T));
        // A row's first tile, its last, or (wide rows) a middle one.
        const std::size_t col0 = q0 - rowbase;
        const int phase = col0 == 0 ? 0 : col0 + kTileCols == uw ? 1 : -1;
        if (phase >= 0) {
          const int* cz = ts.cz[phase];
          for (int z = 0; z < ts.ncz[phase]; ++z) dst[cz[z]] = T{};
        }
      } else {
        gather_tap_row(splane, ts, uw, q0, rowbase, kTileCols, dst);
      }
      q0 += kTileCols;
      if (q0 == plane) {
        q0 = 0;
        rowbase = 0;
        if (jt + 1 < full_tiles) splane = in.at(++ni, ch);
      } else {
        while (q0 - rowbase >= uw) rowbase += uw;
      }
    }
  }
}

/// Channel-pair planes per sample of g's input: its data channels two to
/// a plane (an odd last one beside a zero lane), then the time channel,
/// g.channels' last when time_channel, in a plane of its own.
int pair_planes(const LoweringGeometry& g, bool time_channel) {
  const int data = g.channels - (time_channel ? 1 : 0);
  return (data + 1) / 2 + (time_channel ? 1 : 0);
}

/// Packs A[i][p] = a[i * row_stride + p * col_stride] into the row-panel
/// layout: row-major A (row_stride k, col_stride 1) or A stored
/// transposed (row_stride 1, col_stride m). With batch > 1 the columns
/// split into `batch` blocks of k / batch, block s read from
/// a + s * m * row_stride: A is the NCHW [batch, m, k / batch] tensor
/// (row_stride k / batch) read as the [m, k] matrix whose column block s
/// is sample s.
void pack_a_strided(const float* a, int m, int k, std::size_t row_stride,
                    std::size_t col_stride, PackedGemmA& out,
                    int batch = 1) {
  ODENET_CHECK(m >= 0 && k >= 0, "bad pack_gemm_a dimensions");
  out.m = m;
  out.k = k;
  const int row_tiles = (m + kTileRows - 1) / kTileRows;
  out.data.resize(static_cast<std::size_t>(row_tiles) *
                  static_cast<std::size_t>(std::max(k, 1)) * kTileRows);
  const std::size_t kb = static_cast<std::size_t>(k / batch);
  const std::size_t sample_stride = static_cast<std::size_t>(m) * row_stride;
  for (int t = 0; t < row_tiles; ++t) {
    const int i0 = t * kTileRows;
    const int mr = std::min(kTileRows, m - i0);
    float* dst = out.data.data() + static_cast<std::size_t>(t) * k * kTileRows;
    for (int s = 0; s < batch; ++s) {
      const float* rows = a + static_cast<std::size_t>(s) * sample_stride +
                          static_cast<std::size_t>(i0) * row_stride;
      for (std::size_t q = 0; q < kb; ++q, dst += kTileRows) {
        const float* src = rows + q * col_stride;
        for (int i = 0; i < kTileRows; ++i) {
          dst[i] = i < mr ? src[static_cast<std::size_t>(i) * row_stride]
                          : 0.0f;
        }
      }
    }
  }
}

/// Panel fill from B stored transposed, rows bt[j * ldb ..] (a Linear
/// weight [out, in], a conv's column matrix [kk, N*Ho*Wo]): depth [k0,
/// k0 + k) of columns [p0, p0 + pn) into [k][16] micro-panels, the ragged
/// last tile zero-padded so it runs on the full kernel too. Each
/// micro-panel reads its 16 rows of bt as 16 sequential streams.
void pack_bt_panel(const float* bt, std::size_t ldb, int k0, int k, int p0,
                   int pn, float* packed) {
  for (int jt = 0; jt * kTileCols < pn; ++jt) {
    const int nr = std::min(kTileCols, pn - jt * kTileCols);
    const float* rows[kTileCols];
    for (int j = 0; j < nr; ++j) {
      rows[j] = bt + static_cast<std::size_t>(p0 + jt * kTileCols + j) * ldb +
                k0;
    }
    float* dst = packed + static_cast<std::size_t>(jt) * k * kTileCols;
    for (int p = 0; p < k; ++p, dst += kTileCols) {
      for (int j = 0; j < nr; ++j) dst[j] = rows[j][p];
      for (int j = nr; j < kTileCols; ++j) dst[j] = 0.0f;
    }
  }
}

/// Recycled storage for the per-call A pack of gemm_tiled and
/// gemm_tiled_bt. Pool workers must read the CALLER's pack through a
/// reference: naming this inside a worker resolves to the worker's own.
PackedGemmA& call_pack() {
  static thread_local PackedGemmA pa;
  return pa;
}

}  // namespace

void pack_gemm_a(const float* a, int m, int k, PackedGemmA& out,
                 int batch) {
  ODENET_CHECK(batch > 0 && k % batch == 0,
               "bad pack_gemm_a dimensions: k " << k << ", batch " << batch);
  pack_a_strided(a, m, k, static_cast<std::size_t>(k / batch), 1, out,
                 batch);
}

void pack_gemm_at(const float* at, int m, int k, PackedGemmA& out,
                  int ld) {
  ODENET_CHECK(ld == 0 || ld >= m,
               "pack_gemm_at: row stride " << ld << " < m " << m);
  pack_a_strided(at, m, k, 1, static_cast<std::size_t>(ld == 0 ? m : ld),
                 out);
}

void gemm_tiled_pa(const PackedGemmA& a, const float* b, float* c, int n,
                   bool accumulate) {
  ODENET_CHECK(n >= 0, "bad gemm dimensions");
  const int k = a.k;
  const GemmKernels& kernels = active_gemm_kernels();
  const std::size_t ldc = static_cast<std::size_t>(n);
  detail::gemm_panels<float>(
      a.m, k, n, micro_panel_floats(k),
      [&](int p0, int pn, float* packed) {
        pack_b_panel(b, k, n, p0, pn, packed);
      },
      [&](int t, int rows, int j0, const float* bp) {
        float* ct = c + static_cast<std::size_t>(t) * kTileRows * ldc + j0;
        if (rows == kGemmPairRows) {
          kernels.tile8x16(a_panel(a, t), a_panel(a, t + 1), bp, k, ct, ldc,
                           accumulate);
        } else {
          kernels.tile4x16(a_panel(a, t), bp, k, ct, ldc, accumulate);
        }
      },
      [&](int t, int j0, int mr, int nr, const float*) {
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
                      const GemmEpilogue& ep, int batch) {
  ODENET_CHECK(n >= 0 && batch > 0 && n % batch == 0,
               "bad gemm dimensions: n " << n << ", batch " << batch);
  const detail::NchwStore out{static_cast<std::size_t>(a.m),
                              static_cast<std::size_t>(n / batch)};
  gemm_ep_panels(a, b, c, n, out, ep, [&](int p0, int pn, float* packed) {
    pack_b_panel(b, a.k, n, p0, pn, packed);
  });
}

bool gemm_implicit_lowering_ok(const LoweringGeometry& g, int m) {
  const std::size_t plane =
      static_cast<std::size_t>(g.height) * static_cast<std::size_t>(g.width);
  return tap_plan_ok(g) && plane % kTileCols == 0 && m % kTileRows == 0;
}

void gemm_tiled_pa_ep_lowered(const PackedGemmA& a, const float* src,
                              const LoweringGeometry& g, int batch, float* c,
                              const GemmEpilogue& ep,
                              const float* time_plane) {
  const int m = a.m, k = a.k;
  ODENET_CHECK(gemm_implicit_lowering_ok(g, m),
               "gemm_tiled_pa_ep_lowered: geometry not implicit-eligible");
  ODENET_CHECK(k == static_cast<int>(g.col_rows()),
               "gemm_tiled_pa_ep_lowered: packed A k " << k
                   << " != lowering rows " << g.col_rows());
  ODENET_CHECK(batch > 0, "gemm_tiled_pa_ep_lowered needs a non-empty batch");
  const PlaneSource<float> in(src, time_plane, g);
  TapSpec taps[kMaxTaps];
  plan_taps(g, taps);

  // gemm_tiled_pa_ep with the B-panel pack replaced by the direct gather.
  // plane % 16 == 0 means every micro-panel (and every output tile) sits
  // inside one sample and every panel width is a multiple of 16, so there
  // are no ragged column edges; m % 4 == 0 removes the ragged row edge.
  // Same packed values, same kernel, same sweep order as the explicit
  // composition — bitwise identical output.
  const detail::NchwStore out{static_cast<std::size_t>(m), in.plane};
  gemm_ep_panels(a, nullptr, c, static_cast<int>(in.plane) * batch, out, ep,
                 [&](int p0, int pn, float* packed) {
                   fill_lowered_panel(in, g, taps, p0, pn, packed);
                 });
}

void pack_gemm_a_i16_pairs(const std::int16_t* w, int m,
                           const LoweringGeometry& g, bool time_channel,
                           PackedGemmA16& out) {
  const int kk = g.kernel * g.kernel;
  const int data = g.channels - (time_channel ? 1 : 0);
  const int pairs = pair_planes(g, time_channel);
  const std::size_t k = static_cast<std::size_t>(g.col_rows());
  const std::size_t kp = static_cast<std::size_t>(pairs) * kk * 2;
  // Pair-major copy [m, kp]: column (q * kk + t) * 2 + s is tap t of
  // channel 2q + s, or of the time channel in its pair's lo lane; zero
  // where no channel sits. Then the one int16 panel pack.
  std::vector<std::int16_t> wp(static_cast<std::size_t>(m) * kp, 0);
  for (int q = 0; q < pairs; ++q) {
    const bool time_pair = time_channel && q == pairs - 1;
    for (int s = 0; s < 2; ++s) {
      const int ch = time_pair ? data : 2 * q + s;
      if (time_pair ? s == 1 : ch >= data) continue;  // a zero lane
      for (int i = 0; i < m; ++i) {
        const std::int16_t* src =
            w + static_cast<std::size_t>(i) * k +
            static_cast<std::size_t>(ch) * kk;
        std::int16_t* dst = wp.data() + static_cast<std::size_t>(i) * kp +
                            static_cast<std::size_t>(q) * kk * 2 + s;
        for (int t = 0; t < kk; ++t) dst[2 * t] = src[t];
      }
    }
  }
  pack_gemm_a_i16(wp.data(), m, static_cast<int>(kp), out);
}

void gemm_i16_pairs_lowered(const PackedGemmA16& a, const I16Pair* src,
                            const LoweringGeometry& g, int batch,
                            std::int32_t* c, const I16Pair* time_plane) {
  const bool timed = time_plane != nullptr;
  ODENET_CHECK(gemm_implicit_lowering_ok(g, a.m),
               "gemm_i16_pairs_lowered: geometry not implicit-eligible");
  // The lowering of the pair planes: g with one channel per pair plane
  // (the same taps), whose rows are A's k-pairs.
  LoweringGeometry gp = g;
  gp.channels = pair_planes(g, timed);
  const int kp = a.kpairs();
  ODENET_CHECK(a.k == 2 * static_cast<int>(gp.col_rows()),
               "gemm_i16_pairs_lowered: packed A k "
                   << a.k << " != 2 x pair rows " << gp.col_rows());
  ODENET_CHECK(batch > 0, "gemm_i16_pairs_lowered needs a non-empty batch");
  const PlaneSource<I16Pair> in(src, time_plane, gp);
  TapSpec taps[kMaxTaps];
  plan_taps(g, taps);
  const std::size_t a_tile = static_cast<std::size_t>(kp) * kTileRows * 2;
  const detail::NchwStore out{static_cast<std::size_t>(a.m), in.plane};
  const GemmKernels& kernels = active_gemm_kernels();
  // As in gemm_tiled_pa_ep_lowered, the eligible geometry leaves no tile
  // ragged or straddling two samples: every tile is one kernel store.
  detail::gemm_panels<I16Pair>(
      a.m, a.k, static_cast<int>(in.plane) * batch,
      static_cast<std::size_t>(kp) * kTileCols,
      [&](int p0, int pn, I16Pair* packed) {
        fill_lowered_panel(in, gp, taps, p0, pn, packed);
      },
      [&](int t, int rows, int j0, const I16Pair* bp) {
        const std::int16_t* apanel = a.data.data() + t * a_tile;
        const std::int16_t* b = &bp->lo;
        std::int32_t* ct = c + out.at(t * kTileRows, j0);
        if (rows == kGemmPairRows) {
          kernels.tile8x16_i16(apanel, apanel + a_tile, b, kp, ct, out.plane,
                               /*accumulate=*/false);
        } else {
          kernels.tile4x16_i16(apanel, b, kp, ct, out.plane,
                               /*accumulate=*/false);
        }
      },
      [](int, int, int, int, const I16Pair*) {});
}

void gemm_tiled(const float* a, const float* b, float* c, int m, int k, int n,
                bool accumulate) {
  ODENET_CHECK(m >= 0 && k >= 0 && n >= 0, "bad gemm dimensions");
  // Layers that call repeatedly with fixed weights cache a PackedGemmA and
  // use gemm_tiled_pa directly (Conv2d does, keyed by weight version).
  PackedGemmA& pa = call_pack();
  pack_gemm_a(a, m, k, pa);
  gemm_tiled_pa(pa, b, c, n, accumulate);
}

void gemm_tiled_bt(const float* a, const float* bt, float* c, int m, int k,
                   int n, bool accumulate, int batch) {
  ODENET_CHECK(m >= 0 && k >= 0 && n >= 0, "bad gemm dimensions");
  PackedGemmA& pa = call_pack();
  pack_gemm_a(a, m, k, pa, batch);
  const GemmKernels& kernels = active_gemm_kernels();
  const std::size_t ldc = static_cast<std::size_t>(n);
  // Depth blocks bound one micro-panel by the driver's panel cap when k
  // is the long axis (a conv dW: k = N*Ho*Wo). Each block is one driver
  // call, so a tile's blocks run in order on whatever worker takes them.
  const int kc = static_cast<int>(detail::kMaxPanelBytes /
                                  (kTileCols * sizeof(float)));
  int k0 = 0;
  do {
    const int kb = std::min(kc, k - k0);
    const bool acc = accumulate || k0 > 0;
    // One tile over the block, kSumDepth terms at a time, each span summed
    // fresh in a scratch tile whose live corner is then stored or added:
    // the rounding error grows with the span and the span count rather
    // than with k, which a conv dW makes thousands long. A full tile sums
    // its first span in place on C, as gemm_tiled_pa's tiles do, so a
    // product no deeper than kSumDepth (the Linear head) runs the plain
    // micro-kernel. Ragged tiles run the full kernel over the zero-padded
    // panels too, so every k loop vectorizes (the m = 1 Linear). mr is 8
    // for a row pair, which runs the 8 x 16 entry.
    auto run_tile = [&](int t, int j0, int mr, int nr, const float* bp) {
      const float* ap =
          a_panel(pa, t) + static_cast<std::size_t>(k0) * kTileRows;
      const std::size_t pair_offset =
          mr == kGemmPairRows ? static_cast<std::size_t>(pa.k) * kTileRows
                              : 0;
      auto kernel = [&](int d, int len, float* dst, std::size_t ld,
                        bool add) {
        const float* ad = ap + static_cast<std::size_t>(d) * kTileRows;
        const float* bd = bp + static_cast<std::size_t>(d) * kTileCols;
        if (pair_offset != 0) {
          kernels.tile8x16(ad, ad + pair_offset, bd, len, dst, ld, add);
        } else {
          kernels.tile4x16(ad, bd, len, dst, ld, add);
        }
      };
      float* ct = c + static_cast<std::size_t>(t) * kTileRows * ldc + j0;
      const bool full = mr >= kTileRows && nr == kTileCols;
      for (int d = 0; d == 0 || d < kb; d += kSumDepth) {
        const int len = std::min(kSumDepth, kb - d);
        const bool add = acc || d > 0;
        if (full && d == 0) {
          kernel(0, len, ct, ldc, add);
          continue;
        }
        float tile[kGemmPairRows * kTileCols];
        kernel(d, len, tile, kTileCols, /*accumulate=*/false);
        for (int i = 0; i < mr; ++i) {
          float* crow = ct + static_cast<std::size_t>(i) * ldc;
          const float* trow = tile + i * kTileCols;
          for (int j = 0; j < nr; ++j) {
            crow[j] = add ? crow[j] + trow[j] : trow[j];
          }
        }
      }
    };
    detail::gemm_panels<float>(
        m, kb, n, micro_panel_floats(kb),
        [&](int p0, int pn, float* packed) {
          pack_bt_panel(bt, static_cast<std::size_t>(k), k0, kb, p0, pn,
                        packed);
        },
        [&](int t, int rows, int j0, const float* bp) {
          run_tile(t, j0, rows, kTileCols, bp);
        },
        run_tile);
    k0 += kc;
  } while (k0 < k);
}

}  // namespace odenet::core
