// The one tiled-GEMM driver behind gemm_tiled_pa, gemm_tiled_pa_ep,
// gemm_tiled_pa_ep_lowered and gemm_tiled_bt (im2col.cpp) and
// gemm_i16_tiled_pa (gemm_kernels.cpp). Internal to src/core: everything
// else calls those.
//
// The driver alone owns the blocking and the thread split:
//  * B is consumed in column panels of up to kPanelCols columns. Every row
//    tile of A sweeps one panel before the next is touched, so the panel
//    is filled from memory once and re-read m/4 times from cache. Without
//    it a batched im2col matrix (k ~ C*9, n ~ N*Ho*Wo, megabytes) would be
//    re-streamed from DRAM once per row tile.
//  * A packed panel holds at most kMaxPanelBytes: k * 256 floats at the
//    paper's largest forward lowering (k = 585), ~0.6 MB. A deeper product
//    gets a narrower panel, down to one 16-column micro-panel; a caller
//    whose k exceeds even that (the conv dW, k = N*Ho*Wo) splits k into
//    blocks itself (gemm_tiled_bt).
//  * One task = one column panel x one row-tile span. When the panels
//    alone cannot feed every worker (the tall-skinny dX GEMM, small
//    batches on wide machines) the row tiles split too, each extra block
//    keeping >= kMinRowTilesPerTask row tiles so its duplicated panel fill
//    stays amortized.
//  * A product under gemm_parallel_min_flops() runs on the calling thread.
// Every output tile's k loop runs whole inside one task, so the result is
// bitwise identical for any split: thread-count invariance is structural.
//
// A caller supplies the two things that differ between the GEMMs:
//  * how a panel is filled — fill(p0, pn, packed) writes the panel's
//    columns [p0, p0 + pn) as contiguous micro-panels of `micro_panel`
//    elements each, one per 16-column tile: every full tile, plus the
//    ragged last one (zero-padded) when the caller's edge() reads it
//    (packed from a row-major or transposed B, gathered from an NCHW
//    image, or pair-interleaved int16);
//  * what a tile runs — full(t, j0, bpanel) for the full 4 x 16 tile of
//    row tile t at column j0, edge(t, j0, mr, nr, bpanel) for a ragged one
//    (the last < 4 rows or < 16 columns), which either reads B in place
//    through an ISA-independent scalar path or runs the full kernel on its
//    zero-padded micro-panel.
// The conv GEMMs store through NchwStore below, so a batched product lands
// in the NCHW feature map without a permute.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "core/gemm_kernels.hpp"
#include "util/thread_pool.hpp"

namespace odenet::core::detail {

inline constexpr int kPanelCols = 256;  // a multiple of kGemmTileCols
inline constexpr std::size_t kMaxPanelBytes =
    std::size_t{585} * kPanelCols * sizeof(float);
inline constexpr int kMinRowTilesPerTask = 8;

/// Where a batched conv GEMM (gemm_tiled_pa_ep, gemm_tiled_pa_ep_lowered,
/// gemm_i16_tiled_pa) stores its product: column j of the
/// [m, batch * plane] product is pixel j % plane of sample j / plane of an
/// NCHW [batch, m, plane] output. At batch 1 (plane == n) that is the
/// row-major C[m, n].
struct NchwStore {
  std::size_t m = 0;
  std::size_t plane = 0;

  std::size_t at(int i, int j) const {
    const std::size_t s = static_cast<std::size_t>(j) / plane;
    return (s * m + static_cast<std::size_t>(i)) * plane +
           (static_cast<std::size_t>(j) - s * plane);
  }

  /// True when the 16 columns from j0 lie in one sample: the tile is then
  /// one kernel store at at(i0, j0) with leading dimension `plane`.
  bool tile_in_sample(int j0) const {
    return static_cast<std::size_t>(j0) % plane + kGemmTileCols <= plane;
  }

  /// A full tile that straddles two samples (only when plane % 16 != 0):
  /// kernel(tile) runs the same micro-kernel into a 4 x 16 scratch tile,
  /// which first holds the tile's window of `in` when it is non-null (the
  /// residual, or C itself when accumulating); then every element is
  /// stored at its place. Same kernel, same values as a contiguous tile.
  template <typename T, typename Kernel>
  void straddled_tile(T* c, const T* in, int i0, int j0,
                      const Kernel& kernel) const {
    T tile[kGemmTileRows * kGemmTileCols];
    if (in != nullptr) {
      for (int i = 0; i < kGemmTileRows; ++i) {
        for (int j = 0; j < kGemmTileCols; ++j) {
          tile[i * kGemmTileCols + j] = in[at(i0 + i, j0 + j)];
        }
      }
    }
    kernel(tile);
    for (int i = 0; i < kGemmTileRows; ++i) {
      for (int j = 0; j < kGemmTileCols; ++j) {
        c[at(i0 + i, j0 + j)] = tile[i * kGemmTileCols + j];
      }
    }
  }
};

template <typename T, typename Fill, typename Full, typename Edge>
void gemm_panels(int m, int k, int n, std::size_t micro_panel,
                 const Fill& fill, const Full& full, const Edge& edge) {
  if (m == 0 || n == 0) return;
  const std::size_t fit = kMaxPanelBytes / (micro_panel * sizeof(T));
  const int panel_cols =
      static_cast<int>(std::clamp<std::size_t>(
          fit, 1, kPanelCols / kGemmTileCols)) *
      kGemmTileCols;
  const int panels = (n + panel_cols - 1) / panel_cols;
  const int row_tiles = (m + kGemmTileRows - 1) / kGemmTileRows;

  auto run_span = [&](int pi, int t0, int t1) {
    const int p0 = pi * panel_cols;
    const int pn = std::min(panel_cols, n - p0);
    // Thread-local, recycled across calls: one per worker.
    static thread_local std::vector<T> packed;
    packed.resize(static_cast<std::size_t>(
                      (pn + kGemmTileCols - 1) / kGemmTileCols) *
                  micro_panel);
    fill(p0, pn, packed.data());
    for (int t = t0; t < t1; ++t) {
      const int mr = std::min(kGemmTileRows, m - t * kGemmTileRows);
      for (int jt = 0; jt < pn; jt += kGemmTileCols) {
        const int nr = std::min(kGemmTileCols, pn - jt);
        const T* bpanel =
            packed.data() +
            static_cast<std::size_t>(jt / kGemmTileCols) * micro_panel;
        if (mr == kGemmTileRows && nr == kGemmTileCols) {
          full(t, p0 + jt, bpanel);
        } else {
          edge(t, p0 + jt, mr, nr, bpanel);
        }
      }
    }
  };

  const std::size_t flops = 2ull * static_cast<std::size_t>(m) *
                            static_cast<std::size_t>(k) *
                            static_cast<std::size_t>(n);
  util::ThreadPool& pool = kernel_pool();
  const std::size_t workers = pool.worker_count();
  if (flops < gemm_parallel_min_flops() || workers <= 1) {
    for (int pi = 0; pi < panels; ++pi) run_span(pi, 0, row_tiles);
    return;
  }
  int row_blocks = 1;
  if (static_cast<std::size_t>(panels) < workers) {
    const int max_blocks =
        (row_tiles + kMinRowTilesPerTask - 1) / kMinRowTilesPerTask;
    row_blocks = std::min<int>(
        max_blocks, static_cast<int>((workers + panels - 1) /
                                     static_cast<std::size_t>(panels)));
    row_blocks = std::max(row_blocks, 1);
  }
  const int tiles_per_block = (row_tiles + row_blocks - 1) / row_blocks;
  util::parallel_for(pool, 0, static_cast<std::size_t>(panels) * row_blocks,
                     [&](std::size_t task) {
                       const int pi = static_cast<int>(task) / row_blocks;
                       const int rb = static_cast<int>(task) % row_blocks;
                       const int t0 = rb * tiles_per_block;
                       const int t1 =
                           std::min(row_tiles, t0 + tiles_per_block);
                       if (t0 < t1) run_span(pi, t0, t1);
                     });
}

}  // namespace odenet::core::detail
