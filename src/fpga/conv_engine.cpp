#include "fpga/conv_engine.hpp"

#include <algorithm>
#include <cstring>

#include "core/gemm_kernels.hpp"

namespace odenet::fpga {

namespace {
constexpr int kRows = core::kGemmTileRows;
constexpr int kCols = core::kGemmTileColsI32;
constexpr int kTaps = 9;
}  // namespace

ConvEngine::ConvEngine(const ConvEngineConfig& cfg)
    : cfg_(cfg), macs_(cfg.parallelism) {
  ODENET_CHECK(cfg.in_channels > 0 && cfg.out_channels > 0,
               "conv engine needs positive channel counts");
  ODENET_CHECK(cfg.extent > 0, "conv engine needs positive extent");
  ODENET_CHECK(cfg.frac_bits > 0 && cfg.frac_bits < 31,
               "bad frac_bits " << cfg.frac_bits);

  // Panel-fill plan. Column tile jt covers output positions [8jt, 8jt+8)
  // of the flattened plane; tap (kh, kw) reads each position's input
  // shifted by (kh-1, kw-1), zero outside the image.
  const int e = cfg.extent;
  const int n = e * e;
  const int col_tiles = (n + kCols - 1) / kCols;
  tap_rows_.resize(static_cast<std::size_t>(col_tiles) * kTaps);
  for (int jt = 0; jt < col_tiles; ++jt) {
    const int q0 = jt * kCols;
    const bool one_row = q0 + kCols <= n && q0 / e == (q0 + kCols - 1) / e;
    for (int tap = 0; tap < kTaps; ++tap) {
      const int dh = tap / 3 - 1, dw = tap % 3 - 1;
      TapRow& r = tap_rows_[static_cast<std::size_t>(jt) * kTaps + tap];
      if (one_row) {
        // The 8 columns are one image row: a copy of the shifted source
        // row, clipped at the image's left and right edges.
        const int ih = q0 / e + dh, iw0 = q0 % e + dw;
        if (ih < 0 || ih >= e) continue;  // lo == hi: all zero
        r.lo = std::max(0, -iw0);
        r.hi = std::min(kCols, e - iw0);
        r.src = ih * e + iw0 + r.lo;
        continue;
      }
      r.gather = static_cast<int>(gather_.size());
      for (int q = q0; q < q0 + kCols; ++q) {
        const int ih = q / e + dh, iw = q % e + dw;
        const bool in_image =
            q < n && ih >= 0 && ih < e && iw >= 0 && iw < e;
        gather_.push_back(in_image ? ih * e + iw : -1);
      }
    }
  }
}

void ConvEngine::load_weights(const fixed::FixedTensor& w) {
  ODENET_CHECK(w.shape.size() == 4, "weights must be 4-d");
  const int co = w.shape[0], ci = w.shape[1], kh = w.shape[2], kw = w.shape[3];
  ODENET_CHECK(co == cfg_.out_channels && kh == 3 && kw == 3,
               "weight shape mismatch");
  ODENET_CHECK(ci == cfg_.in_channels || ci == cfg_.in_channels + 1,
               "weights must have Cin or Cin+1 input planes, got " << ci);
  has_time_weights_ = (ci == cfg_.in_channels + 1);

  const std::size_t per_out_in = static_cast<std::size_t>(ci) * 9;
  const std::size_t k = static_cast<std::size_t>(cfg_.in_channels) * 9;
  const int row_tiles = (co + core::kGemmTileRows - 1) / core::kGemmTileRows;
  weight_panels_.assign(static_cast<std::size_t>(row_tiles) * k *
                            core::kGemmTileRows,
                        0);
  for (int o = 0; o < co; ++o) {
    const std::int32_t* src = w.raw.data() + o * per_out_in;
    std::int32_t* dst = weight_panels_.data() +
                        (o / core::kGemmTileRows) * k * core::kGemmTileRows +
                        o % core::kGemmTileRows;
    for (std::size_t p = 0; p < k; ++p) dst[p * core::kGemmTileRows] = src[p];
  }

  time_tap_sums_.clear();
  if (!has_time_weights_) return;
  const int e = cfg_.extent;
  const std::size_t plane = static_cast<std::size_t>(e) * e;
  time_tap_sums_.assign(static_cast<std::size_t>(co) * plane, 0);
  for (int o = 0; o < co; ++o) {
    const std::int32_t* tw = w.raw.data() + o * per_out_in + k;
    std::int64_t* sums = time_tap_sums_.data() + o * plane;
    for (int oh = 0; oh < e; ++oh) {
      for (int ow = 0; ow < e; ++ow) {
        // Padding is zero, not t: edge positions see fewer taps.
        std::int64_t sum = 0;
        for (int kh = 0; kh < 3; ++kh) {
          const int ih = oh - 1 + kh;
          if (ih < 0 || ih >= e) continue;
          for (int kw = 0; kw < 3; ++kw) {
            const int iw = ow - 1 + kw;
            if (iw >= 0 && iw < e) sum += tw[kh * 3 + kw];
          }
        }
        sums[static_cast<std::size_t>(oh) * e + ow] = sum;
      }
    }
  }
}

std::uint64_t ConvEngine::conv_cycles(int out_channels, int in_channels,
                                      int extent, int parallelism) {
  MacArray macs(parallelism);
  const std::uint64_t beats_per_channel =
      static_cast<std::uint64_t>(extent) * extent * in_channels * 9;
  return macs.cycles(beats_per_channel, out_channels);
}

std::uint64_t ConvEngine::cycles_per_run() const {
  return conv_cycles(cfg_.out_channels, cfg_.in_channels, cfg_.extent,
                     cfg_.parallelism);
}

void ConvEngine::fill_panel(const std::int32_t* in, int jt,
                            std::int32_t* panel) const {
  // Panel row p = c * 9 + tap, as in the weights' [Cin*9] order. Every
  // channel of one tap shares its TapRow, so each tap streams down the
  // channel planes with a fixed source offset and a fixed column mask.
  const std::size_t plane = static_cast<std::size_t>(cfg_.extent) *
                            static_cast<std::size_t>(cfg_.extent);
  constexpr std::size_t kChannelStride = static_cast<std::size_t>(kTaps) * kCols;
  const TapRow* rows = tap_rows_.data() + static_cast<std::size_t>(jt) * kTaps;
  for (int tap = 0; tap < kTaps; ++tap) {
    const TapRow& r = rows[tap];
    std::int32_t* dst = panel + tap * kCols;
    if (r.gather >= 0) {
      const int* off = gather_.data() + r.gather;
      const std::int32_t* src = in;
      for (int c = 0; c < cfg_.in_channels;
           ++c, dst += kChannelStride, src += plane) {
        for (int j = 0; j < kCols; ++j) dst[j] = off[j] >= 0 ? src[off[j]] : 0;
      }
    } else if (r.hi - r.lo == kCols) {
      const std::int32_t* src = in + r.src;
      for (int c = 0; c < cfg_.in_channels;
           ++c, dst += kChannelStride, src += plane) {
        std::memcpy(dst, src, kCols * sizeof(std::int32_t));
      }
    } else if (r.hi == r.lo) {
      for (int c = 0; c < cfg_.in_channels; ++c, dst += kChannelStride) {
        std::memset(dst, 0, kCols * sizeof(std::int32_t));
      }
    } else {
      // A one-row tile spans at least 8 columns of an image at least 8
      // wide, so a shift of one column clips exactly one edge column:
      // [1, 8) at the left edge or [0, 7) at the right.
      const std::int32_t* src = in + r.src;
      const int zero_col = r.lo == 1 ? 0 : kCols - 1;
      for (int c = 0; c < cfg_.in_channels;
           ++c, dst += kChannelStride, src += plane) {
        std::memcpy(dst + r.lo, src, (kCols - 1) * sizeof(std::int32_t));
        dst[zero_col] = 0;
      }
    }
  }
}

void ConvEngine::run(const std::int32_t* in, float t,
                     std::int32_t* out) const {
  ODENET_CHECK(!weight_panels_.empty(), "conv engine: weights not loaded");
  const int co = cfg_.out_channels;
  const std::size_t k = static_cast<std::size_t>(cfg_.in_channels) * kTaps;
  const int n = cfg_.extent * cfg_.extent;
  const int col_tiles = (n + kCols - 1) / kCols;
  const int row_tiles = (co + kRows - 1) / kRows;

  // One [Cin*9][8] column panel at a time, cache-hot across every row
  // panel of weights. Thread-local: recycled across runs.
  static thread_local std::vector<std::int32_t> panel;
  panel.resize(k * kCols);

  // The time plane's affine term: t_raw times each position's in-bounds
  // tap sum, added in uint64 so it wraps exactly like the GEMM sums.
  const std::int64_t t_raw =
      static_cast<std::int64_t>(static_cast<double>(t) *
                                    static_cast<double>(std::int64_t{1}
                                                        << cfg_.frac_bits) +
                                (t >= 0 ? 0.5 : -0.5));

  // Each 4x8 int64 tile is written back (bias, rounding, saturation) in
  // the pass that stores it, so no int64 output plane is materialized.
  const core::GemmKernels& kernels = core::active_gemm_kernels();
  std::int64_t tile[kRows * kCols] = {};
  for (int jt = 0; jt < col_tiles; ++jt) {
    fill_panel(in, jt, panel.data());
    const int j0 = jt * kCols;
    const int nr = std::min(kCols, n - j0);
    for (int rt = 0; rt < row_tiles; ++rt) {
      kernels.tile4x8_i32(weight_panels_.data() + rt * k * kRows,
                          panel.data(), static_cast<int>(k), tile, kCols);
      const int mr = std::min(kRows, co - rt * kRows);
      for (int i = 0; i < mr; ++i) {
        const std::size_t row = static_cast<std::size_t>(rt * kRows + i) * n;
        for (int j = 0; j < nr; ++j) {
          std::uint64_t acc = static_cast<std::uint64_t>(tile[i * kCols + j]);
          if (has_time_weights_) {
            acc += static_cast<std::uint64_t>(t_raw) *
                   static_cast<std::uint64_t>(time_tap_sums_[row + j0 + j]);
          }
          out[row + j0 + j] = MacArray::writeback(
              static_cast<std::int64_t>(acc), cfg_.frac_bits);
        }
      }
    }
  }
}

fixed::FixedTensor ConvEngine::run(const fixed::FixedTensor& input, float t,
                                   std::uint64_t* cycles) const {
  // Accept [C,H,W] or [1,C,H,W].
  std::vector<int> shape = input.shape;
  if (shape.size() == 4) {
    ODENET_CHECK(shape[0] == 1, "conv engine processes one image at a time");
    shape.erase(shape.begin());
  }
  ODENET_CHECK(shape.size() == 3 && shape[0] == cfg_.in_channels &&
                   shape[1] == cfg_.extent && shape[2] == cfg_.extent,
               "conv engine input shape mismatch");
  fixed::FixedTensor out;
  out.shape = {cfg_.out_channels, cfg_.extent, cfg_.extent};
  out.frac_bits = cfg_.frac_bits;
  out.raw.resize(static_cast<std::size_t>(cfg_.out_channels) * cfg_.extent *
                 cfg_.extent);
  run(input.raw.data(), t, out.raw.data());
  if (cycles != nullptr) *cycles += cycles_per_run();
  return out;
}

}  // namespace odenet::fpga
