#include "fpga/conv_engine.hpp"

#include <algorithm>

#include "core/gemm_kernels.hpp"
#include "core/im2col.hpp"

namespace odenet::fpga {

ConvEngine::ConvEngine(const ConvEngineConfig& cfg)
    : cfg_(cfg), macs_(cfg.parallelism) {
  ODENET_CHECK(cfg.in_channels > 0 && cfg.out_channels > 0,
               "conv engine needs positive channel counts");
  ODENET_CHECK(cfg.extent > 0, "conv engine needs positive extent");
  ODENET_CHECK(cfg.frac_bits > 0 && cfg.frac_bits < 31,
               "bad frac_bits " << cfg.frac_bits);
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

fixed::FixedTensor ConvEngine::run(const fixed::FixedTensor& input, float t,
                                   std::uint64_t* cycles) const {
  ODENET_CHECK(!weight_panels_.empty(), "conv engine: weights not loaded");
  // Accept [C,H,W] or [1,C,H,W].
  std::vector<int> shape = input.shape;
  if (shape.size() == 4) {
    ODENET_CHECK(shape[0] == 1, "conv engine processes one image at a time");
    shape.erase(shape.begin());
  }
  ODENET_CHECK(shape.size() == 3 && shape[0] == cfg_.in_channels &&
                   shape[1] == cfg_.extent && shape[2] == cfg_.extent,
               "conv engine input shape mismatch");

  constexpr int kRows = core::kGemmTileRows;
  constexpr int kCols = core::kGemmTileColsI32;
  const int co = cfg_.out_channels;
  const core::LoweringGeometry g{.channels = cfg_.in_channels,
                                 .height = cfg_.extent,
                                 .width = cfg_.extent};
  const std::size_t k = g.col_rows();
  const int n = static_cast<int>(g.col_cols());
  const int col_tiles = (n + kCols - 1) / kCols;
  const int row_tiles = (co + kRows - 1) / kRows;

  // Lower the input to [Cin*9, H*W], then repack it as column panels of
  // [Cin*9][8] (one sequential pass over the lowering; the ragged last
  // panel's phantom columns are zero). Thread-local: recycled across runs.
  static thread_local std::vector<std::int32_t> cols;
  static thread_local std::vector<std::int32_t> panels;
  cols.resize(k * static_cast<std::size_t>(n));
  core::im2col_i32(input.raw.data(), g, cols.data());
  panels.resize(static_cast<std::size_t>(col_tiles) * k * kCols);
  for (std::size_t p = 0; p < k; ++p) {
    const std::int32_t* src = cols.data() + p * static_cast<std::size_t>(n);
    for (int jt = 0; jt < col_tiles; ++jt) {
      std::int32_t* dst = panels.data() + (jt * k + p) * kCols;
      const int nr = std::min(kCols, n - jt * kCols);
      std::copy_n(src + jt * kCols, nr, dst);
      std::fill(dst + nr, dst + kCols, 0);
    }
  }

  // The time plane's affine term: t_raw times each position's in-bounds
  // tap sum, added in uint64 so it wraps exactly like the GEMM sums.
  const std::int64_t t_raw =
      static_cast<std::int64_t>(static_cast<double>(t) *
                                    static_cast<double>(std::int64_t{1}
                                                        << cfg_.frac_bits) +
                                (t >= 0 ? 0.5 : -0.5));

  fixed::FixedTensor out;
  out.shape = {co, cfg_.extent, cfg_.extent};
  out.frac_bits = cfg_.frac_bits;
  out.raw.resize(static_cast<std::size_t>(co) * n);

  // Column panels outer: one [Cin*9][8] panel stays cache-hot across every
  // row panel of weights. Each 4x8 int64 tile is written back as soon as
  // it is computed, so no int64 output plane is materialized.
  const core::GemmKernels& kernels = core::active_gemm_kernels();
  std::int64_t tile[kRows * kCols] = {};
  for (int jt = 0; jt < col_tiles; ++jt) {
    const int j0 = jt * kCols;
    const int nr = std::min(kCols, n - j0);
    const std::int32_t* bpanel = panels.data() + jt * k * kCols;
    for (int rt = 0; rt < row_tiles; ++rt) {
      kernels.tile4x8_i32(weight_panels_.data() + rt * k * kRows, bpanel,
                          static_cast<int>(k), tile, kCols);
      const int mr = std::min(kRows, co - rt * kRows);
      for (int i = 0; i < mr; ++i) {
        const std::size_t row = static_cast<std::size_t>(rt * kRows + i) * n;
        for (int j = 0; j < nr; ++j) {
          std::uint64_t acc = static_cast<std::uint64_t>(tile[i * kCols + j]);
          if (has_time_weights_) {
            acc += static_cast<std::uint64_t>(t_raw) *
                   static_cast<std::uint64_t>(time_tap_sums_[row + j0 + j]);
          }
          out.raw[row + j0 + j] = MacArray::writeback(
              static_cast<std::int64_t>(acc), cfg_.frac_bits);
        }
      }
    }
  }

  if (cycles != nullptr) *cycles += cycles_per_run();
  return out;
}

}  // namespace odenet::fpga
