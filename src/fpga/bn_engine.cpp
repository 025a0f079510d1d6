#include "fpga/bn_engine.hpp"

#include <algorithm>
#include <limits>

#include "fixed/fixed_math.hpp"
#include "util/check.hpp"

namespace odenet::fpga {

namespace {

/// Q(fb) product a * v rounded half away from zero — the DSP multiply
/// and rounding stage — without a branch: for a negative product,
/// -((-p + half) >> fb) == (p + half - 1) >> fb (arithmetic shift), so the
/// sign only lowers the rounding offset by one.
inline std::int64_t qmul(std::int64_t a, std::int64_t v, int fb) {
  const std::int64_t p = a * v;
  return (p + (std::int64_t{1} << (fb - 1)) + (p >> 63)) >> fb;
}

/// The normalize pass over one channel (see the header's functional
/// model); kRelu and kEuler are hoisted out of the element loop.
template <bool kRelu, bool kEuler>
void normalize(const std::int32_t* src, std::int32_t* dst, std::size_t n,
               std::int64_t mean, std::int64_t inv_std, std::int64_t gamma,
               std::int64_t beta, int fb, fixed::Q20 h) {
  constexpr std::int64_t kLo = std::numeric_limits<std::int32_t>::min();
  constexpr std::int64_t kHi = std::numeric_limits<std::int32_t>::max();
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t centered = static_cast<std::int64_t>(src[i]) - mean;
    std::int64_t y = qmul(qmul(centered, inv_std, fb), gamma, fb) + beta;
    if constexpr (kRelu) y = std::max<std::int64_t>(y, 0);
    const auto y32 = static_cast<std::int32_t>(std::clamp(y, kLo, kHi));
    if constexpr (kEuler) {
      dst[i] = (fixed::Q20::from_raw(dst[i]) + h * fixed::Q20::from_raw(y32))
                   .raw();
    } else {
      dst[i] = y32;
    }
  }
}

}  // namespace

BnEngine::BnEngine(const BnEngineConfig& cfg) : cfg_(cfg) {
  ODENET_CHECK(cfg.channels > 0 && cfg.extent > 0,
               "bn engine needs positive geometry");
  ODENET_CHECK(cfg.frac_bits > 0 && cfg.frac_bits < 31,
               "bad frac_bits " << cfg.frac_bits);
}

void BnEngine::load_params(const fixed::FixedTensor& gamma,
                           const fixed::FixedTensor& beta) {
  ODENET_CHECK(gamma.numel() == static_cast<std::size_t>(cfg_.channels) &&
                   beta.numel() == static_cast<std::size_t>(cfg_.channels),
               "bn param size mismatch");
  gamma_ = gamma.raw;
  beta_ = beta.raw;
}

std::uint64_t BnEngine::bn_cycles(int channels, int extent) {
  const std::uint64_t elems =
      static_cast<std::uint64_t>(channels) * extent * extent;
  return elems * kBnCyclesPerElem +
         static_cast<std::uint64_t>(channels) * kPerChannelCycles;
}

std::uint64_t BnEngine::cycles_per_run() const {
  return bn_cycles(cfg_.channels, cfg_.extent);
}

void BnEngine::run(const std::int32_t* in, std::int32_t* out,
                   const fixed::Q20* euler_h) const {
  ODENET_CHECK(!gamma_.empty(), "bn engine: params not loaded");
  const std::size_t plane =
      static_cast<std::size_t>(cfg_.extent) * cfg_.extent;
  const int fb = cfg_.frac_bits;
  const std::int64_t one = std::int64_t{1} << fb;
  const auto eps_raw = static_cast<std::int64_t>(
      static_cast<double>(cfg_.eps) * static_cast<double>(one) + 0.5);
  // Division by the element count: an arithmetic shift (floor division)
  // when it is a power of two, else the divide unit.
  int shift = -1;
  if ((plane & (plane - 1)) == 0) {
    shift = 0;
    while ((std::size_t{1} << shift) < plane) ++shift;
  }
  auto divide = [&](std::int64_t v) {
    return shift >= 0 ? v >> shift
                      : fixed::idiv_i64(v, static_cast<std::int64_t>(plane));
  };
  const fixed::Q20 h = euler_h != nullptr ? *euler_h : fixed::Q20{};
  auto* const pass =
      euler_h != nullptr
          ? (cfg_.fused_relu ? normalize<true, true> : normalize<false, true>)
          : (cfg_.fused_relu ? normalize<true, false> : normalize<false, false>);

  for (int c = 0; c < cfg_.channels; ++c) {
    const std::int32_t* src = in + static_cast<std::size_t>(c) * plane;
    std::int32_t* dst = out + static_cast<std::size_t>(c) * plane;

    // Statistics pass: Σx and Σx² (each x² < 2^63) in one sweep.
    std::int64_t sum = 0;
    unsigned __int128 sum_sq = 0;
    for (std::size_t i = 0; i < plane; ++i) {
      const std::int64_t x = src[i];
      sum += x;
      sum_sq += static_cast<std::uint64_t>(x * x);
    }
    const std::int64_t mean_raw = divide(sum);

    // Σ(x - mean)² exactly (|terms| < 2^74), clamped to INT64_MAX: the
    // value of the hardware's saturating variance accumulator.
    const __int128 m = mean_raw;
    const __int128 centered_sq = static_cast<__int128>(sum_sq) -
                                 2 * m * sum +
                                 static_cast<__int128>(plane) * m * m;
    constexpr std::int64_t kSqMax = std::numeric_limits<std::int64_t>::max();
    const std::int64_t sq =
        centered_sq > kSqMax ? kSqMax : static_cast<std::int64_t>(centered_sq);
    const std::int64_t var_raw = divide(sq) >> fb;  // Q(fb)

    // sqrt(var + eps) on the sqrt unit, then one division for
    // inv_std = 1/std (per channel, not per element).
    const std::uint64_t radicand =
        static_cast<std::uint64_t>(var_raw + eps_raw) << fb;
    const auto std_raw =
        static_cast<std::int64_t>(fixed::isqrt_u64(radicand));  // Q(fb)
    const std::int64_t inv_std_raw =
        fixed::idiv_i64(one << fb, std_raw);  // Q(fb)

    // Normalize pass: ((x - mean) * inv_std) * gamma + beta.
    const std::int64_t g = gamma_[static_cast<std::size_t>(c)];
    const std::int64_t b = beta_[static_cast<std::size_t>(c)];
    pass(src, dst, plane, mean_raw, inv_std_raw, g, b, fb, h);
  }
}

fixed::FixedTensor BnEngine::run(const fixed::FixedTensor& input,
                                 std::uint64_t* cycles) const {
  ODENET_CHECK(!gamma_.empty(), "bn engine: params not loaded");
  ODENET_CHECK(input.shape.size() == 3 && input.shape[0] == cfg_.channels &&
                   input.shape[1] == cfg_.extent &&
                   input.shape[2] == cfg_.extent,
               "bn engine input shape mismatch");
  fixed::FixedTensor out;
  out.shape = input.shape;
  out.frac_bits = cfg_.frac_bits;
  out.raw.resize(input.raw.size());
  run(input.raw.data(), out.raw.data());
  if (cycles != nullptr) *cycles += cycles_per_run();
  return out;
}

}  // namespace odenet::fpga
