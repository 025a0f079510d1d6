#include "fpga/bn_engine.hpp"

#include <limits>

#include "fixed/fixed_math.hpp"
#include "util/check.hpp"

namespace odenet::fpga {

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

fixed::FixedTensor BnEngine::run(const fixed::FixedTensor& input,
                                 std::uint64_t* cycles) const {
  ODENET_CHECK(!gamma_.empty(), "bn engine: params not loaded");
  ODENET_CHECK(input.shape.size() == 3 && input.shape[0] == cfg_.channels &&
                   input.shape[1] == cfg_.extent &&
                   input.shape[2] == cfg_.extent,
               "bn engine input shape mismatch");
  const std::size_t plane =
      static_cast<std::size_t>(cfg_.extent) * cfg_.extent;
  const int fb = cfg_.frac_bits;
  const std::int64_t one = std::int64_t{1} << fb;
  const auto eps_raw = static_cast<std::int64_t>(
      static_cast<double>(cfg_.eps) * static_cast<double>(one) + 0.5);

  fixed::FixedTensor out;
  out.shape = input.shape;
  out.frac_bits = fb;
  out.raw.resize(input.raw.size());

  for (int c = 0; c < cfg_.channels; ++c) {
    const std::int32_t* src =
        input.raw.data() + static_cast<std::size_t>(c) * plane;
    std::int32_t* dst = out.raw.data() + static_cast<std::size_t>(c) * plane;

    // Pass 1: mean. Sum of Q(fb) raws; divide by the (power-of-two) count.
    std::int64_t sum = 0;
    for (std::size_t i = 0; i < plane; ++i) sum += src[i];
    std::int64_t mean_raw;
    if ((plane & (plane - 1)) == 0) {
      int shift = 0;
      while ((std::size_t{1} << shift) < plane) ++shift;
      mean_raw = sum >> shift;  // arithmetic shift == floor division
    } else {
      mean_raw = fixed::idiv_i64(sum, static_cast<std::int64_t>(plane));
    }

    // Pass 2: variance. (x - mean)^2 accumulates at Q(2*fb); the final
    // value is brought back to Q(fb) after the mean division. |x - mean|
    // < 2^32, so each square fits uint64, and the sum saturates at
    // INT64_MAX instead of overflowing — reachable only when a channel
    // holds raws of both signs near the int32 rails. Sums that fit are
    // unchanged, and a saturated one keeps every later step in range.
    constexpr std::uint64_t kSqMax =
        static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max());
    std::uint64_t sq_sum = 0;
    for (std::size_t i = 0; i < plane; ++i) {
      const std::int64_t d = static_cast<std::int64_t>(src[i]) - mean_raw;
      const std::uint64_t mag = static_cast<std::uint64_t>(d < 0 ? -d : d);
      const std::uint64_t d2 = mag * mag;
      sq_sum = d2 > kSqMax - sq_sum ? kSqMax : sq_sum + d2;
    }
    const auto sq = static_cast<std::int64_t>(sq_sum);
    std::int64_t var_raw;  // Q(fb)
    if ((plane & (plane - 1)) == 0) {
      int shift = 0;
      while ((std::size_t{1} << shift) < plane) ++shift;
      var_raw = (sq >> shift) >> fb;
    } else {
      var_raw = fixed::idiv_i64(sq, static_cast<std::int64_t>(plane)) >> fb;
    }

    // sqrt(var + eps) with the bit-serial unit, then one division for
    // inv_std = 1/std (per channel, not per element).
    const std::uint64_t radicand =
        static_cast<std::uint64_t>(var_raw + eps_raw) << fb;
    const auto std_raw =
        static_cast<std::int64_t>(fixed::isqrt_u64(radicand));  // Q(fb)
    const std::int64_t inv_std_raw =
        fixed::idiv_i64(one << fb, std_raw);  // Q(fb)

    // Pass 3: normalize: ((x - mean) * inv_std) * gamma + beta.
    const std::int64_t g = gamma_[static_cast<std::size_t>(c)];
    const std::int64_t b = beta_[static_cast<std::size_t>(c)];
    const std::int64_t half = std::int64_t{1} << (fb - 1);
    auto qmul = [fb, half](std::int64_t a, std::int64_t v) {
      const std::int64_t p = a * v;
      return p >= 0 ? (p + half) >> fb : -((-p + half) >> fb);
    };
    for (std::size_t i = 0; i < plane; ++i) {
      const std::int64_t centered =
          static_cast<std::int64_t>(src[i]) - mean_raw;
      std::int64_t y = qmul(qmul(centered, inv_std_raw), g) + b;
      if (cfg_.fused_relu && y < 0) y = 0;
      // Saturate to 32-bit raw.
      if (y > std::numeric_limits<std::int32_t>::max()) {
        y = std::numeric_limits<std::int32_t>::max();
      } else if (y < std::numeric_limits<std::int32_t>::min()) {
        y = std::numeric_limits<std::int32_t>::min();
      }
      dst[i] = static_cast<std::int32_t>(y);
    }
  }

  if (cycles != nullptr) *cycles += cycles_per_run();
  return out;
}

}  // namespace odenet::fpga
