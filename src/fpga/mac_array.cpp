#include "fpga/mac_array.hpp"

#include <limits>

namespace odenet::fpga {

int dsp_for_parallelism(int parallelism) {
  ODENET_CHECK(parallelism >= 1, "parallelism must be >= 1");
  return 4 * parallelism + 4;
}

MacArray::MacArray(int units) : units_(units) {
  ODENET_CHECK(units >= 1 && units <= 64,
               "MAC units must be in [1, 64], got " << units);
}

std::uint64_t MacArray::cycles(std::uint64_t beats_per_channel,
                               int channels) const {
  ODENET_CHECK(channels >= 1, "channels must be >= 1");
  const std::uint64_t groups =
      (static_cast<std::uint64_t>(channels) + units_ - 1) / units_;
  return groups * beats_per_channel * kCyclesPerMacBeat;
}

std::int32_t MacArray::writeback(std::int64_t acc, int frac_bits) {
  // Round half away from zero on the magnitude: (|acc| + half) >> F ==
  // (|acc| >> F) + bit F-1 of |acc|. In uint64 neither step can overflow,
  // so INT64_MIN and accumulators within `half` of the rails are defined.
  const std::uint64_t mag = acc >= 0 ? static_cast<std::uint64_t>(acc)
                                     : 0 - static_cast<std::uint64_t>(acc);
  const std::uint64_t rounded =
      (mag >> frac_bits) + ((mag >> (frac_bits - 1)) & 1u);
  constexpr std::uint64_t kMaxMag =
      static_cast<std::uint64_t>(std::numeric_limits<std::int32_t>::max());
  if (acc >= 0) {
    return rounded > kMaxMag ? std::numeric_limits<std::int32_t>::max()
                             : static_cast<std::int32_t>(rounded);
  }
  return rounded > kMaxMag + 1
             ? std::numeric_limits<std::int32_t>::min()
             : static_cast<std::int32_t>(-static_cast<std::int64_t>(rounded));
}

}  // namespace odenet::fpga
