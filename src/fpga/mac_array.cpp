#include "fpga/mac_array.hpp"

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

}  // namespace odenet::fpga
