// Block-RAM allocator for the PL part.
//
// Xilinx 7-series BRAM comes as 36Kb tiles, each splittable into two
// independent 18Kb halves. Buffers are allocated in banks (one bank per
// concurrent reader — e.g. one weight bank per MAC unit); each bank
// occupies an integral number of BRAM18 halves. The allocator tracks
// demand against the device inventory and reports saturation, reproducing
// the paper's observation that layer3_2 exhausts the XC7Z020's BRAM
// ("we cannot implement more weight parameters or larger feature maps
// without relying on external DRAMs").
#pragma once

#include <string>
#include <vector>

#include "fpga/device.hpp"

namespace odenet::fpga {

struct BramBuffer {
  std::string name;
  /// 32-bit words of payload.
  std::size_t words = 0;
  /// Independent banks the payload is split across.
  int banks = 1;
  /// BRAM18 halves consumed (banks * per-bank tiles).
  int bram18 = 0;
};

class BramAllocator {
 public:
  explicit BramAllocator(const FpgaDevice& device = xc7z020());

  /// Registers a buffer of `words` 32-bit words split into `banks`
  /// independently addressable banks. Returns the BRAM18 count consumed.
  /// Allocation always succeeds (demand may exceed the device — check
  /// saturated()); this mirrors a synthesis report, not a malloc.
  int allocate(const std::string& name, std::size_t words, int banks = 1,
               int bits_per_word = 32);

  const std::vector<BramBuffer>& buffers() const { return buffers_; }

  int bram18_used() const { return bram18_used_; }
  /// BRAM36-equivalent tiles (two halves round up to a full tile).
  int bram36_used() const { return (bram18_used_ + 1) / 2; }
  double utilization() const;
  bool saturated() const { return bram36_used() > device_.bram36; }
  /// Usage clamped to capacity (a real design would stop at 100%).
  int bram36_placed() const;

 private:
  FpgaDevice device_;
  std::vector<BramBuffer> buffers_;
  int bram18_used_ = 0;
};

}  // namespace odenet::fpga
