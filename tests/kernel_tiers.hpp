// GEMM kernel tiers for the tier-parity tests (core/gemm_kernels.hpp):
// pin a tier around a block, list the tiers this build and host run, and
// the reason the AVX-512 cases skip on hosts without that tier.
#pragma once

#include <vector>

#include "core/gemm_kernels.hpp"

namespace kernel_tiers {

using odenet::core::GemmIsa;

/// RAII tier cap, so a failing EXPECT cannot leak the override.
struct IsaCap {
  explicit IsaCap(GemmIsa cap) { odenet::core::gemm_cap_isa(cap); }
  ~IsaCap() { odenet::core::gemm_cap_isa(GemmIsa::kAvx512); }
  IsaCap(const IsaCap&) = delete;
  IsaCap& operator=(const IsaCap&) = delete;
};

/// Every tier this build and host run, lowest first.
inline std::vector<GemmIsa> usable_tiers() {
  std::vector<GemmIsa> tiers;
  for (GemmIsa isa : {GemmIsa::kScalar, GemmIsa::kAvx2, GemmIsa::kAvx512}) {
    if (isa <= odenet::core::gemm_best_isa()) tiers.push_back(isa);
  }
  return tiers;
}

/// The kernel table of `isa`, which must be one of usable_tiers().
inline const odenet::core::GemmKernels& kernels_of(GemmIsa isa) {
  IsaCap cap(isa);
  return odenet::core::active_gemm_kernels();
}

inline bool avx512_usable() {
  return odenet::core::gemm_best_isa() == GemmIsa::kAvx512;
}

inline constexpr const char* kNoAvx512 =
    "the AVX-512 tier is not usable here (it needs the vector kernels "
    "compiled in, a CPU with AVX512F+BW+VNNI, and ODENET_SIMD not off)";

}  // namespace kernel_tiers
