// Integer kernels shared by the fixed-point type and the FPGA BN engine.
//
// These give the results of the iterative hardware units the paper
// instantiates for batch normalization ("multiply-add units, division
// unit, and square root unit"): a non-restoring integer square root and a
// shift-subtract divider. The host computes the same values with its own
// instructions (tests/test_fixed.cpp checks them against the bit-serial
// algorithms); the iteration counts a sequential hardware implementation
// takes are the constants below, which feed the cycle model.
#pragma once

#include <cstdint>

namespace odenet::fixed {

/// Floor of sqrt(x): what the non-restoring (bit-pair) hardware sqrt
/// returns after one iteration per result bit (32 for a 64-bit radicand).
std::uint64_t isqrt_u64(std::uint64_t x);

/// Iterations a sequential hardware sqrt of a 64-bit radicand performs.
inline constexpr int kSqrtIterations = 32;

/// What the signed shift-subtract divider returns: num/den truncated
/// toward zero, with INT64_MIN / -1 wrapping to INT64_MIN in its 64-bit
/// quotient register. Requires den != 0 (callers guarantee this; BN
/// divides by sqrt(var)+eps).
std::int64_t idiv_i64(std::int64_t num, std::int64_t den);

/// Iterations a sequential 64/64 hardware divider performs.
inline constexpr int kDivIterations = 64;

}  // namespace odenet::fixed
