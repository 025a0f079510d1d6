// Butcher tableaux of the fixed-step methods, shared by the forward step
// (ode_solve) and its reverse-mode derivative (discrete_backward) so each
// method's coefficients are written once.
//
// Euler, Heun and classic RK4 are explicit methods whose stage j reads
// only stage j-1:
//   u_0 = z,  u_j = z + h a_j k_{j-1},  k_j = f(u_j, t + h a_j),
//   z' = z + h (b_0 k_0 + ... + b_{s-1} k_{s-1}),
// so one coefficient per stage gives both the stage input and its time
// (c_j = a_j). Coefficients are small-integer ratios applied as
// h * num / den in float, which rounds exactly like h * 0.5f, h / 3.0f and
// h / 6.0f. Dopri5 has its own tableau in solvers.cpp.
#pragma once

#include <array>

#include "solver/ode.hpp"
#include "util/check.hpp"

namespace odenet::solver {

struct Coef {
  int num = 0;
  int den = 1;
  /// h * num / den, evaluated left to right in float.
  float times(float h) const {
    return h * static_cast<float>(num) / static_cast<float>(den);
  }
};

struct Tableau {
  int stages = 0;
  /// a[j]: weight of k_{j-1} in stage j's input (a[0] is unused).
  std::array<Coef, kMaxStages> a{};
  /// b[j]: weight of k_j in the step.
  std::array<Coef, kMaxStages> b{};
};

inline const Tableau& fixed_step_tableau(Method m) {
  static constexpr Tableau kEuler{1, {}, {{{1, 1}}}};
  static constexpr Tableau kHeun{2, {{{0, 1}, {1, 1}}}, {{{1, 2}, {1, 2}}}};
  static constexpr Tableau kRk4{4, {{{0, 1}, {1, 2}, {1, 2}, {1, 1}}},
                                {{{1, 6}, {1, 3}, {1, 3}, {1, 6}}}};
  switch (m) {
    case Method::kEuler: return kEuler;
    case Method::kHeun: return kHeun;
    case Method::kRk4: return kRk4;
    case Method::kDopri5: break;
  }
  ODENET_CHECK(false, method_name(m) << " is not a fixed-step method");
  return kEuler;  // unreachable
}

}  // namespace odenet::solver
