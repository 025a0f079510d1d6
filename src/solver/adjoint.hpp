// Gradient computation through ODESolve.
//
// Two methods, both returning dL/dz(t0) and accumulating dL/dθ into the
// dynamics' parameter gradients:
//
//  * adjoint_backward — the paper's Eq. 9 (Pontryagin adjoint, ref [10]):
//    reconstructs z(t) by integrating the dynamics *backward* from z(t1),
//    integrating the adjoint a(t) and the parameter gradient alongside.
//    O(1) memory in the number of steps, but the reconstruction error is
//    the instability source discussed in §4.3 (ANODE, ref [13]).
//
//  * discrete_backward — exact reverse-mode differentiation of the chosen
//    discretization; nothing is re-solved. Two forms, equal bit for bit:
//     - from RecordedDynamics, whose forward solve kept what each of its
//       M * stages evaluations' VJP reads (an OdeBlock's layer caches):
//       the reverse sweep alone, f evaluated 0 times. Memory is those
//       caches, held from the forward to the backward.
//     - from the M step-start states the forward solve recorded
//       (SolveOptions::trajectory): each step's stage inputs are
//       recomputed from its state and f is evaluated again before each
//       VJP. Memory is the M states.
//    Gradients match finite differences of the discrete forward pass to
//    machine precision.
//
// The adjoint and the trajectory form need DifferentiableDynamics:
// eval(z, t) followed by vjp(v), where vjp returns vT df/dz and
// accumulates vT df/dθ.
#pragma once

#include "solver/ode.hpp"

namespace odenet::solver {

struct BackwardResult {
  /// dL/dz(t0).
  core::Tensor grad_z0;
  /// Number of dynamics evaluations consumed.
  int function_evals = 0;
};

/// Adjoint method (Eq. 7-9). Integrates [z, a, gθ] backward from t1 to t0
/// with `steps` Euler steps (the solver the paper uses on-device). grad_z1
/// is a(t1) = dL/dz(t1).
BackwardResult adjoint_backward(DifferentiableDynamics& f,
                                const core::Tensor& z1,
                                const core::Tensor& grad_z1, float t0,
                                float t1, int steps);

/// Exact discrete gradients through a fixed-step forward solve over
/// [t0, t1], given its recorded step-start states z_0..z_{M-1} (M = steps,
/// taken from their count; shapes are checked against z_0). Per step:
/// stages - 1 evaluations recompute the stage inputs, then one evaluation
/// + VJP per stage in reverse, so function_evals is M / 3M / 7M for
/// Euler / Heun / RK4. Supports Euler, Heun and RK4.
BackwardResult discrete_backward(DifferentiableDynamics& f,
                                 const std::vector<core::Tensor>& trajectory,
                                 const core::Tensor& grad_z1, float t0,
                                 float t1, Method method);

/// The same gradients from an M-step forward solve whose dynamics recorded
/// all M * stages evaluations (checked): one recorded VJP per stage in
/// reverse, function_evals 0.
BackwardResult discrete_backward(RecordedDynamics& f, int steps,
                                 const core::Tensor& grad_z1, float t0,
                                 float t1, Method method);

}  // namespace odenet::solver
