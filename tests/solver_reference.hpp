// Reference fixed steps for the solver tests: Euler, Heun and classic RK4
// written out stage by stage, allocating a tensor per stage, and the
// reverse-mode sweep of each. The library drives all three methods, and
// their backward, from one Butcher tableau (solver/tableau.hpp); these
// hand-written formulas share no code with it and are the values it is
// checked against, bit for bit.
#pragma once

#include <vector>

#include "solver/ode.hpp"

namespace solver_reference {

using odenet::core::Tensor;
using odenet::solver::DifferentiableDynamics;
using odenet::solver::Method;
using odenet::solver::OdeFunction;

inline Tensor euler_step(OdeFunction& f, const Tensor& z, float t, float h) {
  Tensor k1 = f.eval(z, t);
  Tensor out = z;
  out.axpy(h, k1);
  return out;
}

inline Tensor heun_step(OdeFunction& f, const Tensor& z, float t, float h) {
  Tensor k1 = f.eval(z, t);
  Tensor mid = z;
  mid.axpy(h, k1);
  Tensor k2 = f.eval(mid, t + h);
  Tensor out = z;
  out.axpy(h * 0.5f, k1);
  out.axpy(h * 0.5f, k2);
  return out;
}

inline Tensor rk4_step(OdeFunction& f, const Tensor& z, float t, float h) {
  Tensor k1 = f.eval(z, t);
  Tensor u = z;
  u.axpy(h * 0.5f, k1);
  Tensor k2 = f.eval(u, t + h * 0.5f);
  u = z;
  u.axpy(h * 0.5f, k2);
  Tensor k3 = f.eval(u, t + h * 0.5f);
  u = z;
  u.axpy(h, k3);
  Tensor k4 = f.eval(u, t + h);
  Tensor out = z;
  out.axpy(h / 6.0f, k1);
  out.axpy(h / 3.0f, k2);
  out.axpy(h / 3.0f, k3);
  out.axpy(h / 6.0f, k4);
  return out;
}

/// dL/dz0 through the steps that started from `traj` (z_0..z_{M-1}) over
/// [t0, t1]:
/// per step, recompute the stage inputs from z_i, then evaluate f at each
/// stage input and apply its VJP, last stage first. Accumulates
/// dL/dθ into the dynamics like solver::discrete_backward.
inline Tensor discrete_backward(DifferentiableDynamics& f,
                                const std::vector<Tensor>& traj,
                                const Tensor& grad_z1, float t0, float t1,
                                Method method) {
  const int steps = static_cast<int>(traj.size());
  const float h = (t1 - t0) / static_cast<float>(steps);
  auto eval_vjp = [&f](const Tensor& u, float t, const Tensor& v) {
    f.eval(u, t);
    return f.vjp(v);
  };
  Tensor a = grad_z1;
  for (int i = steps - 1; i >= 0; --i) {
    const float t = t0 + h * static_cast<float>(i);
    const Tensor& z = traj[static_cast<std::size_t>(i)];
    if (method == Method::kEuler) {
      // z' = z + h k1.
      Tensor v = a;
      v.scale(h);
      a.add(eval_vjp(z, t, v));
    } else if (method == Method::kHeun) {
      // z' = z + h/2 (k1 + k2); k2 = f(z + h k1, t + h).
      Tensor u2 = z;
      u2.axpy(h, f.eval(z, t));
      Tensor dk2 = a;
      dk2.scale(h * 0.5f);
      Tensor v2 = eval_vjp(u2, t + h, dk2);
      Tensor dk1 = a;
      dk1.scale(h * 0.5f);
      dk1.axpy(h, v2);
      Tensor v1 = eval_vjp(z, t, dk1);
      a.add(v2);
      a.add(v1);
    } else {
      // RK4: stage inputs u2 = z + h/2 k1, u3 = z + h/2 k2, u4 = z + h k3.
      Tensor u2 = z;
      u2.axpy(h * 0.5f, f.eval(z, t));
      Tensor u3 = z;
      u3.axpy(h * 0.5f, f.eval(u2, t + h * 0.5f));
      Tensor u4 = z;
      u4.axpy(h, f.eval(u3, t + h * 0.5f));
      Tensor dk4 = a;
      dk4.scale(h / 6.0f);
      Tensor v4 = eval_vjp(u4, t + h, dk4);
      Tensor dk3 = a;
      dk3.scale(h / 3.0f);
      dk3.axpy(h, v4);
      Tensor v3 = eval_vjp(u3, t + h * 0.5f, dk3);
      Tensor dk2 = a;
      dk2.scale(h / 3.0f);
      dk2.axpy(h * 0.5f, v3);
      Tensor v2 = eval_vjp(u2, t + h * 0.5f, dk2);
      Tensor dk1 = a;
      dk1.scale(h / 6.0f);
      dk1.axpy(h * 0.5f, v2);
      Tensor v1 = eval_vjp(z, t, dk1);
      a.add(v4);
      a.add(v3);
      a.add(v2);
      a.add(v1);
    }
  }
  return a;
}

}  // namespace solver_reference
