#include "solver/adjoint.hpp"

#include "solver/tableau.hpp"

namespace odenet::solver {

BackwardResult adjoint_backward(DifferentiableDynamics& f,
                                const core::Tensor& z1,
                                const core::Tensor& grad_z1, float t0,
                                float t1, int steps) {
  ODENET_CHECK(steps > 0, "adjoint_backward needs steps > 0");
  ODENET_CHECK(z1.same_shape(grad_z1), "z1/grad shape mismatch");
  const float h = (t1 - t0) / static_cast<float>(steps);

  core::Tensor z = z1;
  core::Tensor a = grad_z1;
  int evals = 0;

  // March backward: t_i = t1 - i*h. At each step evaluate f once; the same
  // cached evaluation serves the z-reconstruction and both VJP terms.
  for (int i = 0; i < steps; ++i) {
    const float t = t1 - h * static_cast<float>(i);
    core::Tensor fz = f.eval(z, t);
    ++evals;
    // vjp with (h*a): returns h * aT df/dz and accumulates h * aT df/dθ,
    // which are exactly the Euler increments of Eq. 9's two backward solves.
    core::Tensor a_scaled = a;
    a_scaled.scale(h);
    core::Tensor da = f.vjp(a_scaled);
    a.add(da);
    // Reconstruct z(t - h) = z(t) - h f(z(t), t).
    z.axpy(-h, fz);
  }

  return {.grad_z0 = std::move(a), .function_evals = evals};
}

BackwardResult discrete_backward(DifferentiableDynamics& f,
                                 const std::vector<core::Tensor>& trajectory,
                                 const core::Tensor& grad_z1, float t0,
                                 float t1, Method method) {
  const Tableau& tab = fixed_step_tableau(method);
  ODENET_CHECK(!trajectory.empty(),
               "discrete_backward needs the step-start states of a solve");
  ODENET_CHECK(trajectory.front().same_shape(grad_z1),
               "trajectory/grad shape mismatch");
  const int steps = static_cast<int>(trajectory.size());
  const float h = (t1 - t0) / static_cast<float>(steps);
  int evals = 0;

  core::Tensor a = grad_z1;
  // Stage inputs u_j (u_0 is the step's own state) and their VJPs v_j.
  std::array<core::Tensor, kMaxStages> u, v;
  for (int i = steps - 1; i >= 0; --i) {
    const float t = t0 + h * static_cast<float>(i);
    const core::Tensor& z = trajectory[static_cast<std::size_t>(i)];
    auto stage_z = [&](int j) -> const core::Tensor& {
      return j == 0 ? z : u[j];
    };
    auto stage_t = [&](int j) { return j == 0 ? t : t + tab.a[j].times(h); };

    // Recompute the stage inputs: k_j only feeds u_{j+1}, so the last
    // stage's derivative is never needed.
    for (int j = 1; j < tab.stages; ++j) {
      core::Tensor k = f.eval(stage_z(j - 1), stage_t(j - 1));
      ++evals;
      u[j] = z;
      u[j].axpy(tab.a[j].times(h), k);
    }
    // Reverse sweep: dL/dk_j = h b_j a + h a_{j+1} v_{j+1}; each VJP runs
    // right after an eval at the same stage input, which caches what the
    // dynamics' vjp reads.
    for (int j = tab.stages - 1; j >= 0; --j) {
      core::Tensor dk = a;
      dk.scale(tab.b[j].times(h));
      if (j + 1 < tab.stages) dk.axpy(tab.a[j + 1].times(h), v[j + 1]);
      f.eval(stage_z(j), stage_t(j));
      ++evals;
      v[j] = f.vjp(dk);
    }
    for (int j = tab.stages - 1; j >= 0; --j) a.add(v[j]);
  }

  return {.grad_z0 = std::move(a), .function_evals = evals};
}

}  // namespace odenet::solver
