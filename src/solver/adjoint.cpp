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

namespace {

/// The reverse sweep of a fixed-step solve: dL/dk_j = h b_j a +
/// h a_{j+1} v_{j+1}, last stage first, where v_j = vjp(i, j, dL/dk_j) is
/// stage j's VJP in step i. prepare(i) runs before step i's VJPs. Returns
/// dL/dz_0.
template <typename Prepare, typename Vjp>
core::Tensor reverse_sweep(const Tableau& tab, int steps, float h,
                           const core::Tensor& grad_z1, Prepare&& prepare,
                           Vjp&& vjp) {
  core::Tensor a = grad_z1;
  std::array<core::Tensor, kMaxStages> v;
  for (int i = steps - 1; i >= 0; --i) {
    prepare(i);
    for (int j = tab.stages - 1; j >= 0; --j) {
      core::Tensor dk = a;
      dk.scale(tab.b[j].times(h));
      if (j + 1 < tab.stages) dk.axpy(tab.a[j + 1].times(h), v[j + 1]);
      v[j] = vjp(i, j, dk);
    }
    for (int j = tab.stages - 1; j >= 0; --j) a.add(v[j]);
  }
  return a;
}

}  // namespace

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

  // Stage inputs u_j of the current step (u_0 is the step's own state).
  std::array<core::Tensor, kMaxStages> u;
  float t = t0;
  auto stage_z = [&](int i, int j) -> const core::Tensor& {
    return j == 0 ? trajectory[static_cast<std::size_t>(i)] : u[j];
  };
  auto stage_t = [&](int j) { return j == 0 ? t : t + tab.a[j].times(h); };
  // Recompute the stage inputs: k_j only feeds u_{j+1}, so the last
  // stage's derivative is never needed.
  auto prepare = [&](int i) {
    t = t0 + h * static_cast<float>(i);
    const core::Tensor& z = trajectory[static_cast<std::size_t>(i)];
    for (int j = 1; j < tab.stages; ++j) {
      core::Tensor k = f.eval(stage_z(i, j - 1), stage_t(j - 1));
      ++evals;
      u[j] = z;
      u[j].axpy(tab.a[j].times(h), k);
    }
  };
  // Each VJP runs right after an eval at the same stage input, which
  // caches what the dynamics' vjp reads.
  auto vjp = [&](int i, int j, const core::Tensor& dk) {
    f.eval(stage_z(i, j), stage_t(j));
    ++evals;
    return f.vjp(dk);
  };
  core::Tensor a = reverse_sweep(tab, steps, h, grad_z1, prepare, vjp);
  return {.grad_z0 = std::move(a), .function_evals = evals};
}

BackwardResult discrete_backward(RecordedDynamics& f, int steps,
                                 const core::Tensor& grad_z1, float t0,
                                 float t1, Method method) {
  const Tableau& tab = fixed_step_tableau(method);
  ODENET_CHECK(steps > 0, "discrete_backward needs steps > 0");
  ODENET_CHECK(f.recorded_evaluations() == steps * tab.stages,
               "discrete_backward: a " << steps << "-step "
                   << method_name(method) << " solve makes "
                   << steps * tab.stages << " evaluations, "
                   << f.recorded_evaluations() << " recorded");
  const float h = (t1 - t0) / static_cast<float>(steps);
  core::Tensor a = reverse_sweep(
      tab, steps, h, grad_z1, [](int) {},
      [&](int i, int j, const core::Tensor& dk) {
        return f.vjp_recorded(i * tab.stages + j, dk);
      });
  return {.grad_z0 = std::move(a), .function_evals = 0};
}

}  // namespace odenet::solver
