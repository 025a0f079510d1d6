#include "solver/ode.hpp"

#include <algorithm>
#include <cmath>

#include "solver/tableau.hpp"

namespace odenet::solver {

std::string method_name(Method m) {
  switch (m) {
    case Method::kEuler: return "euler";
    case Method::kHeun: return "heun";
    case Method::kRk4: return "rk4";
    case Method::kDopri5: return "dopri5";
  }
  return "?";
}

int evals_per_step(Method m) {
  return m == Method::kDopri5 ? 6 : fixed_step_tableau(m).stages;
}

int method_order(Method m) {
  switch (m) {
    case Method::kEuler: return 1;
    case Method::kHeun: return 2;
    case Method::kRk4: return 4;
    case Method::kDopri5: return 5;
  }
  return 0;
}

namespace {

// Dormand–Prince 5(4) coefficients.
constexpr double kA21 = 1.0 / 5.0;
constexpr double kA31 = 3.0 / 40.0, kA32 = 9.0 / 40.0;
constexpr double kA41 = 44.0 / 45.0, kA42 = -56.0 / 15.0, kA43 = 32.0 / 9.0;
constexpr double kA51 = 19372.0 / 6561.0, kA52 = -25360.0 / 2187.0,
                 kA53 = 64448.0 / 6561.0, kA54 = -212.0 / 729.0;
constexpr double kA61 = 9017.0 / 3168.0, kA62 = -355.0 / 33.0,
                 kA63 = 46732.0 / 5247.0, kA64 = 49.0 / 176.0,
                 kA65 = -5103.0 / 18656.0;
constexpr double kB1 = 35.0 / 384.0, kB3 = 500.0 / 1113.0,
                 kB4 = 125.0 / 192.0, kB5 = -2187.0 / 6784.0,
                 kB6 = 11.0 / 84.0;
// 4th-order weights (for the embedded error estimate).
constexpr double kE1 = 5179.0 / 57600.0, kE3 = 7571.0 / 16695.0,
                 kE4 = 393.0 / 640.0, kE5 = -92097.0 / 339200.0,
                 kE6 = 187.0 / 2100.0, kE7 = 1.0 / 40.0;
constexpr double kC2 = 1.0 / 5.0, kC3 = 3.0 / 10.0, kC4 = 4.0 / 5.0,
                 kC5 = 8.0 / 9.0;

core::Tensor combine(const core::Tensor& z,
                     std::initializer_list<std::pair<double, const core::Tensor*>>
                         terms,
                     double h) {
  core::Tensor out = z;
  for (const auto& [coef, k] : terms) {
    out.axpy(static_cast<float>(h * coef), *k);
  }
  return out;
}

double error_norm(const core::Tensor& err, const core::Tensor& z0,
                  const core::Tensor& z1, double rtol, double atol) {
  double acc = 0.0;
  const float* e = err.data();
  const float* a = z0.data();
  const float* b = z1.data();
  for (std::size_t i = 0; i < err.numel(); ++i) {
    const double scale =
        atol + rtol * std::max(std::fabs(static_cast<double>(a[i])),
                               std::fabs(static_cast<double>(b[i])));
    const double r = e[i] / scale;
    acc += r * r;
  }
  return std::sqrt(acc / static_cast<double>(err.numel()));
}

core::Tensor dopri5_solve(OdeFunction& f, const core::Tensor& z0, float t0,
                          float t1, const SolveOptions& opts,
                          SolveStats* stats) {
  const double dir = t1 >= t0 ? 1.0 : -1.0;
  const double span = std::fabs(static_cast<double>(t1) - t0);
  ODENET_CHECK(span > 0.0, "dopri5 requires t0 != t1");

  core::Tensor z = z0;
  double t = t0;
  double h = dir * span / 16.0;  // initial guess; adapted immediately
  int taken = 0, rejected = 0, evals = 0;

  core::Tensor k1 = f.eval(z, static_cast<float>(t));
  ++evals;

  while (dir * (static_cast<double>(t1) - t) > 1e-12 * span) {
    if (dir * (t + h) > dir * static_cast<double>(t1)) {
      h = static_cast<double>(t1) - t;
    }
    ODENET_CHECK(taken + rejected < opts.max_steps,
                 "dopri5 exceeded max_steps=" << opts.max_steps);

    auto u2 = combine(z, {{kA21, &k1}}, h);
    auto k2 = f.eval(u2, static_cast<float>(t + kC2 * h));
    auto u3 = combine(z, {{kA31, &k1}, {kA32, &k2}}, h);
    auto k3 = f.eval(u3, static_cast<float>(t + kC3 * h));
    auto u4 = combine(z, {{kA41, &k1}, {kA42, &k2}, {kA43, &k3}}, h);
    auto k4 = f.eval(u4, static_cast<float>(t + kC4 * h));
    auto u5 = combine(z, {{kA51, &k1}, {kA52, &k2}, {kA53, &k3}, {kA54, &k4}},
                      h);
    auto k5 = f.eval(u5, static_cast<float>(t + kC5 * h));
    auto u6 = combine(
        z, {{kA61, &k1}, {kA62, &k2}, {kA63, &k3}, {kA64, &k4}, {kA65, &k5}},
        h);
    auto k6 = f.eval(u6, static_cast<float>(t + h));
    auto z_new = combine(
        z, {{kB1, &k1}, {kB3, &k3}, {kB4, &k4}, {kB5, &k5}, {kB6, &k6}}, h);
    auto k7 = f.eval(z_new, static_cast<float>(t + h));
    evals += 6;

    // err = h * sum((b_i - e_i) k_i)
    core::Tensor err(z.shape());
    err.axpy(static_cast<float>(h * (kB1 - kE1)), k1);
    err.axpy(static_cast<float>(h * (0.0 - kE3 + kB3)), k3);
    err.axpy(static_cast<float>(h * (kB4 - kE4)), k4);
    err.axpy(static_cast<float>(h * (kB5 - kE5)), k5);
    err.axpy(static_cast<float>(h * (kB6 - kE6)), k6);
    err.axpy(static_cast<float>(h * (0.0 - kE7)), k7);

    const double norm = error_norm(err, z, z_new, opts.rtol, opts.atol);
    if (norm <= 1.0) {
      if (opts.trajectory) opts.trajectory->push_back(z);
      t += h;
      z = std::move(z_new);
      k1 = std::move(k7);  // FSAL
      ++taken;
    } else {
      ++rejected;
    }
    const double factor =
        norm > 0.0 ? 0.9 * std::pow(norm, -0.2) : 5.0;
    h *= std::clamp(factor, 0.2, 5.0);
  }

  if (stats) {
    stats->steps_taken = taken;
    stats->steps_rejected = rejected;
    stats->function_evals = evals;
  }
  return z;
}

}  // namespace

core::Tensor ode_solve(OdeFunction& f, const core::Tensor& z0, float t0,
                       float t1, const SolveOptions& opts, SolveStats* stats) {
  if (opts.method == Method::kDopri5) {
    return dopri5_solve(f, z0, t0, t1, opts, stats);
  }
  ODENET_CHECK(opts.steps > 0, "fixed-step solve needs steps > 0");
  const Tableau& tab = fixed_step_tableau(opts.method);
  const float h = (t1 - t0) / static_cast<float>(opts.steps);
  core::Tensor z = z0;
  // Stages land in scratch tensors (caller-provided via opts.scratch, so
  // steady-state serving allocates nothing per step) and z is updated in
  // place.
  StepScratch local;
  StepScratch& s = opts.scratch != nullptr ? *opts.scratch : local;
  for (int i = 0; i < opts.steps; ++i) {
    const float t = t0 + h * static_cast<float>(i);
    if (opts.trajectory) opts.trajectory->push_back(z);
    // Euler first offers the dynamics their fused in-place step.
    if (opts.method != Method::kEuler || !f.euler_step_inplace(z, t, h)) {
      f.eval_into(z, t, s.k[0]);
      for (int j = 1; j < tab.stages; ++j) {
        const float ah = tab.a[j].times(h);
        s.u = z;
        s.u.axpy(ah, s.k[j - 1]);
        f.eval_into(s.u, t + ah, s.k[j]);
      }
      for (int j = 0; j < tab.stages; ++j) z.axpy(tab.b[j].times(h), s.k[j]);
    }
  }
  if (stats) {
    stats->steps_taken = opts.steps;
    stats->steps_rejected = 0;
    stats->function_evals = opts.steps * tab.stages;
  }
  return z;
}

}  // namespace odenet::solver
