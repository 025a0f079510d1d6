// ODE solvers: exact solutions, convergence orders (the defining property
// of each method), backward-time integration, Dopri5 adaptivity, and the
// tableau-driven fixed steps against the hand-written reference steps
// (solver_reference.hpp), bit for bit.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "solver/ode.hpp"
#include "solver_reference.hpp"

using namespace odenet::solver;
using odenet::core::Tensor;

namespace {

/// dz/dt = lambda * z  ->  z(t) = z0 * exp(lambda * t).
FunctionDynamics exp_dynamics(float lambda) {
  return FunctionDynamics([lambda](const Tensor& z, float) {
    Tensor out = z;
    out.scale(lambda);
    return out;
  });
}

/// 2-D rotation: dz/dt = [-z1, z0] — norm-preserving circular motion.
FunctionDynamics rotation_dynamics() {
  return FunctionDynamics([](const Tensor& z, float) {
    Tensor out({2});
    out.at1(0) = -z.at1(1);
    out.at1(1) = z.at1(0);
    return out;
  });
}

/// Non-autonomous: dz/dt = t  ->  z(t) = z0 + t^2/2. Exposes wrong stage
/// time handling (a solver that ignores t fails this).
FunctionDynamics time_dynamics() {
  return FunctionDynamics([](const Tensor& z, float t) {
    Tensor out(z.shape());
    out.fill(t);
    return out;
  });
}

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.numel() == b.numel() &&
         std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)) == 0;
}

double solve_exp_error(Method m, int steps, float lambda = -1.0f,
                       float t1 = 1.0f) {
  auto f = exp_dynamics(lambda);
  Tensor z0({1});
  z0.at1(0) = 1.0f;
  SolveOptions opts{.method = m, .steps = steps};
  Tensor z1 = ode_solve(f, z0, 0.0f, t1, opts);
  const double exact = std::exp(static_cast<double>(lambda) * t1);
  return std::fabs(z1.at1(0) - exact);
}

}  // namespace

TEST(Solvers, EulerMatchesClosedFormRecurrence) {
  // Euler on dz/dt = lambda z gives exactly (1 + lambda*h)^n.
  auto f = exp_dynamics(-0.5f);
  Tensor z0({1});
  z0.at1(0) = 2.0f;
  SolveOptions opts{.method = Method::kEuler, .steps = 10};
  Tensor z1 = ode_solve(f, z0, 0.0f, 1.0f, opts);
  const double expected = 2.0 * std::pow(1.0 - 0.05, 10);
  EXPECT_NEAR(z1.at1(0), expected, 1e-5);
}

struct OrderCase {
  Method method;
  double expected_order;
  // Coarse step counts so float32 rounding stays far below the truncation
  // error (RK4 at 16 steps already sits on the rounding floor).
  int steps;
};

class ConvergenceOrder : public ::testing::TestWithParam<OrderCase> {};

TEST_P(ConvergenceOrder, ErrorShrinksAtTheMethodOrder) {
  const auto p = GetParam();
  // Error ratio between N and 2N steps approaches 2^order.
  const double e1 = solve_exp_error(p.method, p.steps);
  const double e2 = solve_exp_error(p.method, 2 * p.steps);
  const double measured_order = std::log2(e1 / e2);
  EXPECT_NEAR(measured_order, p.expected_order, 0.45)
      << "e1=" << e1 << " e2=" << e2;
}

INSTANTIATE_TEST_SUITE_P(
    Methods, ConvergenceOrder,
    ::testing::Values(OrderCase{Method::kEuler, 1.0, 16},
                      OrderCase{Method::kHeun, 2.0, 16},
                      OrderCase{Method::kRk4, 4.0, 2}));

TEST(Solvers, Rk4FarMoreAccurateThanEulerAtEqualSteps) {
  const double euler = solve_exp_error(Method::kEuler, 32);
  const double rk4 = solve_exp_error(Method::kRk4, 32);
  EXPECT_LT(rk4, euler * 1e-3);
}

TEST(Solvers, RotationReturnsToStartAfterFullPeriod) {
  auto f = rotation_dynamics();
  Tensor z0({2});
  z0.at1(0) = 1.0f;
  SolveOptions opts{.method = Method::kRk4, .steps = 100};
  const float two_pi = static_cast<float>(2.0 * 3.141592653589793);
  Tensor z1 = ode_solve(f, z0, 0.0f, two_pi, opts);
  EXPECT_NEAR(z1.at1(0), 1.0f, 1e-4f);
  EXPECT_NEAR(z1.at1(1), 0.0f, 1e-4f);
}

TEST(Solvers, NonAutonomousUsesStageTimes) {
  auto f = time_dynamics();
  Tensor z0({1});
  // z(2) = z0 + 2. Heun is exact for a linear-in-t integrand.
  SolveOptions heun{.method = Method::kHeun, .steps = 4};
  Tensor z_heun = ode_solve(f, z0, 0.0f, 2.0f, heun);
  EXPECT_NEAR(z_heun.at1(0), 2.0f, 1e-5f);

  SolveOptions euler{.method = Method::kEuler, .steps = 4};
  Tensor z_euler = ode_solve(f, z0, 0.0f, 2.0f, euler);
  // Left Riemann sum of t over [0,2] with h=0.5: (0+0.5+1.0+1.5)*0.5 = 1.5.
  EXPECT_NEAR(z_euler.at1(0), 1.5f, 1e-5f);
}

TEST(Solvers, BackwardIntegrationInvertsForward) {
  auto f = exp_dynamics(0.7f);
  Tensor z0({1});
  z0.at1(0) = 1.0f;
  SolveOptions opts{.method = Method::kRk4, .steps = 64};
  Tensor z1 = ode_solve(f, z0, 0.0f, 1.0f, opts);
  Tensor back = ode_solve(f, z1, 1.0f, 0.0f, opts);
  EXPECT_NEAR(back.at1(0), 1.0f, 1e-4f);
}

TEST(Solvers, TrajectoryHasOneStatePerStep) {
  // The step-start states z_0..z_4; z_5 is the return value, not a copy.
  auto f = exp_dynamics(-1.0f);
  Tensor z0({1});
  z0.at1(0) = 1.0f;
  std::vector<Tensor> traj;
  SolveOptions opts{.method = Method::kEuler, .steps = 5,
                    .trajectory = &traj};
  const Tensor z5 = ode_solve(f, z0, 0.0f, 1.0f, opts);
  ASSERT_EQ(traj.size(), 5u);
  EXPECT_EQ(traj.front().at1(0), 1.0f);
  EXPECT_NE(traj.back().at1(0), z5.at1(0));
}

TEST(Solvers, StatsCountFunctionEvals) {
  auto f = exp_dynamics(-1.0f);
  Tensor z0({1});
  SolveStats stats;
  SolveOptions opts{.method = Method::kRk4, .steps = 7};
  ode_solve(f, z0, 0.0f, 1.0f, opts, &stats);
  EXPECT_EQ(stats.steps_taken, 7);
  EXPECT_EQ(stats.function_evals, 28);
}

TEST(Solvers, MethodMetadata) {
  EXPECT_EQ(method_name(Method::kEuler), "euler");
  EXPECT_EQ(evals_per_step(Method::kHeun), 2);
  EXPECT_EQ(method_order(Method::kRk4), 4);
  EXPECT_EQ(method_order(Method::kDopri5), 5);
}

TEST(Solvers, RejectsZeroSteps) {
  auto f = exp_dynamics(-1.0f);
  Tensor z0({1});
  SolveOptions opts{.method = Method::kEuler, .steps = 0};
  EXPECT_THROW(ode_solve(f, z0, 0.0f, 1.0f, opts), odenet::Error);
}

TEST(Dopri5, SolvesToTolerance) {
  auto f = exp_dynamics(-2.0f);
  Tensor z0({1});
  z0.at1(0) = 1.0f;
  SolveStats stats;
  SolveOptions opts{.method = Method::kDopri5, .rtol = 1e-8, .atol = 1e-10};
  Tensor z1 = ode_solve(f, z0, 0.0f, 1.0f, opts, &stats);
  EXPECT_NEAR(z1.at1(0), std::exp(-2.0), 1e-6);
  EXPECT_GT(stats.steps_taken, 0);
}

TEST(Dopri5, LooserToleranceTakesFewerSteps) {
  auto f = rotation_dynamics();
  Tensor z0({2});
  z0.at1(0) = 1.0f;
  SolveStats tight, loose;
  SolveOptions t_opts{.method = Method::kDopri5, .rtol = 1e-9, .atol = 1e-11};
  SolveOptions l_opts{.method = Method::kDopri5, .rtol = 1e-3, .atol = 1e-5};
  ode_solve(f, z0, 0.0f, 6.0f, t_opts, &tight);
  ode_solve(f, z0, 0.0f, 6.0f, l_opts, &loose);
  EXPECT_LT(loose.steps_taken, tight.steps_taken);
}

TEST(Dopri5, BackwardTimeWorks) {
  auto f = exp_dynamics(1.0f);
  Tensor z1({1});
  z1.at1(0) = static_cast<float>(std::exp(1.0));
  SolveOptions opts{.method = Method::kDopri5, .rtol = 1e-8, .atol = 1e-10};
  Tensor z0 = ode_solve(f, z1, 1.0f, 0.0f, opts);
  EXPECT_NEAR(z0.at1(0), 1.0f, 1e-5f);
}

TEST(Dopri5, RespectsMaxSteps) {
  auto f = exp_dynamics(-500.0f);
  Tensor z0({1});
  z0.at1(0) = 1.0f;
  SolveOptions opts{.method = Method::kDopri5, .rtol = 1e-10, .atol = 1e-12,
                    .max_steps = 5};
  EXPECT_THROW(ode_solve(f, z0, 0.0f, 10.0f, opts), odenet::Error);
}

TEST(StepFunctions, SingleStepsMatchManualFormulas) {
  auto f = exp_dynamics(-1.0f);
  Tensor z({1});
  z.at1(0) = 1.0f;
  // Euler: 1 + h*(-1).
  EXPECT_NEAR(solver_reference::euler_step(f, z, 0.0f, 0.25f).at1(0), 0.75f,
              1e-6f);
  // Heun: 1 + h/2*(k1 + k2), k1=-1, k2=-(1-0.25)=-0.75.
  EXPECT_NEAR(solver_reference::heun_step(f, z, 0.0f, 0.25f).at1(0),
              1.0f + 0.125f * (-1.0f - 0.75f), 1e-6f);
}

TEST(StepFunctions, SolveMatchesReferenceStepsBitwise) {
  // The tableau-driven in-place loop — with and without caller scratch —
  // reproduces the hand-written reference steps exactly, and so does every
  // state it records (the states discrete_backward differentiates).
  FunctionDynamics f([](const Tensor& z, float t) {
    Tensor out = z;
    out.scale(-0.3f + 0.05f * t);
    return out;
  });
  Tensor z0({2, 3, 4, 4});
  for (std::size_t i = 0; i < z0.numel(); ++i) {
    z0.data()[i] = 0.01f * static_cast<float>(i % 37) - 0.2f;
  }
  const int steps = 5;
  const float t0 = 0.25f, t1 = 1.5f;
  const float h = (t1 - t0) / static_cast<float>(steps);
  for (Method m : {Method::kEuler, Method::kHeun, Method::kRk4}) {
    SCOPED_TRACE(method_name(m));
    std::vector<Tensor> want{z0};
    for (int i = 0; i < steps; ++i) {
      const float t = t0 + h * static_cast<float>(i);
      switch (m) {
        case Method::kEuler:
          want.push_back(solver_reference::euler_step(f, want.back(), t, h));
          break;
        case Method::kHeun:
          want.push_back(solver_reference::heun_step(f, want.back(), t, h));
          break;
        default:
          want.push_back(solver_reference::rk4_step(f, want.back(), t, h));
          break;
      }
    }
    std::vector<Tensor> traj;
    SolveOptions opts{.method = m, .steps = steps, .trajectory = &traj};
    Tensor no_scratch = ode_solve(f, z0, t0, t1, opts);
    StepScratch scratch;
    opts.scratch = &scratch;
    opts.trajectory = nullptr;
    Tensor with_scratch = ode_solve(f, z0, t0, t1, opts);
    EXPECT_TRUE(same_bits(no_scratch, want.back())) << "no scratch";
    EXPECT_TRUE(same_bits(with_scratch, want.back())) << "with scratch";
    // The trajectory holds the step-start states, all but the last.
    ASSERT_EQ(traj.size() + 1, want.size());
    for (std::size_t i = 0; i < traj.size(); ++i) {
      EXPECT_TRUE(same_bits(traj[i], want[i])) << "state " << i;
    }
  }
}
