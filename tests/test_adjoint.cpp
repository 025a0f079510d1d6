// Gradients through ODESolve: exact discrete backprop vs the adjoint
// method (paper Eq. 9), validated against finite differences and against
// each other — including the large-step divergence that motivates the
// paper's §4.3 instability discussion (ANODE, ref [13]).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "core/block.hpp"
#include "core/init.hpp"
#include "solver/adjoint.hpp"
#include "solver_reference.hpp"
#include "util/rng.hpp"

using namespace odenet::solver;
using odenet::core::BuildingBlock;
using odenet::core::Tensor;
namespace ou = odenet::util;

namespace {

/// Differentiable analytic dynamics with one scalar parameter:
/// f(z, t) = theta * z^2 (element-wise). df/dz = 2*theta*z, df/dtheta = z^2.
class QuadraticDynamics final : public DifferentiableDynamics {
 public:
  explicit QuadraticDynamics(float theta) : theta_(theta) {}

  Tensor eval(const Tensor& z, float) override {
    cached_z_ = z;
    Tensor out = z;
    out.mul(z);
    out.scale(theta_);
    return out;
  }

  Tensor vjp(const Tensor& v) override {
    // vT df/dtheta = sum(v * z^2); vT df/dz = v * 2*theta*z.
    Tensor z2 = cached_z_;
    z2.mul(cached_z_);
    theta_grad_ += v.dot(z2);
    Tensor gz = v;
    gz.mul(cached_z_);
    gz.scale(2.0f * theta_);
    return gz;
  }

  float theta_ = 0.0f;
  float theta_grad_ = 0.0f;

 private:
  Tensor cached_z_;
};

/// QuadraticDynamics that records each evaluation's z during a solve, so
/// the reverse sweep reads it back instead of evaluating f again.
class RecordingQuadratic final : public DifferentiableDynamics,
                                 public RecordedDynamics {
 public:
  explicit RecordingQuadratic(float theta) : theta_(theta) {}

  Tensor eval(const Tensor& z, float) override {
    zs_.push_back(z);
    Tensor out = z;
    out.mul(z);
    out.scale(theta_);
    return out;
  }
  Tensor vjp(const Tensor&) override {
    ADD_FAILURE() << "the recorded sweep must not call vjp()";
    return {};
  }
  int recorded_evaluations() const override {
    return static_cast<int>(zs_.size());
  }
  Tensor vjp_recorded(int evaluation, const Tensor& v) override {
    const Tensor& z = zs_.at(static_cast<std::size_t>(evaluation));
    Tensor z2 = z;
    z2.mul(z);
    theta_grad_ += v.dot(z2);
    Tensor gz = v;
    gz.mul(z);
    gz.scale(2.0f * theta_);
    return gz;
  }

  float theta_ = 0.0f;
  float theta_grad_ = 0.0f;

 private:
  std::vector<Tensor> zs_;
};

/// Dynamics adapter over a BuildingBlock's residual branch.
class BlockDyn final : public DifferentiableDynamics {
 public:
  explicit BlockDyn(BuildingBlock& b) : b_(b) {}
  Tensor eval(const Tensor& z, float t) override {
    return b_.branch_forward(z, t);
  }
  Tensor vjp(const Tensor& v) override { return b_.branch_backward(v); }

 private:
  BuildingBlock& b_;
};

Tensor random_tensor(std::vector<int> shape, ou::Rng& rng) {
  Tensor t(std::move(shape));
  for (std::size_t i = 0; i < t.numel(); ++i) {
    t.data()[i] = static_cast<float>(rng.normal(0.0, 0.5));
  }
  return t;
}

/// Solves forward recording the trajectory, then backpropagates through it.
BackwardResult solve_backward(DifferentiableDynamics& f, const Tensor& z0,
                              const Tensor& grad_z1, float t1, Method m,
                              int steps) {
  std::vector<Tensor> traj;
  SolveOptions opts{.method = m, .steps = steps, .trajectory = &traj};
  ode_solve(f, z0, 0.0f, t1, opts);
  return discrete_backward(f, traj, grad_z1, 0.0f, t1, m);
}

float scalar_solve(QuadraticDynamics& f, float z0v, Method m, int steps) {
  Tensor z0({1});
  z0.at1(0) = z0v;
  SolveOptions opts{.method = m, .steps = steps};
  return ode_solve(f, z0, 0.0f, 1.0f, opts).at1(0);
}

}  // namespace

class DiscreteGradMethods : public ::testing::TestWithParam<Method> {};

TEST_P(DiscreteGradMethods, MatchesFiniteDifferenceInZ0) {
  const Method m = GetParam();
  QuadraticDynamics f(0.4f);
  const float z0v = 0.8f;
  const int steps = 4;

  Tensor z0({1});
  z0.at1(0) = z0v;
  Tensor grad_out({1});
  grad_out.at1(0) = 1.0f;  // L = z(t1)
  auto res = solve_backward(f, z0, grad_out, 1.0f, m, steps);

  const float eps = 1e-3f;
  QuadraticDynamics fp(0.4f), fm(0.4f);
  const float up = scalar_solve(fp, z0v + eps, m, steps);
  const float dn = scalar_solve(fm, z0v - eps, m, steps);
  EXPECT_NEAR(res.grad_z0.at1(0), (up - dn) / (2 * eps), 2e-3f)
      << method_name(m);
}

TEST_P(DiscreteGradMethods, MatchesFiniteDifferenceInTheta) {
  const Method m = GetParam();
  const float theta = 0.3f;
  const int steps = 3;

  QuadraticDynamics f(theta);
  Tensor z0({1});
  z0.at1(0) = 1.1f;
  Tensor grad_out({1});
  grad_out.at1(0) = 1.0f;
  solve_backward(f, z0, grad_out, 1.0f, m, steps);

  const float eps = 1e-3f;
  QuadraticDynamics fp(theta + eps), fm(theta - eps);
  const float up = scalar_solve(fp, 1.1f, m, steps);
  const float dn = scalar_solve(fm, 1.1f, m, steps);
  EXPECT_NEAR(f.theta_grad_, (up - dn) / (2 * eps), 5e-3f) << method_name(m);
}

TEST_P(DiscreteGradMethods, RecordedSweepEqualsTrajectorySweep) {
  // The same solve differentiated from its recorded evaluations (f
  // evaluated 0 times) and from its trajectory (re-evaluated): dz0 and
  // dtheta bit for bit.
  const Method m = GetParam();
  const int steps = 3;
  Tensor z0({3});
  for (int i = 0; i < 3; ++i) z0.at1(i) = 0.6f + 0.25f * static_cast<float>(i);
  Tensor g({3});
  for (int i = 0; i < 3; ++i) g.at1(i) = 1.0f - 0.4f * static_cast<float>(i);

  RecordingQuadratic rec(0.35f);
  SolveOptions opts{.method = m, .steps = steps};
  ode_solve(rec, z0, 0.0f, 1.0f, opts);
  EXPECT_EQ(rec.recorded_evaluations(), steps * evals_per_step(m));
  const BackwardResult got = discrete_backward(
      static_cast<RecordedDynamics&>(rec), steps, g, 0.0f, 1.0f, m);

  QuadraticDynamics f(0.35f);
  const BackwardResult want = solve_backward(f, z0, g, 1.0f, m, steps);
  EXPECT_EQ(got.function_evals, 0);
  EXPECT_EQ(0, std::memcmp(got.grad_z0.data(), want.grad_z0.data(),
                           want.grad_z0.numel() * sizeof(float)));
  EXPECT_EQ(0, std::memcmp(&rec.theta_grad_, &f.theta_grad_, sizeof(float)));

  // A record that does not cover every evaluation of the solve is refused.
  EXPECT_THROW(discrete_backward(static_cast<RecordedDynamics&>(rec),
                                 steps + 1, g, 0.0f, 1.0f, m),
               odenet::Error);
}

INSTANTIATE_TEST_SUITE_P(Methods, DiscreteGradMethods,
                         ::testing::Values(Method::kEuler, Method::kHeun,
                                           Method::kRk4));

TEST(Adjoint, AgreesWithDiscreteForManySmallSteps) {
  // With small h the backward reconstruction is accurate, so the adjoint
  // gradient approaches the exact discrete gradient.
  QuadraticDynamics fa(0.5f), fd(0.5f);
  Tensor z0({1});
  z0.at1(0) = 0.9f;
  const int steps = 64;
  SolveOptions opts{.method = Method::kEuler, .steps = steps};
  Tensor z1 = ode_solve(fa, z0, 0.0f, 1.0f, opts);

  Tensor grad_out({1});
  grad_out.at1(0) = 1.0f;
  auto adj = adjoint_backward(fa, z1, grad_out, 0.0f, 1.0f, steps);
  auto dis = solve_backward(fd, z0, grad_out, 1.0f, Method::kEuler, steps);
  // Adjoint converges to the discrete gradient at O(h): ~2% at h = 1/64.
  EXPECT_NEAR(adj.grad_z0.at1(0), dis.grad_z0.at1(0),
              0.03f * std::fabs(dis.grad_z0.at1(0)));
  EXPECT_NEAR(fa.theta_grad_, fd.theta_grad_,
              0.03f * std::fabs(fd.theta_grad_));
}

TEST(Adjoint, DivergesFromDiscreteForLargeSteps) {
  // With one huge step the reconstructed z differs from the stored forward
  // z, so adjoint and discrete gradients separate — the instability the
  // paper attributes to the adjoint method at coarse discretizations.
  QuadraticDynamics fa(0.9f), fd(0.9f);
  Tensor z0({1});
  z0.at1(0) = 1.2f;
  const int steps = 1;
  SolveOptions opts{.method = Method::kEuler, .steps = steps};
  Tensor z1 = ode_solve(fa, z0, 0.0f, 1.0f, opts);

  Tensor grad_out({1});
  grad_out.at1(0) = 1.0f;
  auto adj = adjoint_backward(fa, z1, grad_out, 0.0f, 1.0f, steps);
  auto dis = solve_backward(fd, z0, grad_out, 1.0f, Method::kEuler, steps);
  const float rel = std::fabs(adj.grad_z0.at1(0) - dis.grad_z0.at1(0)) /
                    std::fabs(dis.grad_z0.at1(0));
  EXPECT_GT(rel, 0.05f);  // clearly separated
}

TEST(Adjoint, FunctionEvalCounts) {
  QuadraticDynamics f(0.2f);
  Tensor z0({1});
  z0.at1(0) = 1.0f;
  Tensor g({1});
  g.at1(0) = 1.0f;
  auto adj = adjoint_backward(f, z0, g, 0.0f, 1.0f, 8);
  EXPECT_EQ(adj.function_evals, 8);
  QuadraticDynamics f2(0.2f);
  auto dis = solve_backward(f2, z0, g, 1.0f, Method::kRk4, 3);
  // The forward is not re-solved. Per step: 3 stage recomputes (k1..k3) +
  // 4 eval+VJP pairs = 7 evals. Total 3 x 7 = 21.
  EXPECT_EQ(dis.function_evals, 21);
}

TEST(BlockDynamics, DiscreteEulerGradMatchesFiniteDifference) {
  ou::Rng rng(9);
  BuildingBlock block({.in_channels = 2, .out_channels = 2, .stride = 1,
                       .time_channel = true});
  odenet::core::init_block(block, rng);
  block.set_training(true);
  BlockDyn dyn(block);

  Tensor z0 = random_tensor({1, 2, 3, 3}, rng);
  Tensor gout = random_tensor({1, 2, 3, 3}, rng);
  const int steps = 2;

  auto res = solve_backward(dyn, z0, gout, 2.0f, Method::kEuler, steps);

  auto loss = [&](const Tensor& z) {
    SolveOptions opts{.method = Method::kEuler, .steps = steps};
    return ode_solve(dyn, z, 0.0f, 2.0f, opts).dot(gout);
  };
  const float eps = 1e-2f;
  for (std::size_t i : {std::size_t{0}, std::size_t{7}, std::size_t{17}}) {
    Tensor zp = z0;
    zp.data()[i] += eps;
    Tensor zm = z0;
    zm.data()[i] -= eps;
    const float fd = (loss(zp) - loss(zm)) / (2 * eps);
    EXPECT_NEAR(res.grad_z0.data()[i], fd, 0.15f) << "index " << i;
  }
}

TEST(BlockDynamics, DiscreteBackwardMatchesReferenceSweepBitwise) {
  // The tableau-driven backward against the per-method formulas in
  // solver_reference.hpp: dL/dz0 and every parameter gradient bit for bit.
  for (Method m : {Method::kEuler, Method::kHeun, Method::kRk4}) {
    SCOPED_TRACE(method_name(m));
    ou::Rng rng(12);
    BuildingBlock block({.in_channels = 2, .out_channels = 2, .stride = 1,
                         .time_channel = true});
    odenet::core::init_block(block, rng);
    block.set_training(true);
    BlockDyn dyn(block);
    Tensor z0 = random_tensor({2, 2, 3, 3}, rng);
    Tensor gout = random_tensor({2, 2, 3, 3}, rng);
    std::vector<Tensor> traj;
    SolveOptions opts{.method = m, .steps = 3, .trajectory = &traj};
    ode_solve(dyn, z0, 0.0f, 1.5f, opts);

    block.zero_grads();
    const Tensor got = discrete_backward(dyn, traj, gout, 0.0f, 1.5f, m).grad_z0;
    std::vector<Tensor> got_grads;
    for (auto* p : block.params()) got_grads.push_back(p->grad);
    block.zero_grads();
    const Tensor want =
        solver_reference::discrete_backward(dyn, traj, gout, 0.0f, 1.5f, m);

    ASSERT_EQ(got.numel(), want.numel());
    EXPECT_EQ(0, std::memcmp(got.data(), want.data(),
                             want.numel() * sizeof(float)));
    const auto params = block.params();
    for (std::size_t i = 0; i < params.size(); ++i) {
      EXPECT_EQ(0, std::memcmp(got_grads[i].data(), params[i]->grad.data(),
                               got_grads[i].numel() * sizeof(float)))
          << params[i]->name;
    }
  }
}

TEST(BlockDynamics, ParamGradsAccumulateDuringBackward) {
  ou::Rng rng(10);
  BuildingBlock block({.in_channels = 2, .out_channels = 2, .stride = 1,
                       .time_channel = true});
  odenet::core::init_block(block, rng);
  block.set_training(true);
  BlockDyn dyn(block);

  Tensor z0 = random_tensor({1, 2, 3, 3}, rng);
  Tensor gout = random_tensor({1, 2, 3, 3}, rng);
  block.zero_grads();
  solve_backward(dyn, z0, gout, 1.0f, Method::kEuler, 2);
  float gmax = 0;
  for (auto* p : block.params()) gmax = std::max(gmax, p->grad.abs_max());
  EXPECT_GT(gmax, 0.0f);
}

TEST(Backward, RejectsInvalidArguments) {
  QuadraticDynamics f(0.1f);
  Tensor z({1}), g({1});
  EXPECT_THROW(adjoint_backward(f, z, g, 0.0f, 1.0f, 0), odenet::Error);
  const std::vector<Tensor> traj{z, z};
  EXPECT_THROW(discrete_backward(f, traj, g, 0.0f, 1.0f, Method::kDopri5),
               odenet::Error);
  EXPECT_THROW(discrete_backward(f, {}, g, 0.0f, 1.0f, Method::kEuler),
               odenet::Error);
  Tensor bad({2});
  EXPECT_THROW(adjoint_backward(f, z, bad, 0.0f, 1.0f, 1), odenet::Error);
  EXPECT_THROW(discrete_backward(f, traj, bad, 0.0f, 1.0f, Method::kEuler),
               odenet::Error);
}
