// Ablation C: adjoint-method gradient fidelity vs step count (the paper's
// §4.3 instability discussion and ref [13]).
//
// For a fixed ODEBlock we compare dL/dz0 from (a) exact discrete backprop
// and (b) the adjoint method, as the number of Euler steps grows. The
// adjoint reconstructs z(t) by integrating backward; with few/large steps
// the reconstruction error corrupts the gradient — the proposed mechanism
// for ODENet's training instability at small N.
#include <cmath>
#include <cstdio>

#include "core/init.hpp"
#include "models/odeblock.hpp"
#include "solver/adjoint.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

using namespace odenet;
using core::Tensor;

namespace {

class BlockDyn final : public solver::DifferentiableDynamics {
 public:
  explicit BlockDyn(core::BuildingBlock& b) : b_(b) {}
  Tensor eval(const Tensor& z, float t) override {
    return b_.branch_forward(z, t);
  }
  Tensor vjp(const Tensor& v) override { return b_.branch_backward(v); }

 private:
  core::BuildingBlock& b_;
};

double cosine(const Tensor& a, const Tensor& b) {
  return a.dot(b) / (std::sqrt(static_cast<double>(a.sqnorm())) *
                     std::sqrt(static_cast<double>(b.sqnorm())) + 1e-30);
}

}  // namespace

int main() {
  std::printf("=== Ablation: adjoint vs exact discrete gradients "
              "(paper §4.3 / ANODE [13]) ===\n\n");

  util::Rng rng(11);
  core::BuildingBlock block({.in_channels = 4, .out_channels = 4,
                             .stride = 1, .time_channel = true});
  core::init_block(block, rng);
  block.set_training(true);
  BlockDyn dyn(block);

  Tensor z0({1, 4, 6, 6});
  for (std::size_t i = 0; i < z0.numel(); ++i) {
    z0.data()[i] = static_cast<float>(rng.normal(0.0, 0.5));
  }
  Tensor gout(z0.shape());
  for (std::size_t i = 0; i < gout.numel(); ++i) {
    gout.data()[i] = static_cast<float>(rng.normal(0.0, 1.0));
  }

  util::TableWriter table({"Euler steps (M)", "h", "rel. L2 error",
                           "cosine(adjoint, discrete)"});
  // Integrate over a fixed span [0,2] with an increasingly fine grid; in
  // the rODENet setting M doubles as the (N-8)/2 execution count.
  for (int steps : {1, 2, 4, 8, 16, 32}) {
    const float t1 = 2.0f;
    // Discrete backprop differentiates the recorded step-start states
    // z_0..z_{M-1}; the adjoint keeps only z(t1) and reconstructs the rest
    // backward.
    std::vector<Tensor> traj;
    solver::SolveOptions opts{.method = solver::Method::kEuler,
                              .steps = steps, .trajectory = &traj};
    const Tensor z1 = solver::ode_solve(dyn, z0, 0.0f, t1, opts);
    auto dis = solver::discrete_backward(dyn, traj, gout, 0.0f, t1,
                                         solver::Method::kEuler);
    auto adj = solver::adjoint_backward(dyn, z1, gout, 0.0f, t1, steps);

    Tensor diff = adj.grad_z0;
    diff.axpy(-1.0f, dis.grad_z0);
    const double rel =
        std::sqrt(static_cast<double>(diff.sqnorm())) /
        (std::sqrt(static_cast<double>(dis.grad_z0.sqnorm())) + 1e-30);
    table.add_row({std::to_string(steps),
                   util::TableWriter::fmt(2.0 / steps, 3),
                   util::TableWriter::fmt(rel, 4),
                   util::TableWriter::fmt(cosine(adj.grad_z0, dis.grad_z0),
                                          4)});
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf(
      "Expected shape: error falls roughly linearly in h (the adjoint is a\n"
      "first-order-consistent estimate of the discrete gradient). At M=1\n"
      "(the coarse grids of small-N ODENets) the gradients disagree\n"
      "substantially — consistent with the unstable Figure-6 training\n"
      "curves for ODENet-20 and the paper's future-work item on the\n"
      "adjoint accuracy loss.\n");
  return 0;
}
