// ODE solving interfaces (paper §2.2, Eq. 2-5).
//
// The state z is a core::Tensor of arbitrary shape; dynamics implement
// dz/dt = f(z, t, θ). ODESolve (Eq. 4) advances an initial value problem
// from t0 to t1 with a chosen numerical method. The paper uses the Euler
// method on hardware; Heun (2nd order), classic RK4 (4th order) and
// adaptive Dormand-Prince (RK45) are provided for the solver-order
// experiments the paper lists as future work. The fixed-step methods are
// each one Butcher tableau (solver/tableau.hpp), which drives both the
// step here and its derivative in discrete_backward (solver/adjoint.hpp);
// a solve's recorded trajectory is what that backward differentiates.
#pragma once

#include <array>
#include <functional>
#include <string>
#include <vector>

#include "core/tensor.hpp"

namespace odenet::solver {

/// Continuous dynamics f(z, t). Implementations may hold parameters θ.
class OdeFunction {
 public:
  virtual ~OdeFunction() = default;
  virtual core::Tensor eval(const core::Tensor& z, float t) = 0;

  /// Evaluates into a caller-provided tensor (reallocated on shape
  /// mismatch, reused otherwise) so fixed-step solvers can step without
  /// allocating. Default falls back to eval(); dynamics with a fused
  /// inference path override this to write the recycled buffer directly.
  virtual void eval_into(const core::Tensor& z, float t, core::Tensor& out) {
    out = eval(z, t);
  }

  /// One in-place Euler update z += h * f(z, t), when the dynamics can do
  /// it cheaper than eval + axpy (the fused block writes the state once,
  /// inside its second GEMM). Returns false (the default) to make the
  /// solver take its generic eval_into + axpy path instead.
  virtual bool euler_step_inplace(core::Tensor& /*z*/, float /*t*/,
                                  float /*h*/) {
    return false;
  }
};

/// Dynamics that can also compute vector-Jacobian products, which both the
/// adjoint method and discrete backprop need. Protocol: call eval(z, t)
/// (which caches intermediate state), then vjp(v) which returns vT df/dz
/// and accumulates vT df/dθ into the owner's parameter gradients.
class DifferentiableDynamics : public OdeFunction {
 public:
  virtual core::Tensor vjp(const core::Tensor& v) = 0;
};

/// Dynamics that record, during a fixed-step forward solve, what each
/// evaluation's VJP reads, so discrete_backward (solver/adjoint.hpp) runs
/// the reverse sweep without evaluating f again. Evaluations are numbered
/// in the order the solve makes them: stage j of step i is evaluation
/// i * stages + j.
class RecordedDynamics {
 public:
  virtual ~RecordedDynamics() = default;
  /// Evaluations the last forward solve recorded (0 when it recorded none).
  virtual int recorded_evaluations() const = 0;
  /// vT df/dz at recorded evaluation `evaluation`; accumulates vT df/dθ.
  virtual core::Tensor vjp_recorded(int evaluation,
                                    const core::Tensor& v) = 0;
};

/// Adapter turning a lambda into dynamics (used heavily in tests, where
/// analytic ODEs with known solutions validate convergence orders).
class FunctionDynamics final : public OdeFunction {
 public:
  using Fn = std::function<core::Tensor(const core::Tensor&, float)>;
  explicit FunctionDynamics(Fn fn) : fn_(std::move(fn)) {}
  core::Tensor eval(const core::Tensor& z, float t) override {
    return fn_(z, t);
  }

 private:
  Fn fn_;
};

enum class Method { kEuler, kHeun, kRk4, kDopri5 };

std::string method_name(Method m);
/// Number of dynamics evaluations per fixed step (1 / 2 / 4; Dopri5 uses 6
/// fresh evaluations per accepted step thanks to FSAL).
int evals_per_step(Method m);
/// Classical convergence order (1 / 2 / 4 / 5).
int method_order(Method m);

/// Most stages of a fixed-step method (RK4's four).
inline constexpr int kMaxStages = 4;

/// Reusable stage storage for the fixed-step methods. A caller that keeps
/// one StepScratch alive across solves (the runtime's OdeBlock does)
/// makes stepping allocation-free after the first step: every k-stage and
/// the intermediate state land in these recycled tensors.
struct StepScratch {
  std::array<core::Tensor, kMaxStages> k;
  core::Tensor u;  // intermediate state z + a*h*k
};

struct SolveOptions {
  Method method = Method::kEuler;
  /// Fixed-step methods: number of steps across [t0, t1].
  int steps = 1;
  /// Adaptive (Dopri5) tolerances.
  double rtol = 1e-6;
  double atol = 1e-9;
  /// Adaptive: hard cap on accepted+rejected steps.
  int max_steps = 100000;
  /// When set, solvers append the state each accepted step starts from:
  /// z_0..z_{M-1} for an M-step fixed-step solve, the input
  /// discrete_backward differentiates. The result z_M is the solve's
  /// return value and is not copied here.
  std::vector<core::Tensor>* trajectory = nullptr;
  /// Optional caller-owned stage storage for euler/heun/rk4 (values are
  /// identical with or without it; it only removes per-step allocation).
  /// Must outlive the solve. Dopri5 ignores it.
  StepScratch* scratch = nullptr;
};

struct SolveStats {
  int steps_taken = 0;
  int steps_rejected = 0;
  int function_evals = 0;
};

/// Eq. 4: ODESolve(z(t0), t0, t1, f). Fixed-step for Euler/Heun/RK4;
/// adaptive for Dopri5. t1 < t0 integrates backward.
core::Tensor ode_solve(OdeFunction& f, const core::Tensor& z0, float t0,
                       float t1, const SolveOptions& opts,
                       SolveStats* stats = nullptr);

}  // namespace odenet::solver
