// Execution-context plumbing shared by every backend that can run a piece
// of the network: which engine ran it and what it cost.
//
// The concrete executors live higher up the stack (models/executor.hpp for
// the CPU backends, sched/fpga_executor.hpp for the simulated PL), but the
// backend identity and the per-stage cost record are core vocabulary — the
// layers, the executors and the serving runtime all speak it.
#pragma once

#include <cstdint>
#include <string>

namespace odenet::core {

/// The three ways a stage can execute (paper §4: float software on the PS,
/// Q-format fixed point, or the cycle-counted PL accelerator simulation).
enum class ExecBackend {
  kFloat,    // float32 reference kernels (PS software path)
  kFixed,    // Q-format fixed-point arithmetic on the CPU
  kFpgaSim,  // functional + timed OdeBlockAccelerator simulation
};

inline std::string backend_name(ExecBackend backend) {
  switch (backend) {
    case ExecBackend::kFloat: return "float";
    case ExecBackend::kFixed: return "fixed";
    case ExecBackend::kFpgaSim: return "fpga_sim";
  }
  return "unknown";
}

/// What one executor run of one stage cost. `seconds` is either measured
/// wall clock (CPU backends without a cost model) or modeled latency (the
/// CpuModel hook / the PL cycle model); `pl_cycles` is nonzero only for the
/// accelerator simulation.
struct StageRunStats {
  ExecBackend backend = ExecBackend::kFloat;
  bool on_accelerator = false;
  double seconds = 0.0;
  std::uint64_t pl_cycles = 0;
};

}  // namespace odenet::core
