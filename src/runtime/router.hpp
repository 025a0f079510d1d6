// Backend placement rules for the serving engine and the cluster.
//
// The engine's backends are heterogeneous compute engines (PS float
// software, fixed-point CPU, the simulated PL accelerator), each with its
// own micro-batch queue. Two pure functions of a point-in-time load
// snapshot place work:
//  * least_depth() — the engine's placement of every routed request: the
//    backend with the fewest outstanding requests;
//  * cost_order() — the cluster's spill order: every backend ranked by
//    estimated completion, (outstanding + 1) x the live EWMA of observed
//    busy-seconds-per-request that the workers feed back. A backend whose
//    estimator is still cold is priced at its analytical sched/ model,
//    capped at the cheapest warm measurement — the model describes a
//    Cortex-A9, and an uncapped model far slower than this host would
//    keep the cold backend from ever receiving the traffic that warms it.
//
// Both are stateless and deterministic (ties go to the lowest index), so
// any number of producer threads may call them concurrently.
#pragma once

#include <cstddef>
#include <vector>

namespace odenet::runtime {

/// Point-in-time load of one backend, assembled by the engine (or a test
/// fake) at submit time.
struct BackendLoad {
  /// Requests waiting in the backend's BatchQueue.
  std::size_t queue_depth = 0;
  /// Requests popped by workers but not yet completed.
  int in_flight = 0;
  /// Modeled seconds to serve ONE request, normalized by the backend's
  /// worker parallelism (sched::LatencyModel / CpuModel; see
  /// InferenceEngine). cost_order() falls back to it (capped) while the
  /// measurement is cold.
  double modeled_request_seconds = 0.0;
  /// Measured seconds to serve one request: the worker-fed EWMA of
  /// busy_seconds/request, normalized by worker parallelism; 0.0 while
  /// the backend's estimator is cold.
  double measured_request_seconds = 0.0;
};

/// Per-request seconds a backend is priced at by cost_order(): its
/// measurement once warm (measured > 0); while cold, its model capped at
/// `cheapest_warm`, the cheapest warm measurement among the backends it
/// competes with (0 when none is warm).
double measured_cost_seconds(double measured, double modeled,
                             double cheapest_warm);

/// The backend with the fewest outstanding requests (queued + in flight),
/// ties to the lowest index. Throws on an empty snapshot.
std::size_t least_depth(const std::vector<BackendLoad>& loads);

/// Every backend index ordered by estimated completion cost,
/// (outstanding + 1) x measured_cost_seconds(), cheapest first, ties to
/// the lowest index — the spill order a cluster-level placement layer
/// walks when its primary choice is full. Throws on an empty snapshot.
std::vector<std::size_t> cost_order(const std::vector<BackendLoad>& loads);

}  // namespace odenet::runtime
