// Load-aware backend selection for the serving engine.
//
// The engine's backends are heterogeneous compute engines (PS float
// software, fixed-point CPU, the simulated PL accelerator), each with its
// own micro-batch queue. The Router picks one per routed request from a
// point-in-time load snapshot; policies range from static pinning to cost
// models that combine queue pressure with a per-request service-time
// estimate — either the analytical one from sched/ (CpuModel for software
// paths, the PS/PL LatencyModel for offloaded ones) or, for
// kMeasuredLatency, the live EWMA of observed busy-seconds-per-request
// that the workers feed back. A backend whose estimator is still cold is
// priced at its analytical model, capped at the cheapest warm
// measurement — the model describes a Cortex-A9, and an uncapped model
// far slower than this host would keep the cold backend from ever
// receiving the traffic that warms it.
//
// route() is safe to call from many producer threads concurrently: the
// mutable state is the round-robin cursor and the hysteresis anchor, both
// atomics.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace odenet::runtime {

enum class RoutePolicy {
  /// Always the configured backend index (the pre-router behavior).
  kStatic,
  /// Cycle through backends regardless of load.
  kRoundRobin,
  /// Fewest outstanding requests (queued + in flight), ties to the lowest
  /// index.
  kLeastDepth,
  /// Smallest estimated completion time: (outstanding + 1) x modeled
  /// per-request service seconds, ties to the lowest index. With equal
  /// service times this degenerates to least-depth; with heterogeneous
  /// backends it prefers the faster engine until its queue pressure
  /// outweighs the speed advantage.
  kModeledLatency,
  /// kModeledLatency driven by MEASURED service times: each backend's
  /// EWMA of observed busy seconds/request replaces the analytical
  /// estimate once warm (cold backends fall back to the model, capped at
  /// the cheapest warm measurement, so the policy is usable from the
  /// first request and a cold backend still warms). A hysteresis band keeps
  /// the previous pick until another backend beats it by a margin, so
  /// jittery measurements don't make placement flap.
  kMeasuredLatency,
};

std::string route_policy_name(RoutePolicy policy);
/// Inverse of route_policy_name; throws odenet::Error on unknown names.
RoutePolicy route_policy_from_name(const std::string& name);
const std::vector<RoutePolicy>& all_route_policies();

/// Point-in-time load of one backend, assembled by the engine (or a test
/// fake) at submit time.
struct BackendLoad {
  /// Requests waiting in the backend's BatchQueue.
  std::size_t queue_depth = 0;
  /// Requests popped by workers but not yet completed.
  int in_flight = 0;
  /// Modeled seconds to serve ONE request, normalized by the backend's
  /// worker parallelism (sched::LatencyModel / CpuModel; see
  /// InferenceEngine). kModeledLatency consults this; kMeasuredLatency
  /// falls back to it (capped) while the measurement is cold.
  double modeled_request_seconds = 0.0;
  /// Measured seconds to serve one request: the worker-fed EWMA of
  /// busy_seconds/request, normalized by worker parallelism; 0.0 while
  /// the backend's estimator is cold. Only kMeasuredLatency consults it.
  double measured_request_seconds = 0.0;
};

/// Per-request seconds a backend is priced at under kMeasuredLatency:
/// its measurement once warm (measured > 0); while cold, its model
/// capped at `cheapest_warm`, the cheapest warm measurement among the
/// backends it competes with (0 when none is warm).
double measured_cost_seconds(double measured, double modeled,
                             double cheapest_warm);

class Router {
 public:
  /// hysteresis: kMeasuredLatency keeps its previous pick while that
  /// backend's estimated completion cost is within (1 + hysteresis) of
  /// the current best; 0 disables the band (always take the argmin).
  explicit Router(RoutePolicy policy, std::size_t static_index = 0,
                  double hysteresis = 0.15);

  /// Picks a backend index in [0, loads.size()). Deterministic for a given
  /// snapshot: ties always break to the lowest index (round-robin is
  /// deterministic in its call sequence instead, and kMeasuredLatency in
  /// its snapshot sequence through the hysteresis anchor). Throws on an
  /// empty snapshot or a static index out of range.
  std::size_t route(const std::vector<BackendLoad>& loads);

  /// Every backend index ordered by estimated completion cost, cheapest
  /// first (ties to the lowest index) — the spill order a cluster-level
  /// placement layer walks when its primary choice is full. Uses the
  /// same cost function as route(): measured service times (with the
  /// capped model for cold backends) under kMeasuredLatency, the
  /// analytical model otherwise; kLeastDepth/kRoundRobin/kStatic rank by
  /// outstanding-weighted modeled cost too, so the order is always
  /// load-aware. Pure function of the snapshot: no anchor or cursor is
  /// consulted or advanced.
  std::vector<std::size_t> cost_order(
      const std::vector<BackendLoad>& loads) const;

  /// Forgets kMeasuredLatency's sticky previous pick. The serving engine
  /// calls this on weight hot-swap alongside the ServiceTimeEwma resets:
  /// a stale anchor would keep biasing placement toward the pre-publish
  /// backend through the hysteresis band even though the measurements
  /// that justified it were just discarded.
  void reset_anchor() { anchor_.store(kNoAnchor, std::memory_order_relaxed); }

  RoutePolicy policy() const { return policy_; }
  std::size_t static_index() const { return static_index_; }
  double hysteresis() const { return hysteresis_; }

 private:
  /// Estimated completion cost of one more request per backend:
  /// (outstanding + 1) x seconds-per-request, the model or, when
  /// `measured`, measured_cost_seconds().
  static std::vector<double> costs(const std::vector<BackendLoad>& loads,
                                   bool measured);

  RoutePolicy policy_;
  std::size_t static_index_;
  double hysteresis_;
  std::atomic<std::uint64_t> round_robin_{0};
  /// kMeasuredLatency's sticky pick; kNoAnchor until the first route.
  static constexpr std::size_t kNoAnchor = static_cast<std::size_t>(-1);
  std::atomic<std::size_t> anchor_{kNoAnchor};
};

}  // namespace odenet::runtime
