// Aggregated serving statistics.
//
// Each backend accumulates request/batch/latency counters plus the
// simulated-PL cycle totals its executors reported, so a hybrid engine's
// stats line shows both the host-side throughput and the modeled hardware
// utilization in one place. On top of the per-backend view the engine
// keeps per-priority latency histograms plus timeout/rejected/evicted
// counters (the overload-protection ledger: every shed request is
// attributed to its class), routed placements are counted per backend,
// and each backend reports its measured EWMA service time next to the
// analytical estimate — the numbers an autoscaling layer would watch.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "core/execution.hpp"
#include "runtime/request.hpp"

namespace odenet::runtime {

/// Upper bucket bounds (milliseconds) of the latency histograms; one
/// overflow bucket follows the last bound.
inline constexpr std::array<double, 8> kLatencyBucketUpperMs = {
    0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0};
inline constexpr std::size_t kLatencyBucketCount =
    kLatencyBucketUpperMs.size() + 1;

/// Index of the histogram bucket a latency falls in.
std::size_t latency_bucket(double seconds);

struct BackendStats {
  std::string name;  // engine label, e.g. "float" or "fpga_sim"
  core::ExecBackend backend = core::ExecBackend::kFloat;
  std::uint64_t requests = 0;
  std::uint64_t batches = 0;
  /// Requests routed here (pinned submits are not counted).
  std::uint64_t routed = 0;
  /// Requests rejected with DeadlineExceeded while queued here.
  std::uint64_t timeouts = 0;
  /// Arrivals shed fail-fast with QueueFull by this backend's bounded
  /// queue (admission control).
  std::uint64_t rejected = 0;
  /// Queued waiters evicted with QueueFull to admit higher-priority
  /// arrivals while this backend's queue was full.
  std::uint64_t evicted = 0;
  /// Anti-starvation promotions performed by this backend's queue.
  std::uint64_t promotions = 0;
  /// Replica re-syncs performed by this backend's workers after a
  /// reload(): each worker swapping to a newly published snapshot between
  /// micro-batches counts one swap.
  std::uint64_t swaps = 0;
  /// Swaps that took the delta fast path (changed tensors only).
  std::uint64_t delta_swaps = 0;
  /// BRAM stage requantizations performed across swaps, and offloaded
  /// stages a delta swap left untouched (version adopted, no BRAM
  /// rebuild) — the per-stage accounting behind delta publishes.
  std::uint64_t stages_requantized = 0;
  std::uint64_t stages_skipped = 0;
  /// Wall-clock seconds workers spent re-syncing (apply_snapshot + BRAM
  /// requantize) — the per-swap re-sync latency, summed and worst-case.
  double swap_seconds_total = 0.0;
  double max_swap_seconds = 0.0;
  /// Sum of batch forward-pass wall-clock seconds (worker busy time).
  double busy_seconds = 0.0;
  /// Sums over requests, for means.
  double queue_seconds_total = 0.0;
  double latency_seconds_total = 0.0;
  double max_latency_seconds = 0.0;
  /// Simulated PL cycles consumed on behalf of this backend's requests.
  std::uint64_t pl_cycles = 0;
  /// Point-in-time gauges at snapshot: queued and in-flight requests (the
  /// same numbers least_depth()'s load snapshot sees).
  std::size_t queue_depth = 0;
  int in_flight = 0;
  /// Measured per-request service seconds (worker-fed EWMA of
  /// busy_seconds/request, normalized by worker parallelism; 0 while
  /// cold) next to the analytical estimate it replaces — the inputs of
  /// the cluster's cost_order().
  double measured_request_seconds = 0.0;
  double modeled_request_seconds = 0.0;
  /// Conv-scratch gauges summed over the backend's replicas, each as of
  /// its last served batch: resident float capacity and cumulative buffer
  /// growths (flat after warmup — the no-regrowth invariant).
  std::size_t arena_capacity_floats = 0;
  std::uint64_t arena_growths = 0;

  double mean_batch_size() const {
    return batches == 0 ? 0.0
                        : static_cast<double>(requests) /
                              static_cast<double>(batches);
  }
  double mean_latency_seconds() const {
    return requests == 0 ? 0.0
                         : latency_seconds_total /
                               static_cast<double>(requests);
  }
  double mean_queue_seconds() const {
    return requests == 0 ? 0.0
                         : queue_seconds_total /
                               static_cast<double>(requests);
  }
  double mean_swap_seconds() const {
    return swaps == 0 ? 0.0
                      : swap_seconds_total / static_cast<double>(swaps);
  }
};

/// Per-priority-class serving counters (summed over backends).
struct PriorityStats {
  Priority priority = Priority::kNormal;
  /// Requests completed successfully.
  std::uint64_t requests = 0;
  /// Requests rejected with DeadlineExceeded.
  std::uint64_t timeouts = 0;
  /// Arrivals of this class shed fail-fast with QueueFull.
  std::uint64_t rejected = 0;
  /// Waiters of this class evicted with QueueFull by higher-priority
  /// arrivals.
  std::uint64_t evicted = 0;
  double latency_seconds_total = 0.0;
  double max_latency_seconds = 0.0;
  /// Completion-latency histogram over kLatencyBucketUpperMs (+overflow).
  std::array<std::uint64_t, kLatencyBucketCount> histogram{};

  /// Folds one completed request's latency into the counters.
  void record_latency(double seconds);
  double mean_latency_seconds() const {
    return requests == 0 ? 0.0
                         : latency_seconds_total /
                               static_cast<double>(requests);
  }
};

/// JSON schema version emitted by EngineStats/ClusterStats::to_json().
/// v2 added the "schema" field itself, the model name, and the
/// per-tenant section; consumers must treat absent "schema" as v1.
/// Dropping a key no consumer reads ("policy", "depth_bound", "arenas")
/// keeps v2.
inline constexpr int kStatsSchemaVersion = 2;

struct EngineStats {
  std::vector<BackendStats> backends;
  /// Indexed by Priority.
  std::array<PriorityStats, kPriorityLevels> priorities{};
  /// Per-tenant ledgers (weights/quotas, live queued, completions, quota
  /// sheds), in tenant-id order; entry 0 is the anonymous default tenant.
  std::vector<TenantCounters> tenants;
  /// Model name this engine serves (EngineConfig::model).
  std::string model;
  /// Seconds since the engine started serving.
  double wall_seconds = 0.0;
  /// Version id of the snapshot the engine currently serves.
  std::uint64_t model_version = 0;
  /// Successful reload() publishes since construction.
  std::uint64_t reloads = 0;

  std::uint64_t requests() const {
    std::uint64_t total = 0;
    for (const auto& b : backends) total += b.requests;
    return total;
  }
  std::uint64_t timeouts() const {
    std::uint64_t total = 0;
    for (const auto& b : backends) total += b.timeouts;
    return total;
  }
  std::uint64_t rejected() const {
    std::uint64_t total = 0;
    for (const auto& b : backends) total += b.rejected;
    return total;
  }
  std::uint64_t evicted() const {
    std::uint64_t total = 0;
    for (const auto& b : backends) total += b.evicted;
    return total;
  }
  /// Every request shed instead of served: fail-fast rejections,
  /// evictions, and deadline expiries.
  std::uint64_t shed() const { return rejected() + evicted() + timeouts(); }
  std::uint64_t routed() const {
    std::uint64_t total = 0;
    for (const auto& b : backends) total += b.routed;
    return total;
  }
  std::uint64_t pl_cycles() const {
    std::uint64_t total = 0;
    for (const auto& b : backends) total += b.pl_cycles;
    return total;
  }
  std::uint64_t swaps() const {
    std::uint64_t total = 0;
    for (const auto& b : backends) total += b.swaps;
    return total;
  }
  std::uint64_t promotions() const {
    std::uint64_t total = 0;
    for (const auto& b : backends) total += b.promotions;
    return total;
  }
  double images_per_second() const {
    return wall_seconds > 0.0
               ? static_cast<double>(requests()) / wall_seconds
               : 0.0;
  }

  /// One machine-readable JSON line (no trailing newline).
  std::string to_json() const;
};

}  // namespace odenet::runtime
