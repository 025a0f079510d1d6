// Request/response types of the serving runtime.
#pragma once

#include <chrono>
#include <cstdint>
#include <future>
#include <string>

#include "core/execution.hpp"
#include "core/tensor.hpp"
#include "runtime/tenant.hpp"
#include "util/check.hpp"

namespace odenet::runtime {

using Clock = std::chrono::steady_clock;

/// Scheduling class of a request. Higher values preempt lower ones at
/// batch-formation time (a popped batch takes high before normal before
/// low); within a class requests stay FIFO.
enum class Priority : int {
  kLow = 0,
  kNormal = 1,
  kHigh = 2,
};

inline constexpr int kPriorityLevels = 3;

inline std::string priority_name(Priority p) {
  switch (p) {
    case Priority::kLow: return "low";
    case Priority::kNormal: return "normal";
    case Priority::kHigh: return "high";
  }
  return "unknown";
}

/// Thrown through the future of a request whose deadline expired before a
/// worker picked it up; the request never occupies a batch slot.
class DeadlineExceeded : public Error {
 public:
  explicit DeadlineExceeded(const std::string& what) : Error(what) {}
};

/// Thrown through the future of a request shed by admission control: the
/// backend queue was at its depth bound (or the request's priority class
/// at its budget) and the request was rejected at submit time, or a
/// queued lower-priority request was evicted to admit a higher-priority
/// arrival. Fail-fast: the caller learns immediately instead of watching
/// its deadline expire at the back of an ever-growing queue.
class QueueFull : public Error {
 public:
  explicit QueueFull(const std::string& what) : Error(what) {}
};

/// Scheduling attributes of one queued request.
struct RequestClass {
  Priority priority = Priority::kNormal;
  /// Absolute completion deadline; time_point::max() means none. A request
  /// still queued past its deadline is rejected with DeadlineExceeded
  /// instead of being served late.
  Clock::time_point deadline = Clock::time_point::max();
  /// May a full queue evict this request to admit a higher-priority
  /// arrival? (SubmitOptions::evictable.)
  bool evictable = true;
  /// Tenant the request is accounted against (interned at submit from
  /// SubmitOptions::tenant; quota/fairness handle, see runtime/tenant.hpp).
  TenantId tenant = kDefaultTenant;
};

/// Sentinel backend index: let the engine place the request
/// (least_depth()).
inline constexpr std::size_t kAnyBackend = static_cast<std::size_t>(-1);

/// Per-request knobs of InferenceEngine::submit. Default-constructed
/// options mean: normal priority, no deadline, routed backend choice,
/// evictable under overload.
struct SubmitOptions {
  /// Scheduling class — also the admission-control class: under a bounded
  /// queue the priority decides which depth budget the request counts
  /// against, whether it may evict lower-class waiters when the queue is
  /// full, and whether IT can be the eviction victim. A shed request's
  /// future fails with QueueFull at submit time (fail-fast).
  Priority priority = Priority::kNormal;
  /// Relative completion deadline; zero (the default) means none.
  std::chrono::microseconds deadline{0};
  /// Pin the request to one backend; kAnyBackend routes by policy.
  std::size_t backend = kAnyBackend;
  /// Opt this request out of being evicted by higher-priority arrivals
  /// (it can still be rejected at its own submit time when the queue is
  /// full, and still expires on its deadline).
  bool evictable = true;
  /// Tenant the request runs (and is accounted) as; "" is the anonymous
  /// default tenant. Unknown names are interned on first use with weight
  /// 1 and no quota — configure spec via EngineConfig::tenants.
  std::string tenant;
  /// Model the request targets; "" means the engine's model. A non-empty
  /// name that is not the engine's model fails the request fast with
  /// odenet::Error instead of silently serving the wrong weights.
  std::string model;
  /// Require this exact snapshot version be active at submit; 0 (the
  /// default) accepts whatever is live. A mismatch fails fast — the
  /// cluster protocol uses this to pin a request to a published version.
  std::uint64_t model_version = 0;
};

/// What the engine hands back for one submitted image.
struct InferenceResult {
  /// Logits for this image, [classes].
  core::Tensor logits;
  /// Top-1 class.
  int predicted = -1;
  /// Backend that served the request.
  core::ExecBackend backend = core::ExecBackend::kFloat;
  /// Index of that backend in the engine's configuration.
  std::size_t backend_index = 0;
  /// Scheduling class the request rode in.
  Priority priority = Priority::kNormal;
  /// Size of the micro-batch the request rode in.
  int batch_size = 0;
  /// Seconds spent queued before its batch was picked up.
  double queue_seconds = 0.0;
  /// Wall-clock seconds of the whole batch forward pass.
  double compute_seconds = 0.0;
  /// Submit-to-completion seconds for this request.
  double total_seconds = 0.0;
  /// This image's share of the simulated PL cycles its batch consumed
  /// (zero on pure-software backends).
  std::uint64_t pl_cycles = 0;
  /// Snapshot version of the weights that actually served this request
  /// (0 when the engine has no snapshot attached).
  std::uint64_t model_version = 0;
  /// Tenant the request was accounted against.
  std::string tenant;
};

/// A queued single-image request. The image is [C,S,S] (or [1,C,S,S],
/// normalized at submit); the promise is fulfilled by the backend worker
/// that executes the batch containing it, or failed with DeadlineExceeded
/// by the queue when the deadline passes first.
struct PendingRequest {
  core::Tensor image;
  std::promise<InferenceResult> promise;
  Clock::time_point enqueued_at{};
  RequestClass cls{};
};

}  // namespace odenet::runtime
