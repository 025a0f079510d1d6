// Batched asynchronous inference engine with load-aware routing and
// zero-downtime weight hot-swap.
//
// The serving layer the ROADMAP's scaling work builds on: callers submit()
// single images and get std::futures; per-backend worker threads (on a
// dedicated util::ThreadPool) pull micro-batches from a priority/deadline-
// aware BatchQueue and run them through the StageExecutor plan of their
// backend — float software, fixed-point CPU, or the simulated PL
// accelerator. Dispatch is work-conserving: an idle worker takes whatever
// is queued at once, up to max_batch, so a lone request never waits for
// company and batches grow only with the backlog. Each worker owns a full
// Network replica, so workers never share mutable layer state and
// backends can serve concurrently.
//
// Weight ownership: the engine serves one models::ModelSnapshot at a time
// (the immutable versioned weight image; see models/snapshot.hpp).
// reload(snapshot) publishes a new version atomically; each worker swaps
// its replica BETWEEN micro-batches — no drain, no dropped futures, and
// in-flight batches finish on the version they started on. FPGA-sim
// backends re-quantize their simulated BRAM weight images as part of the
// same per-worker swap, so the accelerator is no longer frozen at
// construction. Any request submitted after reload() returns is served on
// the new version.
//
// Backend choice is routed by default: least_depth() (runtime/router.hpp)
// places each request on the backend with the fewest outstanding
// requests, from live queue-depth/in-flight gauges. Workers also feed a
// per-backend EWMA of observed busy seconds/request after every
// micro-batch; aggregate_load() rolls it up for the cluster's cost-ordered
// spill (cost_order()).
// SubmitOptions can pin a backend, set a priority class, and attach a
// deadline — an expired request completes with DeadlineExceeded instead
// of occupying a batch slot.
//
// Overload protection: with EngineConfig::max_queue_depth set, each
// backend queue sheds fail-fast — an arrival that finds the queue full
// fails its future with QueueFull immediately (a higher-priority arrival
// instead evicts the oldest evictable lower-class waiter when there is
// one), so queueing delay stays bounded and deadlines stop expiring at
// the back of a runaway queue. The bound is the one admission knob; it
// does not move at runtime. Per-priority rejected/evicted counters land
// in EngineStats::to_json().
//
// Shutdown drains: close the queues, finish every in-flight and queued
// request, then join. Every future handed out is eventually fulfilled.
#pragma once

#include <atomic>
#include <future>
#include <memory>
#include <set>
#include <vector>

#include "models/network.hpp"
#include "models/registry.hpp"
#include "models/snapshot.hpp"
#include "runtime/batch_queue.hpp"
#include "runtime/router.hpp"
#include "runtime/stats.hpp"
#include "runtime/tenant.hpp"
#include "sched/fpga_executor.hpp"
#include "sched/latency_model.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

namespace odenet::runtime {

struct BackendConfig {
  core::ExecBackend backend = core::ExecBackend::kFloat;
  /// kFpgaSim: stages served by dedicated PL circuits. Empty means every
  /// ODE stage of the architecture (the paper's full-offload setting).
  std::set<models::StageId> offloaded;
  int parallelism = 16;  // conv_xn
  double pl_clock_mhz = 100.0;
  fpga::AxiConfig axi{};
  /// Fractional bits of the fixed-point backends (kFixed activations, and
  /// the kFpgaSim datapath).
  int frac_bits = 20;
  /// Worker threads (each with its own Network replica).
  int workers = 1;
  /// Simulated device occupancy: each served micro-batch additionally
  /// holds its worker for this long (a sleep inside the timed service
  /// window, so measured EWMAs and busy_seconds see it). Emulates a
  /// fixed-latency accelerator round-trip, making a backend's capacity
  /// wall-clock-bound instead of host-CPU-bound — the lever the cluster
  /// scaling bench and tests use so N sleeping shards scale with N on
  /// any core count, the way N physical boards would. Zero (default)
  /// disables it; production configs leave it zero.
  std::chrono::microseconds sim_batch_latency{0};
};

struct EngineConfig {
  /// Largest micro-batch a worker takes from its backend queue. Dispatch
  /// is work-conserving: an idle worker starts whatever is queued at once.
  int max_batch = 8;
  /// Routed submits (SubmitOptions::backend == kAnyBackend) go to the
  /// backend with the fewest outstanding requests (least_depth()).
  std::vector<BackendConfig> backends{BackendConfig{}};
  /// Admission control: bound each backend queue at this depth; an
  /// arrival that finds the queue full is shed fail-fast with QueueFull
  /// through its future, or admitted by evicting the oldest evictable
  /// lower-priority waiter (see BatchQueue). 0 keeps queues unbounded (no
  /// shedding, the pre-overload-protection behavior).
  std::size_t max_queue_depth = 0;
  /// Name this engine serves requests as (SubmitOptions::model matches
  /// against it; the registry key when serve_from() binds one).
  std::string model = "default";
  /// Tenant weight/quota table, applied at construction. Tenants not
  /// listed here are interned on first submit with weight 1, no quota.
  std::vector<std::pair<std::string, TenantSpec>> tenants;
};

class InferenceEngine {
 public:
  /// Serves `snapshot` (which fixes architecture, solver settings and the
  /// initial weights): one replica per worker is built from it. Additional
  /// snapshots are published with reload().
  explicit InferenceEngine(models::ModelSnapshot::Ptr snapshot,
                           const EngineConfig& cfg = {});

  /// Convenience: captures a snapshot of the prototype and serves it. The
  /// prototype is not referenced after construction.
  explicit InferenceEngine(models::Network& prototype,
                           const EngineConfig& cfg = {});
  ~InferenceEngine();

  InferenceEngine(const InferenceEngine&) = delete;
  InferenceEngine& operator=(const InferenceEngine&) = delete;

  /// THE submission entrypoint: one image ([C,S,S] or [1,C,S,S]), every
  /// knob in SubmitOptions — tenant, model ref (name + pinned version),
  /// priority, deadline, backend pin, evictability. least_depth() picks
  /// the backend unless opts.backend pins one. Per-request failures
  /// (malformed image, wrong model name, a pinned model_version that is
  /// not live) fail the returned future with odenet::Error fast — they
  /// never reach a batch; submitting after shutdown() or pinning an
  /// out-of-range backend throws. The future is fulfilled when the
  /// micro-batch containing the request completes, carries the batch's
  /// exception if it fails, or carries DeadlineExceeded when
  /// opts.deadline expires first. Tenant quota shedding surfaces as
  /// QueueFull, like depth shedding.
  std::future<InferenceResult> submit(core::Tensor image,
                                      SubmitOptions opts = {});

  /// Spill hook for cluster-level placement: like submit(), but when the
  /// routed backend's bounded queue is full the request is NOT failed —
  /// try_submit returns false, leaves `image` intact and `out`
  /// untouched, and the caller may offer the request to another engine
  /// (spill-then-shed). Returns true whenever this engine took ownership
  /// of the outcome: the request was accepted (possibly by evicting a
  /// lower-priority waiter, exactly like submit), or it failed
  /// terminally for a per-request reason no other engine could fix (a
  /// malformed image) — in both cases `out` carries the future.
  /// Submitting after shutdown() throws, like submit().
  bool try_submit(core::Tensor& image, const SubmitOptions& opts,
                  std::future<InferenceResult>& out);

  /// Splits [N,C,S,S] into N requests; returns one future per image.
  std::vector<std::future<InferenceResult>> submit_batch(
      const core::Tensor& images, SubmitOptions opts = {});

  /// Publishes a new model version with zero downtime: the snapshot
  /// becomes the active model atomically, and every worker re-syncs its
  /// replica (weights + BN statistics + accelerator BRAM image) between
  /// micro-batches — in-flight batches finish on the old version, no
  /// future is dropped, and every request submitted after reload() returns
  /// is served on the new version. Delta-assembled snapshots
  /// (ModelSnapshot::assemble) take the fast sync path on workers whose
  /// replica carries the delta's base: only changed tensors are applied
  /// and only BRAM stages the delta touches are re-quantized. The
  /// snapshot must fit the engine's architecture (throws odenet::Error
  /// otherwise, with the old version still serving). Publishing the
  /// already-active version is a no-op. Returns the active version id.
  /// Thread-safe against submits and concurrent reloads.
  ///
  /// Registry-bound engines (serve_from): reload() is a thin wrapper
  /// over SnapshotRegistry::publish of this engine's model — the
  /// accuracy gate applies, a refusal throws odenet::Error (the old
  /// version keeps serving), and the engine picks the accepted version
  /// up through its subscription like any other publish.
  std::uint64_t reload(models::ModelSnapshot::Ptr snapshot);

  /// Binds this engine to a registry as a subscriber of its configured
  /// model (EngineConfig::model): every accepted publish and every
  /// rollback of that model is applied to the engine with the reload()
  /// guarantees above. If the registry has no active version of the
  /// model yet, the engine's current snapshot is published into it
  /// (ungated — it is already serving); otherwise the engine syncs to
  /// the registry's active version. The registry must outlive the
  /// engine (shutdown unsubscribes). One registry per engine.
  void serve_from(models::SnapshotRegistry& registry);

  /// Per-tenant ledger (quota/fairness state + counters).
  const TenantTable& tenants() const { return tenants_; }

  /// Version id of the currently published snapshot.
  std::uint64_t model_version() const {
    return active_version_.load(std::memory_order_acquire);
  }

  /// Stops accepting work, serves everything already queued, joins the
  /// workers. Idempotent; the destructor calls it.
  void shutdown();

  std::size_t backend_count() const { return backends_.size(); }
  const std::string& backend_label(std::size_t index) const;
  const EngineConfig& config() const { return cfg_; }

  /// Whole-engine load rolled into one BackendLoad — the per-shard gauge
  /// a cluster-level router consumes. Depth and in-flight sum across
  /// backends; the service-time estimates combine as parallel servers
  /// (1 / sum(1/t_i)). The measured field is the same combination with
  /// each backend priced by measured_cost_seconds() (a cold backend at
  /// its model, capped at the cheapest warm measurement), and 0 while
  /// EVERY backend is cold, so cost_order()'s own cold-start rule
  /// applies unchanged at the cluster level.
  BackendLoad aggregate_load() const;

  /// Counters aggregated since construction, plus each backend's live
  /// gauges: queue depth, in flight, service-time estimates (thread-safe
  /// snapshot).
  EngineStats stats() const;

 private:
  struct Worker {
    std::unique_ptr<models::Network> net;
    std::unique_ptr<models::FixedStageExecutor> fixed_exec;
    std::vector<std::unique_ptr<sched::FpgaStageExecutor>> fpga_execs;
    models::StagePlan plan;
    /// Snapshot version this worker's replica (and BRAM image) carries.
    /// Touched only by the worker's own loop after construction.
    std::uint64_t applied_version = 0;
    /// The replica's conv-scratch figures as of its last accounted batch;
    /// guarded by stats_mutex_ (stats() sums them per backend).
    std::size_t arena_capacity_floats = 0;
    std::uint64_t arena_growths = 0;
  };
  struct Backend {
    BackendConfig cfg;
    std::string label;
    std::size_t index = 0;
    /// kFpgaSim: cfg.offloaded with the empty-means-all default applied.
    std::set<models::StageId> offloaded;
    /// Modeled seconds to serve one request, / workers (cost input).
    double modeled_request_seconds = 0.0;
    /// Measured service-time feedback: workers fold every completed
    /// micro-batch's busy seconds/request into this EWMA; aggregate_load()
    /// reads it (normalized by worker count). Cold until a few batches
    /// have completed — cost_order() falls back to the model.
    sched::ServiceTimeEwma ewma;
    std::unique_ptr<BatchQueue> queue;
    std::vector<std::unique_ptr<Worker>> workers;
    /// Requests popped from the queue but not yet completed.
    std::atomic<int> in_flight{0};
    /// Requests least_depth() placed here; atomic so routed submits never
    /// contend on stats_mutex_ (folded into BackendStats at snapshot).
    std::atomic<std::uint64_t> routed{0};
    BackendStats stats;  // guarded by stats_mutex_
  };

  std::unique_ptr<Worker> build_worker(const Backend& backend,
                                       const models::ModelSnapshot& snapshot);
  void worker_loop(Backend& backend, Worker& worker);
  /// Swaps the worker's replica to the published snapshot when a newer
  /// version is live — the between-micro-batches hot-swap step. Takes
  /// the delta path (changed tensors + touched BRAM stages only) when
  /// the snapshot is delta-assembled against exactly the version this
  /// worker carries.
  void sync_worker(Backend& backend, Worker& worker);
  /// The direct publish path (validation + pointer swap + EWMA reset);
  /// reload() forwards here when unbound, the registry subscription
  /// callback lands here when bound.
  std::uint64_t apply_published(models::ModelSnapshot::Ptr snapshot);
  void serve_batch(Backend& backend, Worker& worker,
                   std::vector<PendingRequest>& batch);
  /// The request submit() and try_submit() enqueue: the image with its
  /// class (priority, evictability, interned tenant, absolute deadline);
  /// `future` receives the future of its promise.
  PendingRequest make_request(core::Tensor image, const SubmitOptions& opts,
                              std::future<InferenceResult>* future);
  /// Routed or pinned backend choice for one submit. count_routed
  /// controls the routed-placement counter: submit() counts at decision
  /// time, try_submit() only once the queue accepted (a spill probe that
  /// bounces is not a placement).
  std::size_t pick_backend(const SubmitOptions& opts,
                           bool count_routed = true);
  /// Normalizes [1,C,S,S] to [C,S,S] and validates the shape against the
  /// spec; false (with a message) for malformed images.
  bool normalize_image(core::Tensor& image, std::string* error) const;
  /// Validates SubmitOptions' model name / pinned version against what
  /// this engine serves; false (with a message) on mismatch.
  bool check_model_ref(const SubmitOptions& opts, std::string* error) const;
  /// Returns a future already failed with odenet::Error(message).
  static std::future<InferenceResult> failed_future(
      const std::string& message);

  EngineConfig cfg_;
  models::NetworkSpec spec_;
  models::SolverConfig solver_cfg_;
  /// Engine-wide tenant ledger + weighted-fair scheduler, shared by every
  /// backend queue (constructed before them, outlives their teardown).
  TenantTable tenants_;
  std::vector<std::unique_ptr<Backend>> backends_;
  /// Registry binding (serve_from); null when standalone.
  models::SnapshotRegistry* registry_ = nullptr;
  std::uint64_t registry_token_ = 0;
  /// The published model. snapshot_ is guarded by model_mutex_;
  /// active_version_ mirrors snapshot_->version() so workers can check
  /// "am I current?" without taking the mutex on every batch.
  mutable std::mutex model_mutex_;
  models::ModelSnapshot::Ptr snapshot_;
  std::atomic<std::uint64_t> active_version_{0};
  std::atomic<std::uint64_t> reloads_{0};
  mutable std::mutex stats_mutex_;
  /// Completed-request counters per priority class; guarded by
  /// stats_mutex_ (timeouts live in the queues and are folded at
  /// snapshot time).
  std::array<PriorityStats, kPriorityLevels> priority_stats_{};
  util::Stopwatch uptime_;
  /// Last member: joined (via shutdown's queue close + wait) before the
  /// backends it references are torn down.
  std::unique_ptr<util::ThreadPool> pool_;
};

}  // namespace odenet::runtime
