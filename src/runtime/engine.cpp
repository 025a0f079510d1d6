#include "runtime/engine.hpp"

#include <algorithm>
#include <sstream>
#include <thread>

#include "core/softmax.hpp"
#include "sched/latency_model.hpp"

namespace odenet::runtime {

namespace {

/// Anti-starvation aging: a request queued longer than this is promoted
/// one priority class in pop order (see BatchQueue).
constexpr std::chrono::microseconds kPromoteAfter{16000};

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

}  // namespace

InferenceEngine::InferenceEngine(models::Network& prototype,
                                 const EngineConfig& cfg)
    : InferenceEngine(prototype.export_snapshot(), cfg) {}

InferenceEngine::InferenceEngine(models::ModelSnapshot::Ptr snapshot,
                                 const EngineConfig& cfg)
    : cfg_(cfg) {
  ODENET_CHECK(snapshot != nullptr, "engine needs a model snapshot");
  spec_ = snapshot->spec();
  solver_cfg_ = snapshot->solver_config();
  snapshot_ = std::move(snapshot);
  active_version_.store(snapshot_->version(), std::memory_order_release);
  ODENET_CHECK(!cfg_.backends.empty(), "engine needs at least one backend");
  ODENET_CHECK(!cfg_.model.empty(), "engine needs a non-empty model name");
  for (const auto& [name, spec] : cfg_.tenants) {
    tenants_.configure(name, spec);
  }

  const sched::LatencyModel latency_model;
  std::size_t total_workers = 0;
  for (const auto& bc : cfg_.backends) {
    ODENET_CHECK(bc.workers >= 1, "backend needs at least one worker");
    auto backend = std::make_unique<Backend>();
    backend->cfg = bc;
    backend->label = core::backend_name(bc.backend);
    backend->index = backends_.size();
    backend->queue = std::make_unique<BatchQueue>(
        cfg_.max_batch, kPromoteAfter, cfg_.max_queue_depth, &tenants_);
    backend->stats.backend = bc.backend;
    if (bc.backend == core::ExecBackend::kFpgaSim) {
      backend->offloaded = bc.offloaded;
      if (backend->offloaded.empty()) {
        for (const auto& s : spec_.stages) {
          if (s.is_ode()) backend->offloaded.insert(s.id);
        }
      }
      ODENET_CHECK(!backend->offloaded.empty(),
                   "fpga_sim backend: no ODE stage to offload in "
                       << models::arch_name(spec_.arch));
    }
    // The cost order's modeled service-time estimate: the PS/PL latency
    // model for offloaded backends, the pure CpuModel otherwise (the
    // fixed-point CPU path executes the same MACs as float on the modeled
    // A9). Worker parallelism divides the effective per-request time.
    sched::Partition partition;
    partition.offloaded = backend->offloaded;
    partition.parallelism = bc.parallelism;
    partition.pl_clock_mhz = bc.pl_clock_mhz;
    partition.axi = bc.axi;
    // Simulated device occupancy bills the model too: it holds the
    // worker exactly like compute, so routing estimates must see it (the
    // amortization over larger batches is the measured EWMA's job).
    backend->modeled_request_seconds =
        (latency_model.batch_seconds(spec_, partition, 1) +
         std::chrono::duration<double>(bc.sim_batch_latency).count()) /
        static_cast<double>(bc.workers);
    for (int w = 0; w < bc.workers; ++w) {
      backend->workers.push_back(build_worker(*backend, *snapshot_));
    }
    total_workers += static_cast<std::size_t>(bc.workers);
    backends_.push_back(std::move(backend));
  }
  // Disambiguate duplicate backend labels ("float", "float#1", ...).
  for (std::size_t i = 0; i < backends_.size(); ++i) {
    int dup = 0;
    for (std::size_t j = 0; j < i; ++j) {
      if (backends_[j]->cfg.backend == backends_[i]->cfg.backend) ++dup;
    }
    if (dup > 0) backends_[i]->label += "#" + std::to_string(dup);
    backends_[i]->stats.name = backends_[i]->label;
  }
  for (int p = 0; p < kPriorityLevels; ++p) {
    priority_stats_[static_cast<std::size_t>(p)].priority =
        static_cast<Priority>(p);
  }

  // Workers last: every queue and replica exists before a loop can run.
  pool_ = std::make_unique<util::ThreadPool>(total_workers);
  for (auto& backend : backends_) {
    for (auto& worker : backend->workers) {
      Backend* b = backend.get();
      Worker* w = worker.get();
      pool_->submit([this, b, w] { worker_loop(*b, *w); });
    }
  }
}

InferenceEngine::~InferenceEngine() { shutdown(); }

std::unique_ptr<InferenceEngine::Worker> InferenceEngine::build_worker(
    const Backend& backend, const models::ModelSnapshot& snapshot) {
  const BackendConfig& cfg = backend.cfg;
  auto worker = std::make_unique<Worker>();
  worker->net = std::make_unique<models::Network>(spec_, solver_cfg_);
  worker->net->apply_snapshot(snapshot);
  worker->applied_version = snapshot.version();
  worker->net->set_training(false);
  // Stages the plan leaves unassigned run on the replica's own float
  // executor.
  switch (cfg.backend) {
    case core::ExecBackend::kFloat:
      break;
    case core::ExecBackend::kFixed:
      worker->fixed_exec =
          std::make_unique<models::FixedStageExecutor>(cfg.frac_bits);
      worker->plan = models::StagePlan(worker->fixed_exec.get());
      break;
    case core::ExecBackend::kFpgaSim: {
      for (models::StageId id : backend.offloaded) {
        models::Stage* stage = worker->net->stage(id);
        ODENET_CHECK(stage != nullptr, "cannot offload absent stage "
                                           << models::stage_name(id));
        auto exec = std::make_unique<sched::FpgaStageExecutor>(
            *stage, sched::FpgaStageExecutor::Config{
                        .parallelism = cfg.parallelism,
                        .clock_mhz = cfg.pl_clock_mhz,
                        .axi = cfg.axi,
                        .frac_bits = cfg.frac_bits,
                        .snapshot_version = snapshot.version()});
        worker->plan.assign(id, exec.get());
        worker->fpga_execs.push_back(std::move(exec));
      }
      break;
    }
  }
  return worker;
}

std::future<InferenceResult> InferenceEngine::failed_future(
    const std::string& message) {
  std::promise<InferenceResult> promise;
  std::future<InferenceResult> future = promise.get_future();
  promise.set_exception(std::make_exception_ptr(Error(message)));
  return future;
}

std::size_t InferenceEngine::pick_backend(const SubmitOptions& opts,
                                          bool count_routed) {
  if (opts.backend != kAnyBackend) {
    ODENET_CHECK(opts.backend < backends_.size(),
                 "backend index " << opts.backend << " out of range (have "
                                  << backends_.size() << ")");
    return opts.backend;
  }
  // Placement reads only the gauges, never the EWMA: the submit path
  // stays off the mutex the workers take in observe() after every
  // micro-batch.
  std::vector<BackendLoad> loads;
  loads.reserve(backends_.size());
  for (const auto& backend : backends_) {
    BackendLoad load;
    load.queue_depth = backend->queue->size();
    load.in_flight = backend->in_flight.load(std::memory_order_relaxed);
    loads.push_back(load);
  }
  const std::size_t index = least_depth(loads);
  if (count_routed) {
    backends_[index]->routed.fetch_add(1, std::memory_order_relaxed);
  }
  return index;
}

bool InferenceEngine::normalize_image(core::Tensor& image,
                                      std::string* error) const {
  const auto& w = spec_.width;
  if (image.ndim() == 4) {
    if (image.dim(0) != 1) {
      std::ostringstream os;
      os << "submit() takes one image, got batch of " << image.dim(0)
         << "; use submit_batch()";
      *error = os.str();
      return false;
    }
    image = image.reshaped({image.dim(1), image.dim(2), image.dim(3)});
  }
  if (!(image.ndim() == 3 && image.dim(0) == w.input_channels &&
        image.dim(1) == w.input_size && image.dim(2) == w.input_size)) {
    std::ostringstream os;
    os << "expected image [" << w.input_channels << "," << w.input_size
       << "," << w.input_size << "], got " << image.shape_str();
    *error = os.str();
    return false;
  }
  return true;
}

bool InferenceEngine::check_model_ref(const SubmitOptions& opts,
                                      std::string* error) const {
  if (!opts.model.empty() && opts.model != cfg_.model) {
    std::ostringstream os;
    os << "request targets model '" << opts.model
       << "', this engine serves '" << cfg_.model << "'";
    *error = os.str();
    return false;
  }
  if (opts.model_version != 0) {
    const std::uint64_t active =
        active_version_.load(std::memory_order_acquire);
    if (opts.model_version != active) {
      std::ostringstream os;
      os << "request pins model version " << opts.model_version
         << ", active version is " << active;
      *error = os.str();
      return false;
    }
  }
  return true;
}

std::future<InferenceResult> InferenceEngine::submit(core::Tensor image,
                                                     SubmitOptions opts) {
  // A malformed image (or stale model ref) fails its own future instead
  // of throwing (and instead of poisoning the micro-batch it would have
  // ridden in): these are per-request data errors, not engine-state
  // errors.
  std::string error;
  if (!normalize_image(image, &error)) return failed_future(error);
  if (!check_model_ref(opts, &error)) return failed_future(error);

  const std::size_t index = pick_backend(opts);
  std::future<InferenceResult> future;
  const PushOutcome outcome = backends_[index]->queue->push(
      make_request(std::move(image), opts, &future));
  ODENET_CHECK(outcome != PushOutcome::kClosed,
               "submit() after engine shutdown");
  // kRejected (admission control or tenant quota shed the request): the
  // queue already failed the promise with QueueFull — fail-fast surfaces
  // through the future, like deadline expiry, so producers need one
  // error path only.
  return future;
}

bool InferenceEngine::try_submit(core::Tensor& image,
                                 const SubmitOptions& opts,
                                 std::future<InferenceResult>& out) {
  std::string error;
  if (!normalize_image(image, &error)) {
    // Terminal per-request failure: spilling a malformed image to
    // another engine cannot fix it, so this engine owns the outcome.
    out = failed_future(error);
    return true;
  }
  if (!check_model_ref(opts, &error)) {
    // Wrong model name is terminal too — but a stale pinned version is
    // NOT: another shard may still serve it (or the caller retries), so
    // hand the image back like a full queue. Wrong-name spill could only
    // bounce forever; the cluster routes by tenant, not model, and no
    // shard of this cluster serves a different model name.
    if (opts.model_version != 0 &&
        (opts.model.empty() || opts.model == cfg_.model)) {
      return false;
    }
    out = failed_future(error);
    return true;
  }
  const std::size_t index = pick_backend(opts, /*count_routed=*/false);
  std::future<InferenceResult> future;
  PendingRequest req = make_request(std::move(image), opts, &future);
  const PushOutcome outcome = backends_[index]->queue->try_push(req);
  ODENET_CHECK(outcome != PushOutcome::kClosed,
               "try_submit() after engine shutdown");
  if (outcome == PushOutcome::kRejected) {
    // Full queue, nobody failed: hand the image back so the caller can
    // offer the request to the next-best shard (the local future dies
    // with its promise, unobserved).
    image = std::move(req.image);
    return false;
  }
  if (opts.backend == kAnyBackend) {
    backends_[index]->routed.fetch_add(1, std::memory_order_relaxed);
  }
  out = std::move(future);
  return true;
}

PendingRequest InferenceEngine::make_request(
    core::Tensor image, const SubmitOptions& opts,
    std::future<InferenceResult>* future) {
  PendingRequest req;
  req.image = std::move(image);
  req.cls.priority = opts.priority;
  req.cls.evictable = opts.evictable;
  req.cls.tenant = tenants_.intern(opts.tenant);
  if (opts.deadline.count() > 0) {
    req.cls.deadline = Clock::now() + opts.deadline;
  }
  *future = req.promise.get_future();
  return req;
}

std::vector<std::future<InferenceResult>> InferenceEngine::submit_batch(
    const core::Tensor& images, SubmitOptions opts) {
  ODENET_CHECK(images.ndim() == 4,
               "submit_batch expects [N,C,S,S], got " << images.shape_str());
  const int n = images.dim(0);
  const int c = images.dim(1), s = images.dim(2);
  const std::size_t stride =
      static_cast<std::size_t>(c) * s * images.dim(3);
  std::vector<std::future<InferenceResult>> futures;
  futures.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    core::Tensor image({c, s, images.dim(3)});
    std::copy_n(images.data() + static_cast<std::size_t>(i) * stride, stride,
                image.data());
    futures.push_back(submit(std::move(image), opts));
  }
  return futures;
}

void InferenceEngine::worker_loop(Backend& backend, Worker& worker) {
  std::vector<PendingRequest> batch;
  while (backend.queue->pop_batch(batch)) {
    // Hot-swap point: between micro-batches, never inside one. A batch
    // popped before a reload() may still re-sync here — it has not started
    // computing, so "in-flight finishes on the old version" holds.
    sync_worker(backend, worker);
    serve_batch(backend, worker, batch);
  }
}

void InferenceEngine::sync_worker(Backend& backend, Worker& worker) {
  if (active_version_.load(std::memory_order_acquire) ==
      worker.applied_version) {
    return;  // fast path: no mutex on the steady-state serve loop
  }
  models::ModelSnapshot::Ptr snap;
  {
    std::lock_guard<std::mutex> lock(model_mutex_);
    snap = snapshot_;
  }
  if (snap->version() == worker.applied_version) return;
  util::Stopwatch watch;
  // Delta fast path: the published image is delta-assembled against
  // exactly the version this replica carries, so only its changed
  // tensors are applied (untouched layers keep their packed caches) and
  // only BRAM stages it touches are re-quantized — a head fine-tune
  // leaves every offloaded trunk stage's BRAM image alone, it just
  // adopts the new version id. Any version skew (worker two publishes
  // behind, rollback across versions) takes the full apply.
  const bool delta_sync = snap->apply(*worker.net, worker.applied_version);
  std::uint64_t requantized = 0, skipped = 0;
  for (auto& exec : worker.fpga_execs) {
    if (!delta_sync || snap->stage_changed(exec->stage_id())) {
      models::Stage* stage = worker.net->stage(exec->stage_id());
      exec->requantize(*stage, snap->version());
      ++requantized;
    } else {
      exec->adopt_version(snap->version());
      ++skipped;
    }
  }
  const double seconds = watch.seconds();
  worker.applied_version = snap->version();
  std::lock_guard<std::mutex> lock(stats_mutex_);
  backend.stats.swaps += 1;
  backend.stats.delta_swaps += delta_sync ? 1 : 0;
  backend.stats.stages_requantized += requantized;
  backend.stats.stages_skipped += skipped;
  backend.stats.swap_seconds_total += seconds;
  backend.stats.max_swap_seconds =
      std::max(backend.stats.max_swap_seconds, seconds);
}

std::uint64_t InferenceEngine::reload(models::ModelSnapshot::Ptr snapshot) {
  ODENET_CHECK(snapshot != nullptr, "reload() needs a snapshot");
  if (registry_ != nullptr) {
    // Registry-bound: reload is a thin wrapper over publish — the gate
    // applies, and the engine adopts the accepted version through its
    // subscription (the publish callback), not here.
    const auto result = registry_->publish(cfg_.model, std::move(snapshot));
    ODENET_CHECK(result.accepted, "reload(): registry refused the publish — "
                                      << result.reason);
    return result.version;
  }
  return apply_published(std::move(snapshot));
}

void InferenceEngine::serve_from(models::SnapshotRegistry& registry) {
  ODENET_CHECK(registry_ == nullptr,
               "engine is already bound to a registry");
  if (registry.active(cfg_.model) == nullptr) {
    // First binder seeds the registry with what it is already serving
    // (with no active version the gate has nothing to compare against).
    models::ModelSnapshot::Ptr current;
    {
      std::lock_guard<std::mutex> lock(model_mutex_);
      current = snapshot_;
    }
    registry.publish(cfg_.model, std::move(current));
  }
  registry_ = &registry;
  // The immediate-callback subscribe syncs the engine to the registry's
  // active version; later publishes/rollbacks land the same way. The
  // callback runs under the registry mutex and only takes model_mutex_
  // (apply_published) — never the reverse order, so no cycle.
  registry_token_ = registry.subscribe(
      cfg_.model,
      [this](const std::string&, models::ModelSnapshot::Ptr snap) {
        apply_published(std::move(snap));
      });
}

std::uint64_t InferenceEngine::apply_published(
    models::ModelSnapshot::Ptr snapshot) {
  ODENET_CHECK(snapshot != nullptr, "reload() needs a snapshot");
  // Validate BEFORE publishing: a mismatched snapshot must never reach a
  // worker (a worker-thread apply failure would poison serving). On throw
  // the old version keeps serving untouched.
  snapshot->check_compatible(spec_);
  // Replicas integrate with the solver settings they were constructed
  // with; apply_snapshot moves only weights. A snapshot trained under a
  // different forward solver would silently serve different numerics than
  // a cold engine built from it, so reject it here. (Gradient mode is
  // inference-irrelevant and deliberately not compared.)
  const models::SolverConfig& sc = snapshot->solver_config();
  ODENET_CHECK(sc.method == solver_cfg_.method &&
                   sc.time_span == solver_cfg_.time_span &&
                   sc.rtol == solver_cfg_.rtol && sc.atol == solver_cfg_.atol,
               "snapshot solver settings (" << solver::method_name(sc.method)
                   << ") do not match this engine's replicas ("
                   << solver::method_name(solver_cfg_.method)
                   << "); solver choice is fixed at replica construction — "
                      "build a new engine for a new solver");
  std::lock_guard<std::mutex> lock(model_mutex_);
  // The live image's payload is what every replica carries, so matching
  // its parameter/BN signature guarantees a worker's apply_snapshot can
  // never throw — closing the gap a corrupt or cross-revision v2 file
  // whose payload disagrees with its own spec header would open.
  snapshot_->check_same_signature(*snapshot);
  const std::uint64_t version = snapshot->version();
  if (version == active_version_.load(std::memory_order_relaxed)) {
    return version;  // already live (version ids are process-unique)
  }
  snapshot_ = std::move(snapshot);
  active_version_.store(version, std::memory_order_release);
  reloads_.fetch_add(1, std::memory_order_relaxed);
  // Reset the per-backend service-time EWMAs: the first batches after a
  // publish pay one-off repack/requantize work (versioned weight caches
  // rebuild on the new snapshot's version), so stale warm measurements
  // would briefly misorder a cluster's spill. cost_order() falls back to
  // the analytical model until fresh measurements arrive, then re-warms.
  for (auto& b : backends_) b->ewma.reset();
  return version;
}

void InferenceEngine::serve_batch(Backend& backend, Worker& worker,
                                  std::vector<PendingRequest>& batch) {
  const auto picked_up = Clock::now();
  const int n = static_cast<int>(batch.size());
  // The in-flight gauge covers pop-to-fulfillment; it must drop BEFORE the
  // promises resolve so a caller who saw every future settle also sees the
  // gauges back at zero.
  backend.in_flight.fetch_add(n, std::memory_order_relaxed);
  try {
    const auto& w = spec_.width;
    core::Tensor x({n, w.input_channels, w.input_size, w.input_size});
    const std::size_t stride = static_cast<std::size_t>(w.input_channels) *
                               w.input_size * w.input_size;
    for (int i = 0; i < n; ++i) {
      std::copy_n(batch[static_cast<std::size_t>(i)].image.data(), stride,
                  x.data() + static_cast<std::size_t>(i) * stride);
    }

    models::NetworkRunStats run_stats;
    util::Stopwatch watch;
    core::Tensor logits = worker.net->forward_with(x, worker.plan,
                                                   &run_stats);
    if (backend.cfg.sim_batch_latency.count() > 0) {
      // Simulated device occupancy: inside the timed window on purpose,
      // so busy_seconds and the measured EWMA reflect the emulated
      // fixed-latency accelerator exactly like real compute.
      std::this_thread::sleep_for(backend.cfg.sim_batch_latency);
    }
    const double compute_seconds = watch.seconds();
    // Completion callback into the measured service-time feedback: fold
    // this batch's observed service time into the backend's EWMA.
    backend.ewma.observe(compute_seconds, n);
    const std::vector<int> preds = core::SoftmaxCrossEntropy::argmax(logits);
    const std::uint64_t batch_pl_cycles = run_stats.pl_cycles();
    const int classes = logits.dim(1);
    const auto done = Clock::now();

    std::vector<InferenceResult> results(static_cast<std::size_t>(n));
    double queue_total = 0.0, latency_total = 0.0, latency_max = 0.0;
    for (int i = 0; i < n; ++i) {
      const auto& req = batch[static_cast<std::size_t>(i)];
      InferenceResult& result = results[static_cast<std::size_t>(i)];
      result.logits = core::Tensor({classes});
      std::copy_n(logits.data() + static_cast<std::size_t>(i) * classes,
                  static_cast<std::size_t>(classes), result.logits.data());
      result.predicted = preds[static_cast<std::size_t>(i)];
      result.backend = backend.cfg.backend;
      result.backend_index = backend.index;
      result.priority = req.cls.priority;
      result.batch_size = n;
      result.model_version = worker.applied_version;
      result.tenant = tenants_.name(req.cls.tenant);
      tenants_.record_completed(req.cls.tenant);
      result.queue_seconds = seconds_between(req.enqueued_at, picked_up);
      result.compute_seconds = compute_seconds;
      result.total_seconds = seconds_between(req.enqueued_at, done);
      result.pl_cycles = batch_pl_cycles / static_cast<std::uint64_t>(n);
      queue_total += result.queue_seconds;
      latency_total += result.total_seconds;
      latency_max = std::max(latency_max, result.total_seconds);
    }

    // Account before fulfilling: a caller who saw their future resolve must
    // find their request already reflected in stats().
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      backend.stats.requests += static_cast<std::uint64_t>(n);
      backend.stats.batches += 1;
      backend.stats.busy_seconds += compute_seconds;
      backend.stats.queue_seconds_total += queue_total;
      backend.stats.latency_seconds_total += latency_total;
      backend.stats.max_latency_seconds =
          std::max(backend.stats.max_latency_seconds, latency_max);
      backend.stats.pl_cycles += batch_pl_cycles;
      worker.arena_capacity_floats = worker.net->scratch_arena().capacity();
      worker.arena_growths = worker.net->scratch_arena().growths();
      for (int i = 0; i < n; ++i) {
        const auto& result = results[static_cast<std::size_t>(i)];
        priority_stats_[static_cast<std::size_t>(result.priority)]
            .record_latency(result.total_seconds);
      }
    }
    backend.in_flight.fetch_sub(n, std::memory_order_relaxed);
    for (int i = 0; i < n; ++i) {
      batch[static_cast<std::size_t>(i)].promise.set_value(
          std::move(results[static_cast<std::size_t>(i)]));
    }
  } catch (...) {
    // A failed batch fails each rider; the engine keeps serving.
    backend.in_flight.fetch_sub(n, std::memory_order_relaxed);
    for (auto& req : batch) {
      req.promise.set_exception(std::current_exception());
    }
  }
}

void InferenceEngine::shutdown() {
  // Unhook from the registry first: a publish landing mid-teardown must
  // not reach a draining engine.
  if (registry_ != nullptr) {
    registry_->unsubscribe(registry_token_);
    registry_ = nullptr;
  }
  // Closed queues both refuse new submits and flush what is left; the
  // worker loops exit once their queue is drained.
  for (auto& backend : backends_) backend->queue->close();
  if (pool_ != nullptr) pool_->wait_idle();
}

const std::string& InferenceEngine::backend_label(std::size_t index) const {
  ODENET_CHECK(index < backends_.size(), "backend index out of range");
  return backends_[index]->label;
}

BackendLoad InferenceEngine::aggregate_load() const {
  BackendLoad load;
  std::vector<double> measured(backends_.size());
  double cheapest_warm = 0.0;
  for (std::size_t i = 0; i < backends_.size(); ++i) {
    load.queue_depth += backends_[i]->queue->size();
    load.in_flight += backends_[i]->in_flight.load(std::memory_order_relaxed);
    measured[i] = backends_[i]->ewma.seconds_per_request() /
                  static_cast<double>(backends_[i]->cfg.workers);
    if (measured[i] > 0.0 &&
        (cheapest_warm == 0.0 || measured[i] < cheapest_warm)) {
      cheapest_warm = measured[i];
    }
  }
  double modeled_rate = 0.0;
  double measured_rate = 0.0;
  for (std::size_t i = 0; i < backends_.size(); ++i) {
    const double modeled = backends_[i]->modeled_request_seconds;
    if (modeled > 0.0) modeled_rate += 1.0 / modeled;
    // A cold backend stands in with cost_order()'s capped model.
    const double seconds =
        measured_cost_seconds(measured[i], modeled, cheapest_warm);
    if (seconds > 0.0) measured_rate += 1.0 / seconds;
  }
  load.modeled_request_seconds =
      modeled_rate > 0.0 ? 1.0 / modeled_rate : 0.0;
  // All-cold reports 0 so the cluster's cost_order() applies its own
  // cold-start rule, exactly like a cold single backend.
  load.measured_request_seconds =
      (cheapest_warm > 0.0 && measured_rate > 0.0) ? 1.0 / measured_rate
                                                   : 0.0;
  return load;
}

EngineStats InferenceEngine::stats() const {
  EngineStats out;
  out.wall_seconds = uptime_.seconds();
  out.model = cfg_.model;
  out.model_version = active_version_.load(std::memory_order_acquire);
  out.reloads = reloads_.load(std::memory_order_relaxed);
  out.tenants = tenants_.counters();
  std::lock_guard<std::mutex> lock(stats_mutex_);
  out.backends.reserve(backends_.size());
  out.priorities = priority_stats_;
  for (const auto& backend : backends_) {
    out.backends.push_back(backend->stats);
    BackendStats& snap = out.backends.back();
    snap.routed = backend->routed.load(std::memory_order_relaxed);
    snap.timeouts = backend->queue->timeout_total();
    snap.rejected = backend->queue->rejected_total();
    snap.evicted = backend->queue->evicted_total();
    snap.promotions = backend->queue->promotion_total();
    snap.queue_depth = backend->queue->size();
    snap.in_flight = backend->in_flight.load(std::memory_order_relaxed);
    snap.measured_request_seconds =
        backend->ewma.seconds_per_request() /
        static_cast<double>(backend->cfg.workers);
    snap.modeled_request_seconds = backend->modeled_request_seconds;
    for (const auto& worker : backend->workers) {
      snap.arena_capacity_floats += worker->arena_capacity_floats;
      snap.arena_growths += worker->arena_growths;
    }
    for (int p = 0; p < kPriorityLevels; ++p) {
      auto& ps = out.priorities[static_cast<std::size_t>(p)];
      ps.timeouts += backend->queue->timeout_count(static_cast<Priority>(p));
      ps.rejected += backend->queue->rejected_count(static_cast<Priority>(p));
      ps.evicted += backend->queue->evicted_count(static_cast<Priority>(p));
    }
  }
  return out;
}

}  // namespace odenet::runtime
