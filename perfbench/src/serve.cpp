// serve: rODENet-3-56 behind SocketFrontend -> EngineCluster (one shard)
// -> InferenceEngine with the two PS-software backends (float and fixed
// int16, one worker each, engine defaults otherwise). It is the only
// workload that crosses the wire protocol, the queue/flush/router and both
// eval-mode kernel families.
//
// Load, over loopback from this process (2 connections, 3 threads):
//  * paced (open loop): 4 camera streams at 30 fps, evenly offset phases,
//    120 frames/s — about the float backend's batch-1 capacity alone, so
//    the router needs both backends, and batches stay near 1. Latency runs
//    from each frame's due time. At 150 frames/s each backend's share of
//    arrivals sat at its capacity: a 20% slower host window queued the
//    fixed backend, and paced p90 ranged 11.7-19.8 ms over five runs.
//  * saturated (closed loop): 2 x max_batch requests outstanding per
//    backend, so batches are full; throughput is OK responses per second.
#include <algorithm>
#include <cmath>
#include <future>
#include <limits>
#include <memory>
#include <thread>

#include "cluster/cluster.hpp"
#include "cluster/frontend.hpp"
#include "models/network.hpp"
#include "sched/cpu_model.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace odenet;

namespace {

constexpr int kStreams = 4;
constexpr double kFps = 30.0;
constexpr double kRate = kStreams * kFps;
constexpr int kPool = 48;
constexpr int kConnections = 2;
/// Fixed-backend logits depend on batch composition (dynamic activation
/// scales), so the check is a tolerance: measured fixed-vs-float error is
/// ~0.17 at a logit scale of ~37, i.e. ~0.5%.
constexpr double kTolerance = 0.02;
constexpr double kPacedWarmupSeconds = 1.0;
constexpr double kWindowSeconds = 1.0;

struct ServeInputs {
  Model model;
  std::vector<core::Tensor> images;
  std::vector<cluster::WireRequest> wire;  // request bodies, id unset
  std::vector<core::Tensor> refs;          // float logits at batch 1
  std::vector<std::string> tenants;        // one per camera stream
};

ServeInputs make_inputs(std::uint64_t seed) {
  ServeInputs in;
  in.model = make_model(56, seed);
  in.images = make_images(kPool, sub_seed(seed, kImagesStream));
  models::Network ref(in.model.spec);
  ref.apply_snapshot(*in.model.snapshot);
  ref.set_training(false);
  for (const core::Tensor& img : in.images) {
    in.refs.push_back(ref.forward(img.reshaped({1, 3, 32, 32})));
    cluster::WireRequest req;
    req.channels = 3;
    req.height = 32;
    req.width = 32;
    req.pixels.assign(img.data(), img.data() + img.numel());
    in.wire.push_back(std::move(req));
  }
  util::Rng rng(sub_seed(seed, kTenantsStream));
  for (int s = 0; s < kStreams; ++s) {
    char name[32];
    std::snprintf(name, sizeof(name), "cam-%04x",
                  static_cast<unsigned>(rng.uniform_int(0x10000)));
    in.tenants.push_back(name);
  }
  return in;
}

/// Empty when the logits match image `image`'s reference, else why not.
std::string check_logits(const ServeInputs& in, int image, const float* logits,
                         std::size_t n) {
  const core::Tensor& ref = in.refs[static_cast<std::size_t>(image)];
  const double tol = kTolerance * std::max(1.0, max_abs(ref));
  const double err = max_abs_diff(ref, logits, n);
  if (err <= tol) return {};
  char buf[128];
  std::snprintf(buf, sizeof(buf), "image %d: logits off by %.4g (tolerance %.4g)",
                image, err, tol);
  return buf;
}

struct ServeStack {
  ServeStack() = default;
  ServeStack(const ServeStack&) = delete;
  ServeStack& operator=(const ServeStack&) = delete;
  ~ServeStack() {
    clients.clear();
    if (frontend) frontend->stop();
    if (cluster) cluster->shutdown();
  }
  runtime::InferenceEngine& engine() { return cluster->shard(0); }

  std::unique_ptr<cluster::EngineCluster> cluster;
  std::unique_ptr<cluster::SocketFrontend> frontend;
  std::vector<std::unique_ptr<cluster::FrontendClient>> clients;
};

/// Builds the stack and takes every backend to its max_batch once.
std::unique_ptr<ServeStack> build_stack(const ServeInputs& in, Ledger& ledger) {
  runtime::EngineConfig engine;
  runtime::BackendConfig float_backend;
  float_backend.backend = core::ExecBackend::kFloat;
  runtime::BackendConfig fixed_backend;
  fixed_backend.backend = core::ExecBackend::kFixed;
  engine.backends = {float_backend, fixed_backend};
  cluster::ShardSpec shard;
  shard.snapshot = in.model.snapshot;
  shard.engine = engine;
  shard.name = "shard0";
  std::vector<cluster::ShardSpec> shards;
  shards.push_back(std::move(shard));

  auto stack = std::make_unique<ServeStack>();
  stack->cluster = std::make_unique<cluster::EngineCluster>(std::move(shards));
  stack->frontend = std::make_unique<cluster::SocketFrontend>(*stack->cluster);
  stack->frontend->start();
  for (int c = 0; c < kConnections; ++c) {
    stack->clients.push_back(std::make_unique<cluster::FrontendClient>(
        "127.0.0.1", stack->frontend->port()));
  }

  runtime::InferenceEngine& eng = stack->engine();
  const int max_batch = eng.config().max_batch;
  for (std::size_t b = 0; b < eng.backend_count(); ++b) {
    std::vector<std::future<runtime::InferenceResult>> futures;
    runtime::SubmitOptions opts;
    opts.backend = b;
    for (int i = 0; i < max_batch; ++i) {
      futures.push_back(eng.submit(in.images[i % kPool], opts));
    }
    for (int i = 0; i < max_batch; ++i) {
      try {
        const runtime::InferenceResult r = futures[i].get();
        const std::string why =
            check_logits(in, i % kPool, r.logits.data(), r.logits.numel());
        if (why.empty()) ledger.ok(); else ledger.fail("warm-up " + why);
      } catch (const std::exception& e) {
        ledger.fail(std::string("warm-up: ") + e.what());
      }
    }
  }
  return stack;
}

struct Reply {
  std::uint64_t id = 0;
  Clock::time_point at{};
  double server_ms = 0.0;
  std::string error;  // empty = OK and correct
};

/// Receives `expected` replies on one connection, checking each against
/// the image its id maps to.
template <typename ImageOf>
std::vector<Reply> receive(cluster::FrontendClient& client, std::size_t expected,
                           const ServeInputs& in, ImageOf image_of) {
  std::vector<Reply> replies;
  replies.reserve(expected);
  while (replies.size() < expected) {
    Reply r;
    try {
      const cluster::WireResponse res = client.recv();
      r.at = Clock::now();
      r.id = res.id;
      r.server_ms = res.latency_ms;
      if (res.status != cluster::ResponseStatus::kOk) {
        r.error = cluster::response_status_name(res.status) + ": " + res.message;
      } else {
        r.error = check_logits(in, image_of(res.id), res.logits.data(),
                               res.logits.size());
      }
    } catch (const std::exception& e) {
      r.error = std::string("connection: ") + e.what();
      replies.push_back(r);
      break;
    }
    replies.push_back(std::move(r));
  }
  return replies;
}

struct PacedResult {
  Timeline latency;   // (due second, due -> response)
  Samples lateness;   // due -> send
  Samples wire;       // client round trip - server-reported latency
  Samples client_ms;  // send -> response
  Ledger ledger;
  double seconds = 0.0;
};

PacedResult run_paced(ServeStack& stack, const ServeInputs& in,
                      const std::vector<Frame>& frames, std::uint64_t id_base,
                      Tracer& tracer) {
  PacedResult out;
  std::vector<std::size_t> expected(kConnections, 0);
  for (const Frame& f : frames) ++expected[f.stream % kConnections];
  auto image_of = [&](std::uint64_t id) {
    const std::uint64_t k = id - id_base;
    return k < frames.size() ? frames[k].image : 0;
  };

  std::vector<std::vector<Reply>> replies(kConnections);
  std::vector<std::thread> receivers;
  for (int c = 0; c < kConnections; ++c) {
    receivers.emplace_back([&, c] {
      replies[c] = receive(*stack.clients[c], expected[c], in, image_of);
    });
  }

  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
  std::vector<Clock::time_point> sent(frames.size());
  std::vector<bool> send_failed(frames.size(), false);
  for (std::size_t k = 0; k < frames.size(); ++k) {
    const Frame& f = frames[k];
    const Clock::time_point due =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(f.due_s));
    cluster::WireRequest req = in.wire[static_cast<std::size_t>(f.image)];
    req.id = id_base + k;
    req.tenant = in.tenants[static_cast<std::size_t>(f.stream)];
    std::this_thread::sleep_until(due);
    sent[k] = Clock::now();
    try {
      stack.clients[f.stream % kConnections]->send(req);
    } catch (const std::exception&) {
      send_failed[k] = true;
    }
    tracer.record("client.send", "cluster", sent[k], Clock::now());
    out.lateness.add(1e3 * seconds_between(due, sent[k]));
  }
  for (auto& t : receivers) t.join();
  out.seconds = seconds_between(start, Clock::now());

  // A reply without a timestamp is a connection failure; the frames it
  // left unanswered fail with its reason.
  std::vector<const Reply*> by_frame(frames.size(), nullptr);
  std::string lost = "no reply";
  for (const auto& conn : replies) {
    for (const Reply& r : conn) {
      const std::uint64_t k = r.id - id_base;
      if (k < frames.size() && r.at != Clock::time_point{}) {
        by_frame[k] = &r;
      } else if (!r.error.empty()) {
        lost = r.error;
      }
    }
  }
  for (std::size_t k = 0; k < frames.size(); ++k) {
    const Reply* r = by_frame[k];
    if (send_failed[k] || r == nullptr || !r->error.empty()) {
      out.ledger.fail(r != nullptr ? r->error : lost);
      out.latency.add(frames[k].due_s, std::numeric_limits<double>::infinity());
      continue;
    }
    out.ledger.ok();
    const Clock::time_point due =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(frames[k].due_s));
    const double client = 1e3 * seconds_between(sent[k], r->at);
    tracer.record("request", "cluster", sent[k], r->at);
    out.latency.add(frames[k].due_s, 1e3 * seconds_between(due, r->at));
    out.client_ms.add(client);
    out.wire.add(client - r->server_ms);
  }
  return out;
}

struct SaturatedResult {
  /// Median over 1 s windows of OK responses per second.
  double ips = 0.0;
  Ledger ledger;
};

SaturatedResult run_saturated(ServeStack& stack, const ServeInputs& in,
                              double seconds, std::uint64_t id_base,
                              std::uint64_t seed, Tracer& tracer) {
  runtime::InferenceEngine& eng = stack.engine();
  const int window = 2 * eng.config().max_batch *
                     static_cast<int>(eng.backend_count()) / kConnections;
  auto image_of = [&](std::uint64_t id) {
    return static_cast<int>(sub_seed(seed, id) % kPool);
  };
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));

  std::vector<Ledger> ledgers(kConnections);
  std::vector<std::vector<double>> completed(kConnections);  // seconds
  std::vector<std::thread> loops;
  for (int c = 0; c < kConnections; ++c) {
    loops.emplace_back([&, c] {
      cluster::FrontendClient& client = *stack.clients[c];
      std::uint64_t next = 0;
      int outstanding = 0;
      std::vector<Clock::time_point> sent_at;
      auto send_next = [&] {
        const std::uint64_t id = id_base + c + kConnections * next++;
        cluster::WireRequest req = in.wire[image_of(id)];
        req.id = id;
        req.tenant = in.tenants[static_cast<std::size_t>(c)];
        sent_at.push_back(Clock::now());
        client.send(req);
        ++outstanding;
      };
      try {
        for (int i = 0; i < window; ++i) send_next();
        while (outstanding > 0) {
          const cluster::WireResponse res = client.recv();
          const Clock::time_point now = Clock::now();
          --outstanding;
          const std::uint64_t j = (res.id - id_base - c) / kConnections;
          if (j < sent_at.size()) tracer.record("request", "cluster", sent_at[j], now);
          std::string why;
          if (res.status != cluster::ResponseStatus::kOk) {
            why = cluster::response_status_name(res.status) + ": " + res.message;
          } else {
            why = check_logits(in, image_of(res.id), res.logits.data(),
                               res.logits.size());
          }
          if (why.empty()) {
            ledgers[c].ok();
            completed[c].push_back(seconds_between(start, now));
          } else {
            ledgers[c].fail(why);
          }
          if (now < end) send_next();
        }
      } catch (const std::exception& e) {
        ledgers[c].fail(std::string("connection: ") + e.what());
      }
    });
  }
  for (auto& t : loops) t.join();

  SaturatedResult out;
  Timeline done;
  for (int c = 0; c < kConnections; ++c) {
    out.ledger.merge(ledgers[c]);
    for (double t : completed[c]) done.add(t, 1.0);
  }
  out.ips = done.over_windows(
      kWindowSeconds, seconds,
      [](const Samples& s, double width_s) { return s.count() / width_s; });
  return out;
}

/// runtime.* per backend for one phase, from EngineStats deltas.
void add_phase_layers(Metrics& out, const std::string& phase,
                      const runtime::EngineStats& a,
                      const runtime::EngineStats& b, double wall) {
  double routed_total = 0.0;
  double routed_fixed = 0.0;
  for (std::size_t i = 0; i < b.backends.size(); ++i) {
    const runtime::BackendStats& x = a.backends[i];
    const runtime::BackendStats& y = b.backends[i];
    const std::string name = core::backend_name(y.backend);
    const double requests = static_cast<double>(y.requests - x.requests);
    const double batches = static_cast<double>(y.batches - x.batches);
    const double busy = y.busy_seconds - x.busy_seconds;
    const double queued = y.queue_seconds_total - x.queue_seconds_total;
    const std::string suffix = "." + name + "." + phase;
    out["runtime.queue_wait_ms" + suffix] = {
        requests > 0 ? 1e3 * queued / requests : 0.0, "ms"};
    out["runtime.service_ms" + suffix] = {
        batches > 0 ? 1e3 * busy / batches : 0.0, "ms"};
    out["runtime.busy_frac" + suffix] = {busy / wall, "frac"};
    out["runtime.batch_mean" + suffix] = {
        batches > 0 ? requests / batches : 0.0, "count"};
    const double routed = static_cast<double>(y.routed - x.routed);
    routed_total += routed;
    if (y.backend == core::ExecBackend::kFixed) routed_fixed += routed;
  }
  out["runtime.fixed_share." + phase] = {
      routed_total > 0 ? routed_fixed / routed_total : 0.0, "frac"};
}

/// models.stage_ms.* / core.frac_peak.* / solver.f_evals_per_image, timed
/// on a replica built the way the engine builds its workers.
void probe_stages(const ServeInputs& in, const RunConfig& cfg, int max_batch,
                  Tracer& tracer, Metrics& out) {
  models::Network net(in.model.spec);
  net.apply_snapshot(*in.model.snapshot);
  net.set_training(false);
  models::FloatStageExecutor float_exec;
  models::FixedStageExecutor fixed_exec;
  struct Backend {
    models::StageExecutor* exec;
    const char* name;
    double peak;  // ops/s the stage time is compared with
  };
  const Backend backends[] = {
      {&float_exec, "float", cfg.peak_gflops_f32 * 1e9},
      {&fixed_exec, "fixed", cfg.peak_gops_i16 * 1e9}};
  const models::WidthConfig& w = in.model.spec.width;
  const double stem_macs = 9.0 * w.base_channels * w.input_channels *
                           w.input_size * w.input_size;
  const double head_macs = static_cast<double>(
      in.model.spec.stages.back().out_channels) * w.num_classes;

  for (int batch : {1, max_batch}) {
    const std::string tag = batch == 1 ? "b1" : "bmax";
    core::Tensor x({batch, 3, 32, 32});
    const std::size_t per_image = in.images.front().numel();
    for (int i = 0; i < batch; ++i) {
      std::copy(in.images[i].data(), in.images[i].data() + per_image,
                x.data() + static_cast<std::size_t>(i) * per_image);
    }
    const int reps = batch == 1 ? 15 : 5;
    std::map<std::string, std::vector<double>> times;
    std::map<std::string, double> ops;  // per call
    std::map<std::string, double> peak;
    for (const Backend& be : backends) {
      for (int r = -2; r < reps; ++r) {  // two untimed warm-up passes
        core::Tensor h;
        const double stem =
            timed(tracer, "Network::stem_forward", "models",
                  [&] { h = net.stem_forward(x); });
        if (r >= 0) times["stem." + tag].push_back(stem);
        for (auto& stage : net.stages()) {
          if (stage->is_empty()) continue;
          const double s = timed(tracer, "StageExecutor::run", "models", [&] {
            h = be.exec->run(*stage, h, nullptr);
          });
          const std::string key = models::stage_name(stage->spec().id) + "." +
                                  be.name + "." + tag;
          if (r >= 0) times[key].push_back(s);
          ops[key] = 2.0 * stage_macs(stage->spec()) * batch;
          peak[key] = be.peak;
        }
        const double head = timed(tracer, "Network::head_forward", "models",
                                  [&] { h = net.head_forward(h); });
        if (r >= 0) times["head." + tag].push_back(head);
      }
    }
    ops["stem." + tag] = 2.0 * stem_macs * batch;
    ops["head." + tag] = 2.0 * head_macs * batch;
    peak["stem." + tag] = peak["head." + tag] = cfg.peak_gflops_f32 * 1e9;
    for (const auto& [key, samples] : times) {
      const double s = median(samples);
      out["models.stage_ms." + key] = {1e3 * s, "ms"};
      out["core.frac_peak." + key] = {ops[key] / s / peak[key], "frac"};
    }
  }

  int evals = 0;
  core::Tensor h = net.stem_forward(in.images.front().reshaped({1, 3, 32, 32}));
  for (auto& stage : net.stages()) {
    if (stage->is_empty()) continue;
    h = float_exec.run(*stage, h, nullptr);
    if (stage->is_ode()) evals += stage->ode()->last_stats().function_evals;
  }
  out["solver.f_evals_per_image"] = {static_cast<double>(evals), "count"};
}

}  // namespace

std::vector<Frame> make_schedule(std::uint64_t seed, int frames, int pool) {
  util::Rng rng(seed);
  std::vector<Frame> schedule(static_cast<std::size_t>(frames));
  for (int k = 0; k < frames; ++k) {
    // Stream s's j-th frame is due at j/30 + s/120 s: global frame k = 4j+s.
    schedule[k].due_s = static_cast<double>(k) / kRate;
    schedule[k].stream = k % kStreams;
    schedule[k].image = static_cast<int>(rng.uniform_int(
        static_cast<std::uint64_t>(pool)));
  }
  return schedule;
}

WorkloadResult run_serve(const RunConfig& cfg, Tracer& tracer) {
  WorkloadResult result;
  const ServeInputs in = make_inputs(cfg.seed);

  std::vector<double> setups;
  std::unique_ptr<ServeStack> stack;
  for (int r = 0; r < cfg.setup_reps; ++r) {
    stack.reset();
    const Clock::time_point t0 = Clock::now();
    stack = build_stack(in, result.ledger);
    setups.push_back(seconds_between(t0, Clock::now()));
  }
  runtime::InferenceEngine& eng = stack->engine();
  const int max_batch = eng.config().max_batch;

  // Untimed paced warm-up at the workload's own rate: the first second
  // after a burst can run batches at 2-3x steady-state compute.
  const std::uint64_t schedule_seed = sub_seed(cfg.seed, kScheduleStream);
  std::uint64_t id_base = 1;
  const auto warm = make_schedule(schedule_seed ^ 1,
                                  static_cast<int>(kPacedWarmupSeconds * kRate),
                                  kPool);
  Tracer off(false);
  result.ledger.merge(run_paced(*stack, in, warm, id_base, off).ledger);
  id_base += warm.size();

  const double paced_seconds = cfg.seconds * 0.6;
  const double saturated_seconds = cfg.seconds - paced_seconds;
  const auto frames = make_schedule(
      schedule_seed, static_cast<int>(paced_seconds * kRate), kPool);

  const runtime::EngineStats s0 = eng.stats();
  const PacedResult paced = run_paced(*stack, in, frames, id_base, tracer);
  id_base += frames.size();
  const runtime::EngineStats s1 = eng.stats();
  const Clock::time_point sat_start = Clock::now();
  const SaturatedResult saturated =
      run_saturated(*stack, in, saturated_seconds, id_base, schedule_seed, tracer);
  const double sat_wall = seconds_between(sat_start, Clock::now());
  const runtime::EngineStats s2 = eng.stats();
  result.ledger.merge(paced.ledger);
  result.ledger.merge(saturated.ledger);
  result.throughput_ips = saturated.ips;

  result.notes.push_back(
      describe("serve paced latency from due time", paced.latency.all()));
  result.notes.push_back(describe("serve generator lateness", paced.lateness));
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "serve: paced %zu frames at %.0f/s over %.2f s, saturated "
                "%.1f img/s over %.2f s, max_batch %d, setups %zu",
                frames.size(), kRate, paced.seconds, saturated.ips, sat_wall,
                max_batch, setups.size());
  result.notes.push_back(buf);

  const double sim_ms =
      1e3 * sched::CpuModel().network_seconds(in.model.spec);
  auto window_percentile = [&](double q) {
    return paced.latency.over_windows(
        kWindowSeconds, paced_seconds,
        [q](const Samples& s, double) { return s.percentile(q); });
  };
  result.end_to_end = {
      {"setup_s", {median(setups), "s"}},
      {"throughput_ips", {saturated.ips, "img/s"}},
      {"latency_p50_ms", {window_percentile(50), "ms"}},
      {"latency_p75_ms", {window_percentile(75), "ms"}},
      {"sim_latency_ms", {sim_ms, "ms_sim"}},
  };

  if (cfg.traced) {
    Metrics& L = result.layers;
    const double wire = paced.wire.percentile(50);
    L["cluster.wire_ms"] = {wire, "ms"};
    add_phase_layers(L, "paced", s0, s1, paced.seconds);
    add_phase_layers(L, "saturated", s1, s2, sat_wall);
    // p90 moves with how many frames a second host stalls hit (~10% in
    // some runs), so it is reported here, unbounded, not end to end.
    L["load.latency_p90_ms"] = {window_percentile(90), "ms"};
    L["load.late_ms_p99"] = {paced.lateness.percentile(99), "ms"};
    L["load.late_ms_max"] = {paced.lateness.percentile(100), "ms"};
    // Wire + mean queue wait + mean batch service, against the client's
    // median round trip, paced phase.
    double queue_ms = 0.0, service_ms = 0.0, requests = 0.0;
    for (std::size_t i = 0; i < s1.backends.size(); ++i) {
      const double n = static_cast<double>(s1.backends[i].requests -
                                           s0.backends[i].requests);
      const double batches = static_cast<double>(s1.backends[i].batches -
                                                 s0.backends[i].batches);
      requests += n;
      queue_ms += 1e3 * (s1.backends[i].queue_seconds_total -
                         s0.backends[i].queue_seconds_total);
      if (batches > 0) {
        service_ms += n * 1e3 *
                      (s1.backends[i].busy_seconds - s0.backends[i].busy_seconds) /
                      batches;
      }
    }
    if (requests > 0) {
      result.coverage = (wire + (queue_ms + service_ms) / requests) /
                        paced.client_ms.percentile(50);
    }
    probe_stages(in, cfg, max_batch, tracer, L);
  }
  stack.reset();
  return result;
}

}  // namespace perfbench
