// Cluster serving: goodput scaling across engine shards under
// trace-driven open-loop load, spill-then-shed under a degraded shard,
// and the socket front-end under a flash crowd.
//
// The shards are throttled with BackendConfig::sim_batch_latency — each
// served micro-batch additionally occupies its worker for a fixed
// wall-clock interval, emulating an accelerator round-trip. That makes
// per-shard capacity wall-clock-bound rather than host-CPU-bound, so N
// shards scale like N boards would even on a single-core CI runner (a
// sleeping shard consumes no core), and the measured ratios are
// machine-independent.
//
// Act 1 — diurnal ramp, weak scaling. One shard is calibrated
// closed-loop for its peak rate C, then clusters of 1/2/4 shards replay
// the same diurnal trace (segment multipliers ramping 0.25 -> 1.15 -> 0.5
// of the cluster's aggregate capacity n*C) with 64 tenants placed by
// consistent hashing. Goodput counts SLO-met completions landing inside
// the trace window, per trace second; the headline is
// goodput(4)/goodput(1) with the acceptance bar cluster_scales: >= 3.0x.
//
// Act 2 — spill-then-shed with a degraded shard. A 4-shard cluster
// where shard0 runs 4x slower (a failing board) is driven at 2x its
// degraded aggregate capacity D = 3C + C/4. Spill-then-shed must hold
// goodput at >= 90% of D (spill_protects) — overflow from the slow
// shard's tenants lands on healthy siblings instead of being shed, and
// bounded queues keep admitted work inside the SLO. A moderate-load
// spill-off contrast row shows what the same cluster does when overflow
// is shed at the home shard (context, not gated).
//
// Act 3 — mixed-tenant adversarial. One hot tenant contributes half the
// traffic at 0.9x aggregate capacity, hammering its single home shard at
// ~1.8x while the other shards idle at ~0.45x. Without spill the home
// shard sheds the excess; with spill the cluster absorbs it —
// adversarial_spill_ratio is goodput(spill on)/goodput(spill off),
// gated as a relative metric.
//
// Act 4 — socket front-end flash crowd. Concurrent FrontendClients
// replay a calm/burst/calm trace through the TCP front-end; every
// request must come back exactly once (correlated by id, kOk or kShed)
// with zero protocol errors: frontend_ok.
//
// Every configuration prints one machine-readable "JSON " line; the
// final line aggregates the acceptance verdicts for the CI perf gate.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/frontend.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"

using namespace odenet;

namespace {

core::Tensor random_images(int n, int channels, int size, util::Rng& rng) {
  core::Tensor x({n, channels, size, size});
  for (std::size_t i = 0; i < x.numel(); ++i) {
    x.data()[i] = static_cast<float>(rng.normal(0.0, 0.5));
  }
  return x;
}

core::Tensor slice_image(const core::Tensor& images, int i) {
  const int c = images.dim(1), s = images.dim(2);
  const std::size_t stride = static_cast<std::size_t>(c) * s * images.dim(3);
  core::Tensor image({c, s, images.dim(3)});
  std::copy_n(images.data() + static_cast<std::size_t>(i) * stride, stride,
              image.data());
  return image;
}

struct BenchKnobs {
  int pacing_ms = 40;          // sim device occupancy per micro-batch
  int degraded_factor = 4;     // shard0 slowdown in act 2
  std::size_t depth_bound = 16;
  int max_batch = 8;
  int tenants = 64;
  double segment_seconds = 0.4;
  models::WidthConfig width{};
};

models::ModelSnapshot::Ptr bench_snapshot(const BenchKnobs& k) {
  models::Network net(models::make_spec(models::Arch::kROdeNet3, 14, k.width));
  util::Rng rng(1);
  net.init(rng);
  return models::ModelSnapshot::capture(net);
}

runtime::EngineConfig shard_engine_config(const BenchKnobs& k,
                                          int pacing_ms) {
  runtime::EngineConfig cfg;
  cfg.max_batch = k.max_batch;
  cfg.max_queue_depth = k.depth_bound;
  cfg.backends[0].sim_batch_latency = std::chrono::milliseconds(pacing_ms);
  return cfg;
}

std::vector<cluster::ShardSpec> make_shards(const BenchKnobs& k, int n,
                                            int degraded_shard = -1) {
  std::vector<cluster::ShardSpec> shards;
  for (int i = 0; i < n; ++i) {
    cluster::ShardSpec spec;
    spec.snapshot = bench_snapshot(k);
    spec.engine = shard_engine_config(
        k, i == degraded_shard ? k.pacing_ms * k.degraded_factor
                               : k.pacing_ms);
    shards.push_back(std::move(spec));
  }
  return shards;
}

/// Closed-loop peak of ONE paced shard: saturate its queue, take the
/// best steady wave — the per-shard capacity C every act scales from.
double calibrate_shard_capacity(const BenchKnobs& k,
                                const core::Tensor& images) {
  runtime::InferenceEngine engine(bench_snapshot(k),
                                  shard_engine_config(k, k.pacing_ms));
  const int wave = std::min<int>(images.dim(0),
                                 static_cast<int>(k.depth_bound));
  auto run_wave = [&] {
    std::vector<std::future<runtime::InferenceResult>> futures;
    for (int i = 0; i < wave; ++i) {
      futures.push_back(engine.submit(slice_image(images, i)));
    }
    for (auto& f : futures) (void)f.get();
  };
  run_wave();  // warm-up: replicas, arenas, first-touch pages
  double best = 0.0;
  for (int attempt = 0; attempt < 3; ++attempt) {
    util::Stopwatch watch;
    run_wave();
    best = std::max(best, wave / watch.seconds());
  }
  return best;
}

struct TraceRow {
  std::string scenario;
  int shard_count = 0;
  bool spill = true;
  int submitted = 0;
  double offered_ips = 0.0;   // mean over the trace
  double wall_seconds = 0.0;
  double slo_ms = 0.0;
  std::uint64_t served = 0;
  std::uint64_t slo_met = 0;
  std::uint64_t shed = 0;
  std::uint64_t spilled = 0;
  double goodput_ips = 0.0;
};

void print_trace_row(const TraceRow& r) {
  std::printf("%-12s %2d shard(s) %-9s %6d subm %8.0f ips %8.2f slo_ms "
              "%6llu served %6llu slo_met %5llu shed %5llu spilled "
              "%8.1f goodput\n",
              r.scenario.c_str(), r.shard_count, r.spill ? "spill" : "no-spill",
              r.submitted, r.offered_ips, r.slo_ms,
              static_cast<unsigned long long>(r.served),
              static_cast<unsigned long long>(r.slo_met),
              static_cast<unsigned long long>(r.shed),
              static_cast<unsigned long long>(r.spilled), r.goodput_ips);
  std::printf(
      "JSON {\"bench\":\"cluster\",\"scenario\":\"%s\",\"shards\":%d,"
      "\"spill\":%s,\"submitted\":%d,\"offered_images_per_sec\":%.2f,"
      "\"wall_seconds\":%.6f,\"slo_ms\":%.3f,\"served\":%llu,"
      "\"slo_met\":%llu,\"shed\":%llu,\"spilled\":%llu,"
      "\"goodput_images_per_sec\":%.2f}\n",
      r.scenario.c_str(), r.shard_count, r.spill ? "true" : "false",
      r.submitted, r.offered_ips, r.wall_seconds, r.slo_ms,
      static_cast<unsigned long long>(r.served),
      static_cast<unsigned long long>(r.slo_met),
      static_cast<unsigned long long>(r.shed),
      static_cast<unsigned long long>(r.spilled), r.goodput_ips);
}

/// Replays a piecewise-constant rate trace open-loop against a cluster:
/// segment s offers rate_multipliers[s] x base_ips for segment_seconds,
/// paced off an absolute schedule in small bursts (arrivals never wait
/// for completions). hot_tenant_share routes that fraction of requests
/// to ONE tenant (the adversarial scenario); the rest cycle round-robin
/// over k.tenants tenants.
TraceRow run_trace(cluster::EngineCluster& cluster, const BenchKnobs& k,
                   const std::string& scenario,
                   const std::vector<double>& rate_multipliers,
                   double base_ips, double slo_seconds,
                   const core::Tensor& images,
                   double hot_tenant_share = 0.0) {
  TraceRow row;
  row.scenario = scenario;
  row.shard_count = static_cast<int>(cluster.shard_count());
  row.spill = cluster.config().spill;
  row.slo_ms = slo_seconds * 1e3;

  // Pre-compute the absolute submission schedule for the whole trace so
  // the paced loop only sleeps and submits.
  std::vector<double> due_seconds;
  double t = 0.0;
  double offered_sum = 0.0;
  for (double mult : rate_multipliers) {
    const double rate = mult * base_ips;
    const double end = t + k.segment_seconds;
    offered_sum += rate * k.segment_seconds;
    double next = t + 1.0 / rate;
    while (next < end) {
      due_seconds.push_back(next);
      next += 1.0 / rate;
    }
    t = end;
  }
  row.submitted = static_cast<int>(due_seconds.size());
  row.offered_ips = offered_sum / t;

  // Burst the producer's wakeups (~500/s cap) so a single-core host
  // spends its cycles serving, not sleeping/waking per request.
  const int burst =
      std::max(1, static_cast<int>(std::lround(row.offered_ips / 500.0)));
  const std::uint64_t before_spilled = cluster.stats().spilled;

  std::vector<std::future<runtime::InferenceResult>> futures;
  futures.reserve(due_seconds.size());
  util::Rng pick(7);
  const auto start = runtime::Clock::now();
  for (std::size_t i = 0; i < due_seconds.size(); ++i) {
    if (i % static_cast<std::size_t>(burst) == 0) {
      std::this_thread::sleep_until(
          start + std::chrono::duration_cast<runtime::Clock::duration>(
                      std::chrono::duration<double>(due_seconds[i])));
    }
    std::string tenant;
    if (hot_tenant_share > 0.0 && pick.uniform() < hot_tenant_share) {
      tenant = "tenant-hot";
    } else {
      tenant = "tenant-" + std::to_string(i % static_cast<std::size_t>(
                                                  k.tenants));
    }
    runtime::SubmitOptions opts;
    opts.tenant = tenant;
    futures.push_back(cluster.submit(
        slice_image(images, static_cast<int>(i) % images.dim(0)), opts));
  }
  // Fixed-window open-loop accounting: goodput counts completions that
  // land INSIDE the trace window [0, trace_end). Dividing by the full
  // wall clock instead would charge the post-trace drain tail — where
  // only the residual queues (on a degraded cluster, mostly the slow
  // shard's) are emptying while everything else idles — against the
  // steady-state rate the scenario is actually measuring.
  const double trace_end = t;
  for (std::size_t i = 0; i < futures.size(); ++i) {
    try {
      const runtime::InferenceResult r = futures[i].get();
      row.served += 1;
      if (r.total_seconds <= slo_seconds &&
          due_seconds[i] + r.total_seconds <= trace_end) {
        row.slo_met += 1;
      }
    } catch (const odenet::Error&) {
      // QueueFull — counted from the cluster ledger below.
    }
  }
  row.wall_seconds =
      std::chrono::duration<double>(runtime::Clock::now() - start).count();
  const cluster::ClusterStats stats = cluster.stats();
  row.shed = stats.shed;
  row.spilled = stats.spilled - before_spilled;
  row.goodput_ips = static_cast<double>(row.slo_met) / trace_end;
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  util::CliParser cli("bench_cluster",
                      "Goodput scaling and spill-then-shed across engine "
                      "shards under trace-driven load");
  cli.add_option("pacing-ms", "40",
                 "simulated device occupancy per micro-batch");
  cli.add_option("degraded-factor", "4", "act-2 slowdown of shard0");
  cli.add_option("depth-bound", "16", "per-backend max_queue_depth");
  cli.add_option("tenants", "64", "round-robin tenant population");
  cli.add_option("segment-seconds", "0.4", "seconds per trace segment");
  cli.add_option("calib-images", "64", "closed-loop calibration images");
  cli.add_option("base-channels", "4", "network width (paper: 16)");
  cli.add_option("input-size", "16", "input extent (paper: 32)");
  if (!cli.parse(argc, argv)) return 0;

  BenchKnobs k;
  k.pacing_ms = cli.get_int("pacing-ms");
  k.degraded_factor = cli.get_int("degraded-factor");
  k.depth_bound = static_cast<std::size_t>(cli.get_int("depth-bound"));
  k.tenants = cli.get_int("tenants");
  k.segment_seconds = cli.get_double("segment-seconds");
  k.width = {.input_channels = 3, .input_size = cli.get_int("input-size"),
             .base_channels = cli.get_int("base-channels"),
             .num_classes = 10};

  util::Rng rng(3);
  core::Tensor images = random_images(cli.get_int("calib-images"), 3,
                                      k.width.input_size, rng);

  // ---- calibration -----------------------------------------------------
  const double capacity = calibrate_shard_capacity(k, images);
  std::printf("=== Cluster serving: %d ms paced shards, per-shard peak "
              "%.1f images/s ===\n", k.pacing_ms, capacity);
  std::printf("JSON {\"bench\":\"cluster\",\"scenario\":\"calibration\","
              "\"per_shard_peak_images_per_sec\":%.2f}\n", capacity);
  // SLO: 4x the time a full bounded queue takes to drain on a HEALTHY
  // shard. Bounded queues keep admitted work well inside it; an
  // unbounded backlog would blow through it immediately.
  const double slo_seconds =
      std::max(0.05, 4.0 * static_cast<double>(k.depth_bound) / capacity);

  // ---- act 1: diurnal ramp, weak scaling over 1/2/4 shards -------------
  // Aggregate offered load ramps through the day: calm -> peak slightly
  // past capacity -> calm. The same multipliers at every cluster size
  // (base = n x C), so goodput ratios read as scaling efficiency.
  const std::vector<double> diurnal = {0.25, 0.5, 0.9, 1.15, 0.9, 0.5};
  std::printf("\n--- diurnal ramp (segments x%.2fs, multipliers 0.25..1.15 "
              "of n x C) ---\n", k.segment_seconds);
  double goodput_by_shards[3] = {0.0, 0.0, 0.0};
  const int shard_counts[3] = {1, 2, 4};
  for (int s = 0; s < 3; ++s) {
    const int n = shard_counts[s];
    cluster::EngineCluster cluster(make_shards(k, n));
    TraceRow row = run_trace(cluster, k, "diurnal", diurnal,
                             n * capacity, slo_seconds, images);
    goodput_by_shards[s] = row.goodput_ips;
    print_trace_row(row);
  }
  const double scaling_2x = goodput_by_shards[0] > 0.0
                                ? goodput_by_shards[1] / goodput_by_shards[0]
                                : 0.0;
  const double scaling_4x = goodput_by_shards[0] > 0.0
                                ? goodput_by_shards[2] / goodput_by_shards[0]
                                : 0.0;
  std::printf("scaling: 2 shards %.2fx, 4 shards %.2fx\n", scaling_2x,
              scaling_4x);

  // ---- act 2: spill-then-shed with a degraded shard --------------------
  // Shard0 serves 4x slower; degraded aggregate peak D = 3C + C/4. At 2x
  // D, spill-then-shed must hold >= 90% of D as goodput: the slow
  // shard's overflow rides healthy siblings, admission control sheds the
  // rest fail-fast. The SLO stretches to the DEGRADED shard's drain time
  // (its queue drains degraded_factor x slower); machine-independent
  // because both scale off the same measured C.
  const double degraded_capacity =
      3.0 * capacity + capacity / k.degraded_factor;
  const double degraded_slo = std::max(
      0.05, 4.0 * static_cast<double>(k.depth_bound) /
                (capacity / k.degraded_factor));
  std::printf("\n--- degraded shard0 (%dx slower), cluster peak %.0f "
              "images/s, 2x overload ---\n", k.degraded_factor,
              degraded_capacity);
  // Best-of-3 like bench_overload's shed verdict: the 90% bar should
  // judge the spill mechanism, not one scheduler hiccup.
  TraceRow spill_row;
  for (int attempt = 0; attempt < 3; ++attempt) {
    cluster::EngineCluster cluster(make_shards(k, 4, /*degraded_shard=*/0));
    // Six steady segments: the requests still queued when the window
    // closes are excluded from goodput, a fixed ~one-cluster-depth cost
    // that a short window would charge disproportionately.
    TraceRow candidate = run_trace(
        cluster, k, "degraded_2x", {2.0, 2.0, 2.0, 2.0, 2.0, 2.0},
        degraded_capacity, degraded_slo, images);
    if (attempt == 0 || candidate.goodput_ips > spill_row.goodput_ips) {
      spill_row = candidate;
    }
  }
  print_trace_row(spill_row);
  const double spill_goodput_ratio =
      spill_row.goodput_ips / degraded_capacity;
  // Context row: the same degraded cluster at moderate load with spill
  // DISABLED — overflow from the slow shard is shed at its home even
  // though the siblings have headroom (the pre-spill behavior).
  {
    cluster::ClusterConfig no_spill;
    no_spill.spill = false;
    cluster::EngineCluster cluster(make_shards(k, 4, /*degraded_shard=*/0),
                                   no_spill);
    print_trace_row(run_trace(cluster, k, "degraded_1x_nospill",
                              {1.0, 1.0, 1.0}, degraded_capacity,
                              degraded_slo, images));
  }

  // ---- act 3: mixed-tenant adversarial ---------------------------------
  // One hot tenant = half the traffic at 0.9x aggregate capacity: its
  // home shard sees ~1.8x its own capacity while the others idle at
  // ~0.45x. Spill turns the imbalance into cluster-wide work.
  std::printf("\n--- adversarial hot tenant (50%% of traffic, 0.9x "
              "aggregate) ---\n");
  double adversarial_goodput[2] = {0.0, 0.0};  // [spill off, spill on]
  for (int spill = 0; spill < 2; ++spill) {
    cluster::ClusterConfig cfg;
    cfg.spill = spill == 1;
    cluster::EngineCluster cluster(make_shards(k, 4), cfg);
    TraceRow row = run_trace(cluster, k, "adversarial", {0.9, 0.9, 0.9},
                             4.0 * capacity, slo_seconds, images,
                             /*hot_tenant_share=*/0.5);
    adversarial_goodput[spill] = row.goodput_ips;
    print_trace_row(row);
  }
  const double adversarial_spill_ratio =
      adversarial_goodput[0] > 0.0
          ? adversarial_goodput[1] / adversarial_goodput[0]
          : 0.0;
  std::printf("adversarial goodput: spill off %.1f -> on %.1f images/s "
              "(%.2fx)\n", adversarial_goodput[0], adversarial_goodput[1],
              adversarial_spill_ratio);

  // ---- act 4: socket front-end flash crowd -----------------------------
  // Calm -> 2x burst -> calm through the TCP front-end, 3 pipelined
  // clients. Every request must come back exactly once (kOk or kShed,
  // correlated by id) with zero protocol errors.
  std::printf("\n--- socket front-end flash crowd (3 clients) ---\n");
  bool frontend_ok = true;
  std::uint64_t frontend_requests = 0, frontend_responses = 0;
  {
    cluster::EngineCluster cluster(make_shards(k, 2));
    cluster::SocketFrontend frontend(cluster);
    frontend.start();
    constexpr int kClients = 3;
    const std::vector<double> flash = {0.2, 2.0, 0.2};
    std::atomic<std::uint64_t> got{0}, sent{0};
    std::atomic<bool> ok{true};
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        try {
          cluster::FrontendClient client("127.0.0.1", frontend.port());
          util::Rng crng(50 + c);
          // Per-client share of the cluster-wide flash-crowd trace.
          std::vector<double> due;
          double t0 = 0.0;
          for (double mult : flash) {
            const double rate = mult * 2.0 * capacity / kClients;
            double next = t0 + 1.0 / rate;
            while (next < t0 + k.segment_seconds) {
              due.push_back(next);
              next += 1.0 / rate;
            }
            t0 += k.segment_seconds;
          }
          std::set<std::uint64_t> outstanding;
          const auto start = runtime::Clock::now();
          for (std::size_t i = 0; i < due.size(); ++i) {
            std::this_thread::sleep_until(
                start + std::chrono::duration_cast<runtime::Clock::duration>(
                            std::chrono::duration<double>(due[i])));
            cluster::WireRequest req;
            req.id = static_cast<std::uint64_t>(c) * 100000 + i;
            req.tenant = "tenant-" + std::to_string(i % 16);
            req.channels = static_cast<std::uint16_t>(k.width.input_channels);
            req.height = static_cast<std::uint16_t>(k.width.input_size);
            req.width = static_cast<std::uint16_t>(k.width.input_size);
            const core::Tensor image =
                slice_image(images, static_cast<int>(i) % images.dim(0));
            req.pixels.assign(image.data(), image.data() + image.numel());
            client.send(req);
            outstanding.insert(req.id);
            sent.fetch_add(1);
          }
          for (std::size_t i = 0; i < due.size(); ++i) {
            const cluster::WireResponse res = client.recv();
            if (outstanding.erase(res.id) != 1 ||
                (res.status != cluster::ResponseStatus::kOk &&
                 res.status != cluster::ResponseStatus::kShed)) {
              ok.store(false);
            }
            got.fetch_add(1);
          }
          if (!outstanding.empty()) ok.store(false);
        } catch (const odenet::Error&) {
          ok.store(false);
        }
      });
    }
    for (auto& t : clients) t.join();
    const cluster::FrontendCounters counters = frontend.counters();
    frontend_requests = sent.load();
    frontend_responses = got.load();
    frontend_ok = ok.load() && frontend_requests == frontend_responses &&
                  counters.protocol_errors == 0 &&
                  counters.requests == frontend_requests;
    std::printf("frontend: %llu requests, %llu responses, %llu protocol "
                "errors -> %s\n",
                static_cast<unsigned long long>(frontend_requests),
                static_cast<unsigned long long>(frontend_responses),
                static_cast<unsigned long long>(counters.protocol_errors),
                frontend_ok ? "ok" : "FAILED");
    frontend.stop();
    cluster.shutdown();
  }

  // ---- summary ---------------------------------------------------------
  const bool cluster_scales = scaling_4x >= 3.0;
  const bool spill_protects = spill_goodput_ratio >= 0.9;
  std::printf("\ncluster_scales(>=3.0x): %s   spill_protects(>=0.9): %s   "
              "frontend_ok: %s\n", cluster_scales ? "yes" : "NO",
              spill_protects ? "yes" : "NO", frontend_ok ? "yes" : "NO");
  std::printf(
      "JSON {\"bench\":\"cluster\",\"summary\":true,"
      "\"per_shard_peak_images_per_sec\":%.2f,"
      "\"goodput_1shard\":%.2f,\"goodput_2shard\":%.2f,"
      "\"goodput_4shard\":%.2f,\"cluster_scaling_2x\":%.4f,"
      "\"cluster_scaling_4x\":%.4f,\"degraded_peak_images_per_sec\":%.2f,"
      "\"spill_goodput_ratio\":%.4f,\"adversarial_spill_ratio\":%.4f,"
      "\"frontend_requests\":%llu,\"frontend_responses\":%llu,"
      "\"cluster_scales\":%s,\"spill_protects\":%s,\"frontend_ok\":%s}\n",
      capacity, goodput_by_shards[0], goodput_by_shards[1],
      goodput_by_shards[2], scaling_2x, scaling_4x, degraded_capacity,
      spill_goodput_ratio, adversarial_spill_ratio,
      static_cast<unsigned long long>(frontend_requests),
      static_cast<unsigned long long>(frontend_responses),
      cluster_scales ? "true" : "false", spill_protects ? "true" : "false",
      frontend_ok ? "true" : "false");
  return 0;
}
