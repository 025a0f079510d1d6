// Zero-downtime weight hot-swap: what does publishing a new model cost a
// serving engine?
//
// Act 1 — throughput dip: the float engine serves fixed-size waves of
// requests at full tilt. A steady phase (no publishes) sets the baseline;
// a swap phase publishes a fresh ModelSnapshot before every other wave, so
// half its waves absorb a worker re-sync mid-stream. The headline number
// is the worst swap-phase wave throughput as a fraction of the steady
// mean — the acceptance bar is a dip of at most 25% — plus the per-swap
// re-sync latency the engine's stats recorded.
//
// Act 2 — re-sync latency by backend: one reload against a float, fixed
// and fpga_sim engine each, isolating what the swap itself costs: a
// parameter/BN memcpy for the CPU backends, plus the BRAM re-quantization
// for the simulated accelerator.
//
// Every configuration prints one machine-readable JSON line prefixed with
// "JSON "; the final line aggregates the acceptance verdict.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "runtime/engine.hpp"
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

/// Submits every image of `images` and waits for completion; returns
/// wave throughput in images/sec.
double serve_wave(runtime::InferenceEngine& engine,
                  const core::Tensor& images) {
  util::Stopwatch watch;
  auto futures = engine.submit_batch(images);
  for (auto& f : futures) (void)f.get();
  return images.dim(0) / watch.seconds();
}

}  // namespace

int main(int argc, char** argv) {
  util::CliParser cli("bench_hot_swap",
                      "Throughput dip and re-sync latency of weight "
                      "hot-swap under load");
  cli.add_option("wave", "64", "images per measured wave");
  cli.add_option("waves", "8", "waves per phase (steady / swapping)");
  cli.add_option("workers", "2", "float backend worker replicas");
  cli.add_option("base-channels", "8", "network width (paper: 16)");
  cli.add_option("input-size", "16", "input extent (paper: 32)");
  if (!cli.parse(argc, argv)) return 0;

  const int kWave = cli.get_int("wave");
  const int kWaves = cli.get_int("waves");
  models::WidthConfig width{.input_channels = 3,
                            .input_size = cli.get_int("input-size"),
                            .base_channels = cli.get_int("base-channels"),
                            .num_classes = 10};
  const auto spec = models::make_spec(models::Arch::kROdeNet3, 14, width);
  models::Network net(spec);
  util::Rng rng(1);
  net.init(rng);
  net.set_training(false);

  // A pool of pre-captured "retrained" snapshots to publish mid-serve
  // (capture cost is the trainer's, not the engine's).
  std::vector<models::ModelSnapshot::Ptr> snapshots;
  for (int i = 0; i < kWaves; ++i) {
    models::Network retrained(spec);
    util::Rng r(100 + static_cast<std::uint64_t>(i));
    retrained.init(r);
    snapshots.push_back(retrained.export_snapshot());
  }

  runtime::EngineConfig cfg;
  cfg.max_batch = 8;
  runtime::BackendConfig bc;
  bc.workers = cli.get_int("workers");
  cfg.backends = {bc};
  runtime::InferenceEngine engine(net, cfg);

  core::Tensor images = random_images(kWave, 3, width.input_size, rng);
  (void)serve_wave(engine, images);  // warm-up: arenas, page faults

  std::printf("=== Hot-swap: %s, wave=%d x %d waves, %d workers ===\n",
              net.name().c_str(), kWave, kWaves, bc.workers);
  std::printf("%-8s %6s %12s %10s\n", "phase", "wave", "images/sec",
              "publishes");

  // Steady baseline.
  double steady_total = 0.0;
  for (int w = 0; w < kWaves; ++w) {
    const double ips = serve_wave(engine, images);
    steady_total += ips;
    std::printf("%-8s %6d %12.1f %10d\n", "steady", w, ips, 0);
  }
  const double steady_ips = steady_total / kWaves;

  // Swap phase: publish a fresh model before every other wave.
  double worst_swap_ips = 1e300;
  double swap_total = 0.0;
  int publishes = 0;
  const auto before = engine.stats();
  for (int w = 0; w < kWaves; ++w) {
    const bool publish = (w % 2 == 0);
    if (publish) {
      engine.reload(snapshots[static_cast<std::size_t>(w)]);
      ++publishes;
    }
    const double ips = serve_wave(engine, images);
    swap_total += ips;
    if (publish) worst_swap_ips = std::min(worst_swap_ips, ips);
    std::printf("%-8s %6d %12.1f %10d\n", "swapping", w, ips,
                publish ? 1 : 0);
    std::printf("JSON {\"bench\":\"hot_swap\",\"phase\":\"swapping\","
                "\"wave\":%d,\"images_per_sec\":%.2f,\"published\":%s}\n",
                w, ips, publish ? "true" : "false");
  }
  const auto after = engine.stats();
  const auto& b0 = after.backends[0];
  const std::uint64_t swaps = b0.swaps - before.backends[0].swaps;
  const double dip =
      steady_ips > 0.0 ? 1.0 - worst_swap_ips / steady_ips : 0.0;
  const bool ok = worst_swap_ips >= 0.75 * steady_ips;

  std::printf("\nsteady %.1f img/s; swap-phase mean %.1f img/s; worst "
              "publish wave %.1f img/s (dip %.1f%%); %d publishes -> "
              "%llu worker re-syncs, mean %.3f ms, max %.3f ms\n",
              steady_ips, swap_total / kWaves, worst_swap_ips, dip * 100.0,
              publishes, static_cast<unsigned long long>(swaps),
              b0.mean_swap_seconds() * 1e3, b0.max_swap_seconds * 1e3);

  // Act 2: what one publish costs each backend flavor, including the
  // accelerator's BRAM re-quantization.
  std::printf("\n=== Re-sync latency by backend (1 worker, 1 reload) ===\n");
  std::printf("%-9s %14s %14s\n", "backend", "mean_swap_ms", "max_swap_ms");
  for (core::ExecBackend backend :
       {core::ExecBackend::kFloat, core::ExecBackend::kFixed,
        core::ExecBackend::kFpgaSim}) {
    runtime::EngineConfig one;
    one.max_batch = 4;
    runtime::BackendConfig obc;
    obc.backend = backend;
    one.backends = {obc};
    runtime::InferenceEngine e(net, one);
    (void)e.submit_batch(images).back().get();  // warm
    e.reload(snapshots[0]);
    (void)e.submit(random_images(1, 3, width.input_size, rng)
                       .reshaped({3, width.input_size, width.input_size}))
        .get();  // forces the worker re-sync
    const auto s = e.stats().backends[0];
    std::printf("%-9s %14.3f %14.3f\n", core::backend_name(backend).c_str(),
                s.mean_swap_seconds() * 1e3, s.max_swap_seconds * 1e3);
    std::printf("JSON {\"bench\":\"hot_swap\",\"mode\":\"resync_latency\","
                "\"backend\":\"%s\",\"swaps\":%llu,\"mean_swap_ms\":%.4f,"
                "\"max_swap_ms\":%.4f}\n",
                core::backend_name(backend).c_str(),
                static_cast<unsigned long long>(s.swaps),
                s.mean_swap_seconds() * 1e3, s.max_swap_seconds * 1e3);
  }

  std::printf("JSON {\"bench\":\"hot_swap\",\"summary\":true,"
              "\"steady_images_per_sec\":%.2f,"
              "\"swap_phase_images_per_sec\":%.2f,"
              "\"worst_publish_wave_images_per_sec\":%.2f,"
              "\"throughput_dip\":%.4f,\"publishes\":%d,"
              "\"worker_resyncs\":%llu,\"mean_swap_ms\":%.4f,"
              "\"max_swap_ms\":%.4f,\"model_version\":%llu,"
              "\"dip_within_25pct\":%s}\n",
              steady_ips, swap_total / kWaves, worst_swap_ips, dip,
              publishes, static_cast<unsigned long long>(swaps),
              b0.mean_swap_seconds() * 1e3, b0.max_swap_seconds * 1e3,
              static_cast<unsigned long long>(after.model_version),
              ok ? "true" : "false");
  return 0;
}
