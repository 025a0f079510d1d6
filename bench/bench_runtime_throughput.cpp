// Serving throughput: images/sec versus micro-batch size and backend.
//
// Baseline: sequential single-image Network::forward calls (the pre-runtime
// serving pattern — one synchronous request at a time). Against it, the
// InferenceEngine with growing max_batch on the float backend, plus the
// fixed-point and FPGA-sim backends at one batch setting. Dynamic batching
// amortizes per-call dispatch/allocation overhead across the batch, so
// engine throughput at max_batch > 1 should beat the sequential baseline.
// The baseline and the sweep are timed interleaved, best-of-9 per arm.
//
// The float and fixed engines at max batch are also scored against this
// host's measured GEMM peak (core::measure_gemm_peak): engine images/sec x
// conv ops per image / the f32 (float) or i16 (fixed) peak. Each try times
// the peak next to the engine run, best-of-9 of both. Engine throughput
// swings with host contention far more than the GEMM peak does (over 20%
// across repeated runs), so both fractions are gated through floor
// verdicts, not as ratios against the baseline. The fused ODE stages —
// the fused epilogues' target — are scored against the f32 peak the same
// way.
//
// Second act — routing under skewed load: the paper's PS/PL SoC as a
// heterogeneous engine — float software (one A9 core), the fixed-point
// CPU path (the second A9 core), and the simulated PL accelerator — fed
// paced bursts of mixed-priority requests, once pinned to backend 0
// (SubmitOptions::backend, so the load skew is total) and once routed by
// least-depth placement.
//
// Each run reports two throughputs: host wall-clock (every backend is
// ultimately simulated on this machine, so on few-core hosts the engines
// time-slice one another) and the modeled deployment makespan — per
// engine, requests x modeled service seconds (CpuModel / the PS/PL
// LatencyModel), max over engines, i.e. the drain time on the real SoC
// where PS cores and the PL genuinely run in parallel. The headline
// routing_wins is judged on the modeled deployment, matching how the rest
// of the repo scores hardware (Table 5).
//
// Every configuration prints one machine-readable JSON line prefixed with
// "JSON "; the final lines aggregate the sweep and the policy comparison.
#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "core/gemm_kernels.hpp"
#include "runtime/engine.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"

using namespace odenet;

namespace {

/// Floors of the float_frac_peak_ok / fixed_frac_peak_ok verdicts: the
/// lowest of 34 runs on a 4-core AVX2 host (0.072 and 0.028, both under
/// sustained contention) less the 20% tolerance.
constexpr double kFloatFracPeakFloor = 0.057;
constexpr double kFixedFracPeakFloor = 0.022;
/// Floor of the fused_ode_frac_peak_ok verdict, set the same way: the
/// lowest of 34 runs on that host (0.162) less the 20% tolerance.
constexpr double kFusedOdeFracPeakFloor = 0.130;

core::Tensor random_images(int n, int channels, int size, util::Rng& rng) {
  core::Tensor x({n, channels, size, size});
  for (std::size_t i = 0; i < x.numel(); ++i) {
    x.data()[i] = static_cast<float>(rng.normal(0.0, 0.5));
  }
  return x;
}

struct Row {
  std::string mode;     // "sequential" or "engine"
  std::string backend;  // executor backend
  int max_batch = 1;
  int images = 0;
  double seconds = 0.0;
  double images_per_sec = 0.0;
  double speedup = 1.0;  // vs the sequential float baseline
  std::uint64_t pl_cycles = 0;
};

void print_row(const Row& r) {
  std::printf("%-11s %-9s %9d %8d %10.4f %12.1f %9.2fx %14llu\n",
              r.mode.c_str(), r.backend.c_str(), r.max_batch, r.images,
              r.seconds, r.images_per_sec, r.speedup,
              static_cast<unsigned long long>(r.pl_cycles));
  std::printf("JSON {\"bench\":\"runtime_throughput\",\"mode\":\"%s\","
              "\"backend\":\"%s\",\"max_batch\":%d,\"images\":%d,"
              "\"seconds\":%.6f,\"images_per_sec\":%.2f,\"speedup\":%.4f,"
              "\"pl_cycles\":%llu}\n",
              r.mode.c_str(), r.backend.c_str(), r.max_batch, r.images,
              r.seconds, r.images_per_sec, r.speedup,
              static_cast<unsigned long long>(r.pl_cycles));
}

/// The baseline: one synchronous single-image forward per image.
Row run_sequential(models::Network& net, const core::Tensor& images) {
  const int n = images.dim(0), c = images.dim(1), s = images.dim(2);
  const std::size_t stride = static_cast<std::size_t>(c) * s * s;
  util::Stopwatch watch;
  for (int i = 0; i < n; ++i) {
    core::Tensor one({1, c, s, s});
    std::copy_n(images.data() + static_cast<std::size_t>(i) * stride, stride,
                one.data());
    (void)net.forward(one);
  }
  Row row;
  row.mode = "sequential";
  row.backend = "float";
  row.images = n;
  row.seconds = watch.seconds();
  row.images_per_sec = n / row.seconds;
  return row;
}

/// One engine run over `images` on a single backend. The rows the perf
/// gate reads are best-of-N over repeated calls, so a scheduler hiccup on
/// a shared runner does not flap the verdict (same stabilization as
/// bench_overload's goodput).
Row run_engine(models::Network& net, const core::Tensor& images,
               core::ExecBackend backend, int max_batch) {
  Row row;
  row.mode = "engine";
  row.backend = core::backend_name(backend);
  row.max_batch = max_batch;
  row.images = images.dim(0);
  runtime::EngineConfig cfg;
  cfg.max_batch = max_batch;
  runtime::BackendConfig bc;
  bc.backend = backend;
  cfg.backends = {bc};
  runtime::InferenceEngine engine(net, cfg);

  util::Stopwatch watch;
  auto futures = engine.submit_batch(images);
  for (auto& f : futures) (void)f.get();
  row.seconds = watch.seconds();
  row.images_per_sec = images.dim(0) / row.seconds;
  row.pl_cycles = engine.stats().pl_cycles();
  return row;
}

/// Conv multiply-adds x 2 for one image through the network: the stem
/// plus both 3x3 convs of every block execution (a transition stage's
/// first block reads in_channels, the rest out_channels), without the
/// concat-time plane.
double conv_ops_per_image(const models::NetworkSpec& spec) {
  const models::WidthConfig& w = spec.width;
  double macs = 9.0 * w.base_channels * w.input_channels * w.input_size *
                w.input_size;
  for (const models::StageSpec& st : spec.stages) {
    const double out_hw = static_cast<double>(st.in_size / st.stride) *
                          (st.in_size / st.stride);
    for (int b = 0; b < st.stacked_blocks; ++b) {
      const int in_channels = b == 0 ? st.in_channels : st.out_channels;
      macs += out_hw * st.out_channels * 9.0 *
              (in_channels + st.out_channels) * st.executions;
    }
  }
  return 2.0 * macs;
}

struct RoutingRow {
  std::string placement;  // "pinned" or "least_depth"
  int images = 0;
  double host_seconds = 0.0;
  double host_images_per_sec = 0.0;
  /// Modeled drain time of the PS/PL deployment: max over engines of
  /// requests x modeled service seconds.
  double modeled_seconds = 0.0;
  double modeled_images_per_sec = 0.0;
  double modeled_speedup_vs_pinned = 1.0;
  std::vector<std::uint64_t> backend_requests;
  std::uint64_t timeouts = 0;
};

void print_routing_row(const RoutingRow& r) {
  std::printf("%-16s %8d %12.4f %12.1f %14.4f %14.1f %9.2fx  [",
              r.placement.c_str(), r.images, r.host_seconds,
              r.host_images_per_sec, r.modeled_seconds,
              r.modeled_images_per_sec, r.modeled_speedup_vs_pinned);
  for (std::size_t i = 0; i < r.backend_requests.size(); ++i) {
    std::printf("%s%llu", i > 0 ? " " : "",
                static_cast<unsigned long long>(r.backend_requests[i]));
  }
  std::printf("]\n");
  std::printf("JSON {\"bench\":\"runtime_throughput\",\"mode\":\"routing\","
              "\"placement\":\"%s\",\"images\":%d,\"host_seconds\":%.6f,"
              "\"host_images_per_sec\":%.2f,\"modeled_seconds\":%.6f,"
              "\"modeled_images_per_sec\":%.2f,"
              "\"modeled_speedup_vs_pinned\":%.4f,\"timeouts\":%llu,"
              "\"backend_requests\":[",
              r.placement.c_str(), r.images, r.host_seconds,
              r.host_images_per_sec, r.modeled_seconds,
              r.modeled_images_per_sec, r.modeled_speedup_vs_pinned,
              static_cast<unsigned long long>(r.timeouts));
  for (std::size_t i = 0; i < r.backend_requests.size(); ++i) {
    std::printf("%s%llu", i > 0 ? "," : "",
                static_cast<unsigned long long>(r.backend_requests[i]));
  }
  std::printf("]}\n");
}

// The skewed workload: paced bursts of mixed-priority requests against the
// modeled SoC — float and fixed software (the two PS cores) plus the
// simulated PL accelerator — either all pinned to backend 0 or routed by
// least-depth placement. The pacing matters: each burst's placement sees
// the queue pressure the previous bursts left behind, so routed traffic
// shifts as the engines drain.
RoutingRow run_routing(models::Network& net, const core::Tensor& images,
                       bool pinned) {
  runtime::EngineConfig cfg;
  cfg.max_batch = 8;
  runtime::BackendConfig ps_float;
  ps_float.backend = core::ExecBackend::kFloat;
  runtime::BackendConfig ps_fixed;
  ps_fixed.backend = core::ExecBackend::kFixed;
  runtime::BackendConfig pl_sim;
  pl_sim.backend = core::ExecBackend::kFpgaSim;
  cfg.backends = {ps_float, ps_fixed, pl_sim};
  runtime::InferenceEngine engine(net, cfg);

  const int n = images.dim(0);
  const int c = images.dim(1), s = images.dim(2);
  const std::size_t stride = static_cast<std::size_t>(c) * s * s;
  std::vector<std::future<runtime::InferenceResult>> futures;
  futures.reserve(static_cast<std::size_t>(n));

  constexpr int kBurst = 8;
  util::Stopwatch watch;
  for (int i = 0; i < n; ++i) {
    if (i > 0 && i % kBurst == 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(1500));
    }
    core::Tensor image({c, s, s});
    std::copy_n(images.data() + static_cast<std::size_t>(i) * stride, stride,
                image.data());
    runtime::SubmitOptions opts;  // priority classes cycle
    opts.priority = static_cast<runtime::Priority>(i % 3);
    if (pinned) opts.backend = 0;
    futures.push_back(engine.submit(std::move(image), opts));
  }
  for (auto& f : futures) (void)f.get();
  const double seconds = watch.seconds();

  RoutingRow row;
  row.placement = pinned ? "pinned" : "least_depth";
  row.images = n;
  row.host_seconds = seconds;
  row.host_images_per_sec = n / seconds;
  const auto stats = engine.stats();
  for (std::size_t b = 0; b < stats.backends.size(); ++b) {
    row.backend_requests.push_back(stats.backends[b].requests);
    row.modeled_seconds =
        std::max(row.modeled_seconds,
                 static_cast<double>(stats.backends[b].requests) *
                     stats.backends[b].modeled_request_seconds);
  }
  row.modeled_images_per_sec =
      row.modeled_seconds > 0.0 ? n / row.modeled_seconds : 0.0;
  row.timeouts = stats.timeouts();
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  util::CliParser cli("bench_runtime_throughput",
                      "Images/sec vs micro-batch size and backend");
  cli.add_option("images", "128", "images per configuration");
  cli.add_option("max-batch", "16", "largest micro-batch in the sweep");
  cli.add_option("base-channels", "8", "network width (paper: 16)");
  cli.add_option("input-size", "16", "input extent (paper: 32)");
  if (!cli.parse(argc, argv)) return 0;

  const int kImages = cli.get_int("images");
  const int kMaxBatch = cli.get_int("max-batch");
  models::WidthConfig width{.input_channels = 3,
                            .input_size = cli.get_int("input-size"),
                            .base_channels = cli.get_int("base-channels"),
                            .num_classes = 10};
  models::Network net(models::make_spec(models::Arch::kROdeNet3, 14, width));
  util::Rng rng(1);
  net.init(rng);
  net.set_training(false);

  core::Tensor images = random_images(kImages, 3, width.input_size, rng);

  // Warm-up: first-touch page faults and lazy allocations must not land on
  // the sequential baseline.
  for (int i = 0; i < 3; ++i) {
    (void)net.forward(random_images(1, 3, width.input_size, rng));
  }

  std::printf("=== Serving throughput: %s, %d images ===\n",
              net.name().c_str(), kImages);
  std::printf("%-11s %-9s %9s %8s %10s %12s %9s %14s\n", "mode", "backend",
              "max_batch", "images", "seconds", "images/sec", "speedup",
              "pl_cycles");

  // Baseline vs engine sweep on the float backend (batching
  // amortization), interleaved: each try times the sequential forwards,
  // then one engine run per max_batch, and every arm keeps its best of 9.
  // Host drift then hits baseline and sweep alike: timed once each, the
  // two arms swing batched_speedup from 0.87 to 1.73 across runs.
  Row base;
  std::vector<Row> sweep;
  for (int t = 0; t < 9; ++t) {
    Row seq = run_sequential(net, images);
    if (t == 0 || seq.seconds < base.seconds) base = seq;
    std::size_t i = 0;
    for (int mb = 1; mb <= kMaxBatch; mb *= 2, ++i) {
      Row row = run_engine(net, images, core::ExecBackend::kFloat, mb);
      if (t == 0) {
        sweep.push_back(row);
      } else if (row.seconds < sweep[i].seconds) {
        sweep[i] = row;
      }
    }
  }
  print_row(base);
  double best_batched = 0.0;
  for (Row& row : sweep) {
    row.speedup = row.images_per_sec / base.images_per_sec;
    if (row.max_batch > 1) {
      best_batched = std::max(best_batched, row.images_per_sec);
    }
    print_row(row);
  }

  // Fraction of peak at max batch: each try measures the GEMM peak next
  // to one float and one fixed engine run, best-of-9 of all three, so
  // scheduler/turbo drift on a shared runner hits numerator and
  // denominator alike.
  Row float_row, fixed_row;
  core::GemmPeak peak;
  for (int t = 0; t < 9; ++t) {
    const core::GemmPeak p = core::measure_gemm_peak();
    peak.gflops_f32 = std::max(peak.gflops_f32, p.gflops_f32);
    peak.gops_i16 = std::max(peak.gops_i16, p.gops_i16);
    Row a = run_engine(net, images, core::ExecBackend::kFloat, kMaxBatch);
    Row b = run_engine(net, images, core::ExecBackend::kFixed, kMaxBatch);
    if (t == 0 || a.seconds < float_row.seconds) float_row = a;
    if (t == 0 || b.seconds < fixed_row.seconds) fixed_row = b;
  }
  const double conv_ops = conv_ops_per_image(net.spec());
  const double float_frac_peak =
      float_row.images_per_sec * conv_ops / (peak.gflops_f32 * 1e9);
  const double fixed_frac_peak =
      fixed_row.images_per_sec * conv_ops / (peak.gops_i16 * 1e9);
  float_row.speedup = float_row.images_per_sec / base.images_per_sec;
  print_row(float_row);
  fixed_row.speedup = fixed_row.images_per_sec / base.images_per_sec;
  print_row(fixed_row);
  Row fpga_row =
      run_engine(net, images, core::ExecBackend::kFpgaSim, kMaxBatch);
  fpga_row.speedup = fpga_row.images_per_sec / base.images_per_sec;
  print_row(fpga_row);

  // Fused ODE-stage inference: the epilogue fusion targets the ODE stages
  // (weight-shared block, BN fold, h-scaled Euler accumulation in the GEMM
  // tile), so score those directly — the three ODE stages of the all-ODE
  // ODENet architecture at this width (channels c/2c/4c at extents s,
  // s/2, s/4 — the geometries the paper integrates), batch = max-batch,
  // Euler, N=32 (mid-range of the paper's 20..56 sweep, so each forward is
  // a real multi-step integration). Each try measures the GEMM peak next
  // to a multi-forward rep of every stage, best-of-7 of both;
  // fused_ode_frac_peak is the stages' conv ops (both 3x3 convs per step,
  // without the time plane) over their summed best times, over the f32
  // peak.
  models::Network ode_net(
      models::make_spec(models::Arch::kOdeNet, 32, width));
  ode_net.init(rng);
  ode_net.set_training(false);
  struct OdeStage {
    models::Stage* stage;
    core::Tensor z;
    int reps;
    double ops;
    double best = 1e30;
  };
  std::vector<OdeStage> ode_stages;
  for (auto& stage : ode_net.stages()) {
    if (!stage->is_ode()) continue;
    const models::StageSpec& sp = stage->spec();
    const double macs = 2.0 * 9.0 * sp.out_channels * sp.out_channels *
                        sp.in_size * sp.in_size * sp.executions * kMaxBatch;
    ode_stages.push_back(
        {stage.get(),
         random_images(kMaxBatch, sp.out_channels, sp.in_size, rng),
         std::max(1, 512 / (sp.out_channels * sp.executions)), 2.0 * macs});
    // Warm the arena, the packed weights and the solver scratch.
    (void)stage->ode()->forward(ode_stages.back().z);
  }
  double ode_peak_gflops = 0.0;
  for (int t = 0; t < 7; ++t) {
    ode_peak_gflops =
        std::max(ode_peak_gflops, core::measure_gemm_peak().gflops_f32);
    for (OdeStage& os : ode_stages) {
      util::Stopwatch w;
      for (int r = 0; r < os.reps; ++r) (void)os.stage->ode()->forward(os.z);
      os.best = std::min(os.best, w.seconds() / os.reps);
    }
  }
  double ode_ops = 0.0, ode_fused_sec = 0.0;
  for (const OdeStage& os : ode_stages) {
    const models::StageSpec& sp = os.stage->spec();
    ode_ops += os.ops;
    ode_fused_sec += os.best;
    std::printf("JSON {\"bench\":\"runtime_throughput\",\"mode\":\"ode_stage\","
                "\"stage\":\"%s\",\"channels\":%d,\"extent\":%d,"
                "\"executions\":%d,\"batch\":%d,"
                "\"fused_fwd_seconds\":%.6f,\"frac_peak\":%.4f}\n",
                os.stage->name().c_str(), sp.out_channels, sp.in_size,
                sp.executions, kMaxBatch, os.best,
                os.ops / os.best / (ode_peak_gflops * 1e9));
  }
  const double fused_ode_frac_peak =
      ode_ops / ode_fused_sec / (ode_peak_gflops * 1e9);

  const double batched_speedup = best_batched / base.images_per_sec;
  std::printf("JSON {\"bench\":\"runtime_throughput\",\"summary\":true,"
              "\"images\":%d,\"sequential_images_per_sec\":%.2f,"
              "\"best_batched_images_per_sec\":%.2f,"
              "\"batched_speedup\":%.4f,"
              "\"conv_mops_per_image\":%.3f,"
              "\"peak_gflops_f32\":%.2f,\"peak_gops_i16\":%.2f,"
              "\"float_images_per_sec\":%.2f,"
              "\"float_frac_peak\":%.4f,"
              "\"fixed_images_per_sec\":%.2f,"
              "\"fixed_frac_peak\":%.4f,"
              "\"fused_ode_fwd_seconds\":%.6f,"
              "\"fused_ode_peak_gflops_f32\":%.2f,"
              "\"fused_ode_frac_peak\":%.4f,"
              "\"batching_wins\":%s,"
              "\"float_frac_peak_ok\":%s,\"fixed_frac_peak_ok\":%s,"
              "\"fused_ode_frac_peak_ok\":%s}\n",
              kImages, base.images_per_sec, best_batched, batched_speedup,
              conv_ops / 1e6, peak.gflops_f32, peak.gops_i16,
              float_row.images_per_sec, float_frac_peak,
              fixed_row.images_per_sec, fixed_frac_peak, ode_fused_sec,
              ode_peak_gflops, fused_ode_frac_peak,
              batched_speedup > 1.0 ? "true" : "false",
              float_frac_peak >= kFloatFracPeakFloor ? "true" : "false",
              fixed_frac_peak >= kFixedFracPeakFloor ? "true" : "false",
              fused_ode_frac_peak >= kFusedOdeFracPeakFloor ? "true"
                                                             : "false");

  // ---- Routing under skewed load ---------------------------------------
  std::printf("\n=== Routing: float + fixed + fpga_sim backends, paced "
              "bursts, %d mixed-priority requests ===\n",
              kImages);
  std::printf("%-16s %8s %12s %12s %14s %14s %9s  %s\n", "placement",
              "images", "host_sec", "host_img/s", "modeled_sec",
              "modeled_img/s", "vs_pinned", "backend_requests");
  RoutingRow pinned = run_routing(net, images, /*pinned=*/true);
  print_routing_row(pinned);
  RoutingRow routed = run_routing(net, images, /*pinned=*/false);
  routed.modeled_speedup_vs_pinned =
      pinned.modeled_images_per_sec > 0.0
          ? routed.modeled_images_per_sec / pinned.modeled_images_per_sec
          : 0.0;
  print_routing_row(routed);
  std::printf("JSON {\"bench\":\"runtime_throughput\","
              "\"routing_summary\":true,\"images\":%d,"
              "\"pinned_modeled_images_per_sec\":%.2f,"
              "\"pinned_host_images_per_sec\":%.2f,"
              "\"routed_modeled_images_per_sec\":%.2f,"
              "\"routed_host_images_per_sec\":%.2f,"
              "\"routing_speedup\":%.4f,\"routing_wins\":%s,"
              "\"host_routing_wins\":%s}\n",
              kImages, pinned.modeled_images_per_sec,
              pinned.host_images_per_sec, routed.modeled_images_per_sec,
              routed.host_images_per_sec, routed.modeled_speedup_vs_pinned,
              routed.modeled_images_per_sec > pinned.modeled_images_per_sec
                  ? "true"
                  : "false",
              routed.host_images_per_sec > pinned.host_images_per_sec
                  ? "true"
                  : "false");
  return 0;
}
