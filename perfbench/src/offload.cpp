// offload: the paper's Table 5 configuration — rODENet-3-56 with layer3_2
// on the simulated PL (conv_x16, 100 MHz, Q20; BackendConfig defaults)
// and every other stage as float on the PS. One kFpgaSim engine backend,
// one client submitting one image at a time (closed loop), as the board
// classifies one frame at a time. fpga/ and sched::FpgaStageExecutor take
// ~90% of the host time here and none anywhere else.
//
// sim_latency_ms is simulated PYNQ-Z2 time, not host time: the CpuModel
// PS time of the software stages plus the PL cycles the simulated
// accelerator reported for each image at the PL clock. It is
// deterministic; a change that only speeds up the simulator must leave it
// and fpga.pl_cycles_per_image exactly unchanged.
#include <algorithm>
#include <cmath>
#include <future>
#include <limits>
#include <memory>

#include "fpga/axi.hpp"
#include "models/network.hpp"
#include "runtime/engine.hpp"
#include "sched/fpga_executor.hpp"
#include "sched/latency_model.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace odenet;

namespace {

constexpr int kPool = 16;
/// The float reference normalizes layer3_2 per image, like the PL; the
/// remaining gap is Q20 rounding (measured max error ~3e-5).
constexpr double kTolerance = 1e-3;
/// Table 5, rODENet-3-56 with layer3_2 on the PL (Watanabe & Matsutani).
constexpr double kPaperSpeedup = 2.66;
constexpr double kWindowSeconds = 2.0;
/// Latency percentiles need >= 40 images per window for a p75 with ten
/// samples beyond it (10-15 img/s here).
constexpr double kLatencyWindowSeconds = 5.0;

runtime::EngineConfig offload_config() {
  runtime::BackendConfig pl;
  pl.backend = core::ExecBackend::kFpgaSim;
  pl.offloaded = {models::StageId::kLayer3_2};
  runtime::EngineConfig cfg;
  cfg.backends = {pl};
  return cfg;
}

struct OffloadInputs {
  Model model;
  std::vector<core::Tensor> images;
  std::vector<core::Tensor> refs;
  runtime::BackendConfig backend;
  /// LatencyModel's PL cycles for one image of layer3_2.
  std::uint64_t expected_cycles = 0;
  /// CpuModel seconds of the whole network / of the offloaded stage.
  double software_s = 0.0;
  double offloaded_software_s = 0.0;
};

OffloadInputs make_inputs(std::uint64_t seed) {
  OffloadInputs in;
  in.model = make_model(56, seed);
  in.images = make_images(kPool, sub_seed(seed, kImagesStream));
  in.backend = offload_config().backends.front();

  models::Network ref(in.model.spec);
  ref.apply_snapshot(*in.model.snapshot);
  ref.set_training(false);
  auto& block = ref.stage(models::StageId::kLayer3_2)->ode()->block();
  block.bn1().set_use_batch_stats_in_eval(true);
  block.bn2().set_use_batch_stats_in_eval(true);
  for (const core::Tensor& img : in.images) {
    in.refs.push_back(ref.forward(img.reshaped({1, 3, 32, 32})));
  }

  const models::StageSpec& s = in.model.spec.stage(models::StageId::kLayer3_2);
  const std::size_t fwords =
      static_cast<std::size_t>(s.out_channels) * s.in_size * s.in_size;
  in.expected_cycles =
      static_cast<std::uint64_t>(s.total_executions()) *
      (sched::LatencyModel::pl_block_cycles(s, in.backend.parallelism) +
       fpga::roundtrip_cycles(fwords, fwords, in.backend.axi));
  const sched::CpuModel cpu;
  in.software_s = cpu.network_seconds(in.model.spec);
  in.offloaded_software_s = cpu.stage_seconds(s);
  return in;
}

/// Empty when the result is right, else why not.
std::string check(const OffloadInputs& in, int image,
                  const runtime::InferenceResult& r) {
  const core::Tensor& ref = in.refs[static_cast<std::size_t>(image)];
  const double tol = kTolerance * std::max(1.0, max_abs(ref));
  const double err = max_abs_diff(ref, r.logits.data(), r.logits.numel());
  char buf[160];
  if (!(err <= tol)) {
    std::snprintf(buf, sizeof(buf), "image %d: logits off by %.4g (tolerance %.4g)",
                  image, err, tol);
    return buf;
  }
  if (r.pl_cycles != in.expected_cycles) {
    std::snprintf(buf, sizeof(buf), "image %d: %llu PL cycles, LatencyModel %llu",
                  image, static_cast<unsigned long long>(r.pl_cycles),
                  static_cast<unsigned long long>(in.expected_cycles));
    return buf;
  }
  return {};
}

/// Builds the engine and takes the backend to its max_batch once.
std::unique_ptr<runtime::InferenceEngine> build_engine(const OffloadInputs& in,
                                                       Ledger& ledger) {
  auto engine = std::make_unique<runtime::InferenceEngine>(in.model.snapshot,
                                                           offload_config());
  const int max_batch = engine->config().max_batch;
  std::vector<std::future<runtime::InferenceResult>> futures;
  for (int i = 0; i < max_batch; ++i) {
    futures.push_back(engine->submit(in.images[i % kPool]));
  }
  for (int i = 0; i < max_batch; ++i) {
    try {
      const std::string why = check(in, i % kPool, futures[i].get());
      if (why.empty()) ledger.ok(); else ledger.fail("warm-up " + why);
    } catch (const std::exception& e) {
      ledger.fail(std::string("warm-up: ") + e.what());
    }
  }
  return engine;
}

/// sched.fpga_stage_ms / models.ps_ms / fpga.requantize_ms on a replica
/// with its own FpgaStageExecutor, one image at a time.
void probe_stages(const OffloadInputs& in, Tracer& tracer, Metrics& out) {
  models::Network net(in.model.spec);
  net.apply_snapshot(*in.model.snapshot);
  net.set_training(false);
  models::Stage& offloaded = *net.stage(models::StageId::kLayer3_2);
  sched::FpgaStageExecutor::Config pl;
  pl.parallelism = in.backend.parallelism;
  pl.clock_mhz = in.backend.pl_clock_mhz;
  pl.axi = in.backend.axi;
  pl.frac_bits = in.backend.frac_bits;
  pl.snapshot_version = in.model.snapshot->version();
  sched::FpgaStageExecutor fpga_exec(offloaded, pl);
  models::FloatStageExecutor float_exec;

  std::vector<double> ps, pl_stage, requant;
  for (int r = -1; r < 5; ++r) {
    const core::Tensor x = in.images[static_cast<std::size_t>(r + 1)].reshaped(
        {1, 3, 32, 32});
    core::Tensor h;
    double ps_s = timed(tracer, "Network::stem_forward", "models",
                        [&] { h = net.stem_forward(x); });
    double pl_s = 0.0;
    for (auto& stage : net.stages()) {
      if (stage->is_empty()) continue;
      if (stage.get() == &offloaded) {
        pl_s = timed(tracer, "FpgaStageExecutor::run", "sched",
                     [&] { h = fpga_exec.run(*stage, h, nullptr); });
      } else {
        ps_s += timed(tracer, "FloatStageExecutor::run", "models",
                      [&] { h = float_exec.run(*stage, h, nullptr); });
      }
    }
    ps_s += timed(tracer, "Network::head_forward", "models",
                  [&] { h = net.head_forward(h); });
    if (r < 0) continue;
    ps.push_back(ps_s);
    pl_stage.push_back(pl_s);
  }
  for (int r = 0; r < 3; ++r) {
    requant.push_back(timed(tracer, "FpgaStageExecutor::requantize", "fpga", [&] {
      fpga_exec.requantize(offloaded, in.model.snapshot->version());
    }));
  }
  out["sched.fpga_stage_ms"] = {1e3 * median(pl_stage), "ms"};
  out["models.ps_ms"] = {1e3 * median(ps), "ms"};
  out["fpga.requantize_ms"] = {1e3 * median(requant), "ms"};
}

}  // namespace

WorkloadResult run_offload(const RunConfig& cfg, Tracer& tracer) {
  WorkloadResult result;
  const OffloadInputs in = make_inputs(cfg.seed);

  std::vector<double> setups;
  std::unique_ptr<runtime::InferenceEngine> engine;
  for (int r = 0; r < cfg.setup_reps; ++r) {
    engine.reset();
    const Clock::time_point t0 = Clock::now();
    engine = build_engine(in, result.ledger);
    setups.push_back(seconds_between(t0, Clock::now()));
  }

  // (completion second, ms from submit to result); failures are +inf.
  Timeline done;
  std::uint64_t cycles = 0;
  const std::uint64_t schedule_seed = sub_seed(cfg.seed, kScheduleStream);
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(cfg.seconds));
  for (std::uint64_t i = 0; Clock::now() < end; ++i) {
    const int image = static_cast<int>(sub_seed(schedule_seed, i) % kPool);
    const Clock::time_point t0 = Clock::now();
    double ms = std::numeric_limits<double>::infinity();
    try {
      runtime::InferenceResult r =
          engine->submit(in.images[static_cast<std::size_t>(image)]).get();
      const Clock::time_point t1 = Clock::now();
      tracer.record("InferenceEngine::submit", "runtime", t0, t1);
      const std::string why = check(in, image, r);
      if (why.empty()) {
        result.ledger.ok();
        ms = 1e3 * seconds_between(t0, t1);
        cycles = r.pl_cycles;
      } else {
        result.ledger.fail(why);
      }
    } catch (const std::exception& e) {
      result.ledger.fail(e.what());
    }
    done.add(seconds_between(start, Clock::now()), ms);
  }
  engine.reset();
  const Samples latency = done.all();

  const double pl_s =
      static_cast<double>(cycles) / (in.backend.pl_clock_mhz * 1e6);
  const double sim_s = in.software_s - in.offloaded_software_s + pl_s;
  const double speedup = in.software_s / sim_s;
  result.throughput_ips =
      done.over_windows(kWindowSeconds, cfg.seconds,
                        [](const Samples& s, double) { return s.rate(); });
  auto window_percentile = [&](double q) {
    return done.over_windows(
        kLatencyWindowSeconds, cfg.seconds,
        [q](const Samples& s, double) { return s.percentile(q); });
  };
  result.end_to_end = {
      {"setup_s", {median(setups), "s"}},
      {"throughput_ips", {result.throughput_ips, "img/s"}},
      {"latency_p50_ms", {window_percentile(50), "ms"}},
      {"latency_p75_ms", {window_percentile(75), "ms"}},
      {"sim_latency_ms", {1e3 * sim_s, "ms_sim"}},
  };

  result.notes.push_back(describe("offload per-image latency", latency));
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "offload: simulated %.1f ms/image (PS %.1f ms + PL %.1f ms); "
                "software-only %.1f ms; modeled speed-up %.3fx vs paper "
                "Table 5 %.2fx (error %+.1f%%)",
                1e3 * sim_s, 1e3 * (in.software_s - in.offloaded_software_s),
                1e3 * pl_s, 1e3 * in.software_s, speedup, kPaperSpeedup,
                100.0 * (speedup / kPaperSpeedup - 1.0));
  result.notes.push_back(buf);
  std::snprintf(buf, sizeof(buf),
                "offload: PL cycles/image %llu, LatencyModel %llu (%s)",
                static_cast<unsigned long long>(cycles),
                static_cast<unsigned long long>(in.expected_cycles),
                cycles == in.expected_cycles ? "equal" : "DIFFERENT");
  result.notes.push_back(buf);

  if (cfg.traced) {
    Metrics& L = result.layers;
    L["fpga.pl_cycles_per_image"] = {static_cast<double>(cycles), "count"};
    L["sched.sim_speedup_x"] = {speedup, "x"};
    probe_stages(in, tracer, L);
    result.coverage = (L["sched.fpga_stage_ms"].value + L["models.ps_ms"].value) /
                      latency.percentile(50);
  }
  return result;
}

}  // namespace perfbench
