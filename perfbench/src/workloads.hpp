// The three workloads and the per-layer probes. Each workload builds its
// own stack from the run's seed, checks every output it gets, and reports
// end-to-end metrics (untraced) or per-layer metrics (traced).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench.hpp"

namespace perfbench {

struct RunConfig {
  std::uint64_t seed = 1;
  /// Seconds of timed load (split across a workload's phases).
  double seconds = 10.0;
  /// Record spans and report per-layer metrics.
  bool traced = false;
  /// Set-ups made before timing; setup_s is their median.
  int setup_reps = 1;
  /// Measured peaks (traced runs), the denominators of core.frac_peak.*.
  double peak_gflops_f32 = 0.0;
  double peak_gops_i16 = 0.0;
};

struct WorkloadResult {
  Ledger ledger;
  /// End-to-end metrics (every name in BENCHMARK.json "end_to_end").
  Metrics end_to_end;
  /// Per-layer metrics this workload measured (traced runs).
  Metrics layers;
  /// The workload's throughput metric, for trace.overhead.
  double throughput_ips = 0.0;
  /// Share of the workload's per-operation time its spans account for.
  double coverage = 0.0;
  /// Human-readable lines printed before the result.
  std::vector<std::string> notes;
};

/// One frame of the paced serve schedule: due time after phase start,
/// camera stream, and index into the image pool.
struct Frame {
  double due_s = 0.0;
  int stream = 0;
  int image = 0;
};
/// 4 streams x 30 fps with evenly offset phases (120 frames/s in total);
/// the image each frame carries is drawn from the seed.
std::vector<Frame> make_schedule(std::uint64_t seed, int frames, int pool);

WorkloadResult run_serve(const RunConfig& cfg, Tracer& tracer);
WorkloadResult run_offload(const RunConfig& cfg, Tracer& tracer);
WorkloadResult run_train(const RunConfig& cfg, Tracer& tracer);

/// core.peak_gflops_f32 / core.peak_gops_i16: one large packed GEMM each.
Metrics measure_peaks(Tracer& tracer);

/// Multiply-accumulates of one image through one stage (exact conv shapes).
double stage_macs(const odenet::models::StageSpec& spec);

}  // namespace perfbench
