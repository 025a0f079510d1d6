// End-to-end PS/PL latency model — reproduces the paper's Table 5 — plus
// the measured-service-time estimator (ServiceTimeEwma) that replaces the
// model once real completions have been observed.
//
// A Partition names which ODE-capable stages run on the PL (as dedicated
// circuits at conv_xn parallelism) while everything else runs as software
// on the PS. For each offloaded stage the PL time per block execution is
// the engine cycle model (2 convs + 2 BNs) plus one feature-map round trip
// over AXI; for software stages the CpuModel applies.
#pragma once

#include <cstdint>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "fpga/axi.hpp"
#include "fpga/resource_model.hpp"
#include "sched/cpu_model.hpp"

namespace odenet::sched {

struct Partition {
  /// Stages implemented on the PL (must exist in the architecture and be
  /// among {layer1, layer2_2, layer3_2}).
  std::set<models::StageId> offloaded;
  int parallelism = 16;  // conv_xn
  double pl_clock_mhz = 100.0;
  fpga::AxiConfig axi{};

  static Partition none() { return Partition{}; }
  static Partition single(models::StageId id, int parallelism = 16);
};

/// Per-offload-target timing (one entry per offloaded stage, in stage
/// order — rODENet-1+2 rows have two).
struct TargetTiming {
  models::StageId stage{};
  int executions = 0;
  double seconds_without_pl = 0.0;
  double seconds_with_pl = 0.0;  // includes AXI transfers
  double ratio_of_total = 0.0;   // seconds_without_pl / total_without_pl
};

/// One row of Table 5.
struct LatencyRow {
  std::string model;
  int n = 0;
  std::string offload_target;  // "-" for pure software
  double total_without_pl = 0.0;
  std::vector<TargetTiming> targets;
  double total_with_pl = 0.0;
  double overall_speedup = 1.0;  // total_without / total_with
};

class LatencyModel {
 public:
  explicit LatencyModel(const CpuModel& cpu = CpuModel{});

  /// Evaluates one architecture under one partition.
  LatencyRow evaluate(const models::NetworkSpec& spec,
                      const Partition& partition) const;

  /// Modeled end-to-end seconds to serve one image under the partition
  /// (Partition::none() for the pure-software PS path).
  double request_seconds(const models::NetworkSpec& spec,
                         const Partition& partition) const;

  /// Modeled seconds to serve a micro-batch of `batch` images. Both the
  /// PS software path and the PL datapath stream one image at a time (the
  /// accelerator holds a single feature map in BRAM), so batch latency is
  /// linear in batch size; the serving runtime's cost-based router uses
  /// this as its service-time estimate.
  double batch_seconds(const models::NetworkSpec& spec,
                       const Partition& partition, int batch) const;

  /// PL seconds for ONE execution of one block of this stage (compute +
  /// fmap round trip).
  double pl_block_seconds(const models::StageSpec& spec,
                          const Partition& partition) const;
  /// Compute-only PL cycles for one block execution.
  static std::uint64_t pl_block_cycles(const models::StageSpec& spec,
                                       int parallelism);

  const CpuModel& cpu() const { return cpu_; }

 private:
  CpuModel cpu_;
};

/// Exponentially-weighted moving average of MEASURED per-request service
/// time — the feedback signal that complements this file's analytical
/// model. The analytical LatencyModel/CpuModel estimate is a construction
/// -time constant; it cannot see cache effects, host contention, or a
/// batch-size mix that differs from its assumptions. A consumer (the
/// cluster's runtime::cost_order() spill ranking) trusts the model while
/// the estimator is cold and switches to the measurement once warm_after
/// completions have been folded in.
///
/// observe() is called by backend worker threads (one call per completed
/// micro-batch: wall seconds / requests); seconds_per_request() by many
/// producer threads at routing time. Both are thread-safe.
class ServiceTimeEwma {
 public:
  /// alpha: weight of the newest sample (0 < alpha <= 1); warm_after:
  /// samples folded before the estimate is trusted (>= 1).
  explicit ServiceTimeEwma(double alpha = 0.2, int warm_after = 3);

  /// Folds one completed micro-batch: `batch_seconds` wall-clock over
  /// `requests` requests. Ignores empty batches and non-positive times.
  void observe(double batch_seconds, int requests);

  /// EWMA of per-request seconds, or 0.0 while cold (fewer than
  /// warm_after samples) — the caller falls back to the analytical
  /// estimate.
  double seconds_per_request() const;

  bool warm() const;
  std::uint64_t samples() const;

  /// Drops all samples, returning to the cold (fall-back-to-model)
  /// state — for operators re-baselining after host conditions change.
  /// The serving engine also resets on weight hot-swap: the first batches
  /// on a new snapshot pay one-off repack/requantize work for the
  /// versioned weight caches, so pre-swap measurements briefly misprice
  /// the backends; falling back to the model until fresh samples arrive
  /// is cheaper than routing on a stale warm estimate.
  void reset();

 private:
  const double alpha_;
  const int warm_after_;
  mutable std::mutex mutex_;
  double value_ = 0.0;
  std::uint64_t samples_ = 0;
};

}  // namespace odenet::sched
