// StageExecutor backend wrapping the simulated PL accelerator.
//
// One FpgaStageExecutor owns one OdeBlockAccelerator sized for one ODE
// stage — the paper's "one dedicated circuit per offloaded layer" — and
// runs the stage image by image (the PL holds a single feature map).
// Construction quantizes the stage's weights into the simulated BRAM and
// switches the stage's software batch norms to on-the-fly statistics so
// that the float reference and the hardware datapath implement the same
// function (the PL has no running statistics).
#pragma once

#include <memory>

#include "fpga/accelerator.hpp"
#include "models/executor.hpp"

namespace odenet::sched {

class FpgaStageExecutor final : public models::StageExecutor {
 public:
  struct Config {
    int parallelism = 16;  // conv_xn
    double clock_mhz = 100.0;
    fpga::AxiConfig axi{};
    int frac_bits = 20;
    /// Version id of the snapshot the stage's weights come from at
    /// construction — stamps weight_version() without a second BRAM
    /// quantization pass. 0 = unversioned (standalone use).
    std::uint64_t snapshot_version = 0;
  };

  /// Builds the accelerator for `stage` and loads its weights. The stage
  /// must be a non-empty ODE stage (the PL implements one weight-shared
  /// block instance).
  FpgaStageExecutor(models::Stage& stage, const Config& cfg);

  const std::string& name() const override { return name_; }
  core::ExecBackend backend() const override {
    return core::ExecBackend::kFpgaSim;
  }

  /// Per-image PL execution of the whole stage (spec().executions Euler
  /// steps on the accelerator, one fmap AXI round trip per execution).
  /// Each image is quantized straight into the accelerator's fmap.in and
  /// dequantized straight into its slice of the result, so a warm run
  /// allocates only the returned tensor.
  /// stats->seconds is the modeled per-image latency share of the batch;
  /// stats->pl_cycles the exact cycles consumed over the batch.
  core::Tensor run(models::Stage& stage, const core::Tensor& x,
                   core::StageRunStats* stats) override;

  /// Hot-swap path: rebuilds the BRAM weight image from the stage's
  /// current (post-apply_snapshot) weights and records the snapshot
  /// version the accelerator now serves. The PL is construction-sized,
  /// not construction-frozen — only geometry is fixed; weights re-sync in
  /// place between batches.
  void requantize(models::Stage& stage, std::uint64_t snapshot_version);

  /// Delta-publish fast path: the published snapshot does not touch this
  /// executor's stage, so the BRAM image is already correct — adopt the
  /// new version id without re-quantizing anything.
  void adopt_version(std::uint64_t snapshot_version) {
    weight_version_ = snapshot_version;
  }

  /// Snapshot version whose weights currently sit in BRAM (stamped at
  /// construction via Config::snapshot_version, updated by requantize();
  /// 0 when unversioned).
  std::uint64_t weight_version() const { return weight_version_; }

  /// Stage this executor's circuit was built for.
  models::StageId stage_id() const { return stage_id_; }

  const fpga::OdeBlockAccelerator& accelerator() const { return *accel_; }
  const Config& config() const { return cfg_; }

 private:
  std::string name_;
  Config cfg_;
  models::StageId stage_id_{};
  std::uint64_t weight_version_ = 0;
  std::unique_ptr<fpga::OdeBlockAccelerator> accel_;
};

}  // namespace odenet::sched
