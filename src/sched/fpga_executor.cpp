#include "sched/fpga_executor.hpp"

namespace odenet::sched {

FpgaStageExecutor::FpgaStageExecutor(models::Stage& stage, const Config& cfg)
    : name_("fpga_sim_x" + std::to_string(cfg.parallelism)),
      cfg_(cfg),
      stage_id_(stage.spec().id),
      weight_version_(cfg.snapshot_version) {
  ODENET_CHECK(!stage.is_empty(), "cannot offload absent stage "
                                      << models::stage_name(stage.spec().id));
  ODENET_CHECK(stage.is_ode(),
               models::stage_name(stage.spec().id)
                   << ": the PL implements one weight-shared block; only "
                      "ODE stages are offloadable");
  const auto& spec = stage.spec();
  accel_ = std::make_unique<fpga::OdeBlockAccelerator>(
      fpga::OdeBlockAccelerator::Config{.channels = spec.out_channels,
                                        .extent = spec.in_size,
                                        .parallelism = cfg.parallelism,
                                        .frac_bits = cfg.frac_bits,
                                        .clock_mhz = cfg.clock_mhz,
                                        .axi = cfg.axi});
  accel_->load_weights(stage.ode()->block());
  // Align the software reference semantics with the hardware BN.
  stage.ode()->block().bn1().set_use_batch_stats_in_eval(true);
  stage.ode()->block().bn2().set_use_batch_stats_in_eval(true);
}

void FpgaStageExecutor::requantize(models::Stage& stage,
                                   std::uint64_t snapshot_version) {
  ODENET_CHECK(stage.spec().id == stage_id_,
               "requantize: executor built for "
                   << models::stage_name(stage_id_) << ", got "
                   << models::stage_name(stage.spec().id));
  accel_->load_weights(stage.ode()->block());
  weight_version_ = snapshot_version;
}

core::Tensor FpgaStageExecutor::run(models::Stage& stage,
                                    const core::Tensor& x,
                                    core::StageRunStats* stats) {
  const auto& spec = stage.spec();
  const auto& pl = accel_->config();
  ODENET_CHECK(x.ndim() == 4 && x.dim(1) == pl.channels &&
                   x.dim(2) == pl.extent && x.dim(3) == pl.extent,
               name_ << ": input " << x.shape_str() << " does not match the "
                     << pl.channels << "x" << pl.extent << "x" << pl.extent
                     << " PL feature map");
  const int batch = x.dim(0);
  // Step size from the stage's time span (h == 1 for the paper's
  // ResNet-compatible span, 1/M for the unit span).
  models::OdeBlock* ode = stage.ode();
  const float h =
      (ode->t1() - ode->t0()) / static_cast<float>(spec.executions);
  // Per-image PL execution: the accelerator owns one feature map; each
  // image is quantized straight into it and dequantized straight into its
  // slice of the output.
  core::Tensor out(x.shape());
  const std::size_t image =
      static_cast<std::size_t>(pl.channels) * pl.extent * pl.extent;
  std::uint64_t cycles = 0;
  for (int b = 0; b < batch; ++b) {
    const std::size_t at = static_cast<std::size_t>(b) * image;
    fpga::AcceleratorReport ar;
    accel_->solve_euler(x.data() + at, spec.executions, h, out.data() + at,
                        &ar);
    cycles += ar.total_cycles();
  }
  if (stats != nullptr) {
    stats->backend = core::ExecBackend::kFpgaSim;
    stats->on_accelerator = true;
    stats->pl_cycles = cycles;
    // Per-image latency: one image's share of the cycles.
    stats->seconds = static_cast<double>(cycles) / (cfg_.clock_mhz * 1e6) /
                     static_cast<double>(batch);
  }
  return out;
}

}  // namespace odenet::sched
