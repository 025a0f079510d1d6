#include "fpga/accelerator.hpp"

namespace odenet::fpga {

OdeBlockAccelerator::OdeBlockAccelerator(const Config& cfg,
                                         const FpgaDevice& device)
    : cfg_(cfg),
      conv1_({.in_channels = cfg.channels,
              .out_channels = cfg.channels,
              .extent = cfg.extent,
              .parallelism = cfg.parallelism,
              .frac_bits = cfg.frac_bits}),
      bn1_({.channels = cfg.channels,
            .extent = cfg.extent,
            .frac_bits = cfg.frac_bits,
            .fused_relu = true}),
      conv2_({.in_channels = cfg.channels,
              .out_channels = cfg.channels,
              .extent = cfg.extent,
              .parallelism = cfg.parallelism,
              .frac_bits = cfg.frac_bits}),
      bn2_({.channels = cfg.channels,
            .extent = cfg.extent,
            .frac_bits = cfg.frac_bits,
            .fused_relu = false}),
      bram_(device) {
  ODENET_CHECK(!cfg.enforce_timing ||
                   meets_timing(cfg.parallelism, cfg.clock_mhz),
               "conv_x" << cfg.parallelism << " fails timing closure at "
                        << cfg.clock_mhz << " MHz on " << device.part
                        << " (paper §3.1; lower the clock or parallelism)");

  // BRAM plan: weight banks (one per MAC unit, per conv), three fmap
  // buffers (in, mid, out), BN parameter store.
  const std::size_t wwords =
      static_cast<std::size_t>(cfg.channels) * cfg.channels * 9;
  const int bits = cfg.frac_bits >= 16 ? 32 : 16;
  bram_.allocate("conv1.weights", wwords, cfg.parallelism, bits);
  bram_.allocate("conv2.weights", wwords, cfg.parallelism, bits);
  const std::size_t fwords =
      static_cast<std::size_t>(cfg.channels) * cfg.extent * cfg.extent;
  bram_.allocate("fmap.in", fwords, 1, 32);
  bram_.allocate("fmap.mid", fwords, 1, 32);
  bram_.allocate("fmap.out", fwords, 1, 32);
  bram_.allocate("bn.params", static_cast<std::size_t>(4) * cfg.channels, 1,
                 32);
  fmap_in_.resize(fwords);
  fmap_mid_.resize(fwords);
  fmap_out_.resize(fwords);
}

void OdeBlockAccelerator::load_weights(core::BuildingBlock& block) {
  ODENET_CHECK(block.config().in_channels == cfg_.channels &&
                   block.config().out_channels == cfg_.channels &&
                   block.config().stride == 1,
               "accelerator: block geometry mismatch");
  conv1_.load_weights(
      fixed::quantize(block.conv1().weight().value, cfg_.frac_bits));
  conv2_.load_weights(
      fixed::quantize(block.conv2().weight().value, cfg_.frac_bits));
  bn1_.load_params(fixed::quantize(block.bn1().gamma().value, cfg_.frac_bits),
                   fixed::quantize(block.bn1().beta().value, cfg_.frac_bits));
  bn2_.load_params(fixed::quantize(block.bn2().gamma().value, cfg_.frac_bits),
                   fixed::quantize(block.bn2().beta().value, cfg_.frac_bits));
  weights_loaded_ = true;
}

void OdeBlockAccelerator::check_fmap(const core::Tensor& z) const {
  const bool batched = z.ndim() == 4;
  if (batched) {
    ODENET_CHECK(z.dim(0) == 1, "accelerator processes one image at a time");
  }
  const int lead = batched ? 1 : 0;
  ODENET_CHECK(z.ndim() == 3 + lead && z.dim(lead) == cfg_.channels &&
                   z.dim(lead + 1) == cfg_.extent &&
                   z.dim(lead + 2) == cfg_.extent,
               "accelerator input shape mismatch: " << z.shape_str());
}

void OdeBlockAccelerator::branch(float t, const fixed::Q20* euler_h) {
  conv1_.run(fmap_in_.data(), t, fmap_mid_.data());
  bn1_.run(fmap_mid_.data(), fmap_out_.data());
  conv2_.run(fmap_out_.data(), t, fmap_mid_.data());
  bn2_.run(fmap_mid_.data(),
           euler_h != nullptr ? fmap_in_.data() : fmap_out_.data(), euler_h);
}

core::Tensor OdeBlockAccelerator::eval_branch(const core::Tensor& z, float t,
                                              CycleBreakdown* cycles) {
  ODENET_CHECK(weights_loaded_, "accelerator: weights not loaded");
  check_fmap(z);
  fixed::quantize(z.data(), fmap_in_.data(), fmap_words(), cfg_.frac_bits);
  branch(t, nullptr);
  if (cycles != nullptr) *cycles = cycles_per_execution();
  core::Tensor out(z.shape());
  fixed::dequantize(fmap_out_.data(), out.data(), fmap_words(),
                    cfg_.frac_bits);
  return out;
}

core::Tensor OdeBlockAccelerator::solve_euler(const core::Tensor& z0,
                                              int steps, float h,
                                              AcceleratorReport* report) {
  check_fmap(z0);
  core::Tensor out(z0.shape());
  solve_euler(z0.data(), steps, h, out.data(), report);
  return out;
}

void OdeBlockAccelerator::solve_euler(const float* z0, int steps, float h,
                                      float* z1, AcceleratorReport* report) {
  ODENET_CHECK(weights_loaded_, "accelerator: weights not loaded");
  ODENET_CHECK(steps >= 1, "solve_euler needs steps >= 1");
  fixed::quantize(z0, fmap_in_.data(), fmap_words(), cfg_.frac_bits);
  const fixed::Q20 h_fixed = fixed::Q20::from_float(h);
  for (int i = 0; i < steps; ++i) {
    branch(h * static_cast<float>(i), &h_fixed);
  }
  fixed::dequantize(fmap_in_.data(), z1, fmap_words(), cfg_.frac_bits);

  if (report != nullptr) {
    report->per_execution = cycles_per_execution();
    report->transfer_cycles_per_execution = transfer_cycles_per_execution();
    report->executions = steps;
    report->clock_mhz = cfg_.clock_mhz;
  }
}

CycleBreakdown OdeBlockAccelerator::cycles_per_execution() const {
  CycleBreakdown c;
  c.conv1 = conv1_.cycles_per_run();
  c.bn1 = bn1_.cycles_per_run();
  c.conv2 = conv2_.cycles_per_run();
  c.bn2 = bn2_.cycles_per_run();
  return c;
}

std::uint64_t OdeBlockAccelerator::transfer_cycles_per_execution() const {
  const std::size_t fwords =
      static_cast<std::size_t>(cfg_.channels) * cfg_.extent * cfg_.extent;
  return roundtrip_cycles(fwords, fwords, cfg_.axi);
}

}  // namespace odenet::fpga
