#include "models/executor.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/gemm_kernels.hpp"
#include "core/im2col.hpp"
#include "fixed/fixed_tensor.hpp"
#include "util/stopwatch.hpp"

namespace odenet::models {

double NetworkRunStats::stage_seconds() const {
  double total = 0.0;
  for (const auto& s : stages) total += s.stats.seconds;
  return total;
}

std::uint64_t NetworkRunStats::pl_cycles() const {
  std::uint64_t total = 0;
  for (const auto& s : stages) total += s.stats.pl_cycles;
  return total;
}

core::Tensor FloatStageExecutor::run(Stage& stage, const core::Tensor& x,
                                     core::StageRunStats* stats) {
  util::Stopwatch watch;
  core::Tensor out = stage.forward(x);
  if (stats != nullptr) {
    stats->backend = core::ExecBackend::kFloat;
    stats->on_accelerator = false;
    stats->pl_cycles = 0;
    stats->seconds = watch.seconds();
  }
  return out;
}

FixedStageExecutor::FixedStageExecutor(int frac_bits)
    : name_("fixed_cpu_q" + std::to_string(frac_bits)),
      frac_bits_(frac_bits) {}

const core::FixedPackedWeights& FixedStageExecutor::packed_weights(
    core::Conv2d& conv, const core::LoweringGeometry& g, bool pair_major) {
  // A hot-swap re-stamps the conv's weight version and the mismatch
  // triggers one requantize + repack; version 0 (unversioned weights)
  // rebuilds per call into the same recycled storage. A pack built for
  // another frac_bits sits on another Q grid, and one in the other k
  // order suits the other lowering, so either is rebuilt too.
  core::FixedPackedWeights& pack = conv.fixed_pack();
  if (conv.pack_current(pack.version) && pack.frac_bits == frac_bits_ &&
      pack.pair_major == pair_major) {
    return pack;
  }
  const core::Tensor& wt = conv.weight().value;
  const int co = conv.config().out_channels;
  const int kk = static_cast<int>(wt.numel()) / co;
  pack.i16_ok = false;
  // Per-conv int16 weight scale fw, chosen so the integer datapath is
  // HARD overflow-free: (a) no weight saturates — max|w|*2^fw <= 32767
  // keeps |w_q| <= 32767, so no int16 product pair can wrap a madd
  // lane; (b) the accumulator envelope — sum_k |w_q| <= 65535 bounds
  // |acc| <= 65535 * 32768 < 2^31 for ANY int16 activations. The L1
  // bound uses the worst row plus the per-tap rounding slack.
  double max_abs = 0.0, max_l1 = 0.0;
  for (int r = 0; r < co; ++r) {
    const float* row = wt.data() + static_cast<std::size_t>(r) * kk;
    double l1 = 0.0;
    for (int p = 0; p < kk; ++p) {
      const double a = std::fabs(static_cast<double>(row[p]));
      l1 += a;
      if (a > max_abs) max_abs = a;
    }
    if (l1 > max_l1) max_l1 = l1;
  }
  int fw = kWeightFracMax;
  while (fw > 0 &&
         max_abs * static_cast<double>(std::int64_t{1} << fw) > 32767.0) {
    --fw;
  }
  while (fw > 0 &&
         max_l1 * static_cast<double>(std::int64_t{1} << fw) +
                 0.5 * kk + 1.0 >
             65535.0) {
    --fw;
  }
  // The requantization shift fa+fw-frac_bits must be >= 0 even at the
  // finest activation grid; weights too large (or a frac_bits too fine)
  // fall back to the float carrier.
  if (fw > 0 && fw >= frac_bits_ - kActFracMax && frac_bits_ < 31) {
    pack.i16_ok = true;
    pack.weight_frac_bits = fw;
    static thread_local std::vector<std::int16_t> wq;
    wq.resize(wt.numel());
    fixed::quantize_i16(wt.data(), wq.data(), wt.numel(), fw);
    if (pair_major) {
      core::pack_gemm_a_i16_pairs(wq.data(), co, g,
                                  conv.config().time_channel, pack.packed16);
    } else {
      core::pack_gemm_a_i16(wq.data(), co, kk, pack.packed16);
    }
  }
  // The float-carrier weights are always built: they back the per-call
  // fallback when a call's activation range leaves no valid
  // requantization shift.
  static thread_local std::vector<float> wv;
  wv.resize(wt.numel());
  for (std::size_t i = 0; i < wt.numel(); ++i) {
    wv[i] = fixed::qdq_value(wt.data()[i], frac_bits_);
  }
  core::pack_gemm_a(wv.data(), co, kk, pack.packed);
  pack.version = conv.weight_version();
  pack.frac_bits = frac_bits_;
  pack.pair_major = pair_major;
  ++weight_packs_;
  return pack;
}

core::Tensor FixedStageExecutor::fixed_conv(core::Conv2d& conv,
                                            const core::Tensor& x, float t) {
  const core::Conv2dConfig& cfg = conv.config();
  const int n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  ODENET_CHECK(c == cfg.in_channels,
               conv.name() << ": fixed conv expected " << cfg.in_channels
                           << " channels, got " << c);
  const core::LoweringGeometry g = conv.lowering(h, w);
  const int co = cfg.out_channels;
  const std::size_t ncols = g.col_cols() * static_cast<std::size_t>(n);
  // Every conv the f32 path lowers implicitly (stride-1 "same", a plane
  // of whole 16-column tiles) lowers implicitly here too, from
  // channel-pair planes; the rest (the stride-2 downsampling convs) keep
  // the explicit int16 column matrix.
  const bool implicit = core::gemm_implicit_lowering_ok(g, co);

  const core::FixedPackedWeights& pack = packed_weights(conv, g, implicit);

  // The time VALUE sits on the Q grid (the hardware folds t into a bias
  // plane at the same precision).
  const float tq = cfg.time_channel ? fixed::qdq_value(t, frac_bits_) : 0.0f;
  core::Tensor out({n, co, g.out_h(), g.out_w()});
  // Dynamic activation scale for this call: the finest Q(fa) grid whose
  // rounded values cannot saturate int16 for the observed range of the
  // input and its time plane (ODE stages legitimately push activations
  // past +-8 as the Euler sweep accumulates, so a fixed fa would clip
  // them). The scan is exact and order-independent, so the scale — and
  // everything downstream — is deterministic for any ISA or worker count.
  int fa = -1;
  if (pack.i16_ok) {
    const float mx =
        std::max(fixed::max_abs(x.data(), x.numel()), std::fabs(tq));
    if (std::isfinite(mx)) {
      fa = kActFracMax;
      while (fa > 0 &&
             static_cast<double>(mx) *
                     static_cast<double>(std::int64_t{1} << fa) >
                 32766.5) {
        --fa;
      }
      // Range beyond int16 even at fa=1, or no valid rounding shift at
      // this range -> float carrier for this call.
      if (fa < 1 || fa + pack.weight_frac_bits < frac_bits_) fa = -1;
    }
  }
  if (fa >= 0) {
    // Integer path: quantize the input into int16 at Q(fa) in one call and
    // the time value into one plane every sample shares; lower the int16
    // image — implicitly inside the GEMM's panel fill from channel-pair
    // planes, or into a column matrix — run the integer GEMM into NCHW
    // int32 accumulators, and requantize via ONE rounding shift straight
    // into the Q(frac_bits) output — no per-element float qdq afterwards
    // (the shift output is exactly grid-aligned by construction).
    const std::size_t plane = static_cast<std::size_t>(h) * w;
    const std::size_t time_elems = cfg.time_channel ? plane : 0;
    std::int16_t tq16 = 0;
    if (cfg.time_channel) fixed::quantize_i16(&tq, &tq16, 1, fa);
    acc_scratch_.resize(out.numel());
    if (implicit) {
      const std::size_t data_pairs =
          static_cast<std::size_t>(n) * ((c + 1) / 2) * plane;
      pair_scratch_.resize(data_pairs + time_elems);
      core::I16Pair* xp = pair_scratch_.data();
      core::I16Pair* tplane = xp + data_pairs;
      fixed::quantize_i16_pairs(x.data(), n, c, plane, xp, fa);
      // The time channel alone in its pair plane, beside a zero hi lane.
      std::fill_n(tplane, time_elems, core::I16Pair{tq16, 0});
      core::gemm_i16_pairs_lowered(pack.packed16, xp, g, n,
                                   acc_scratch_.data(),
                                   cfg.time_channel ? tplane : nullptr);
    } else {
      i16_scratch_.resize(x.numel() + time_elems + g.col_rows() * ncols);
      std::int16_t* xq = i16_scratch_.data();
      std::int16_t* tplane = xq + x.numel();
      std::int16_t* cols = tplane + time_elems;
      fixed::quantize_i16(x.data(), xq, x.numel(), fa);
      std::fill_n(tplane, time_elems, tq16);
      core::im2col_batched_i16(xq, g, n, cols,
                               cfg.time_channel ? tplane : nullptr);
      core::gemm_i16_tiled_pa(pack.packed16, cols, acc_scratch_.data(),
                              static_cast<int>(ncols), /*accumulate=*/false,
                              n);
    }
    fixed::requantize_i32(acc_scratch_.data(), out.data(), out.numel(),
                          fa + pack.weight_frac_bits - frac_bits_,
                          frac_bits_);
    return out;
  }
  // Float-carrier fallback (a conv that fails the int16 envelope, or a
  // call whose activation range leaves no valid requantization shift):
  // the conv's own lowered GEMM on the Q-grid weights and time value,
  // then one elementwise requantization — the accumulator ran at full
  // precision, the output map re-enters the Q-grid datapath once.
  ++float_carrier_calls_;
  conv.run(x, tq, pack.packed, core::ConvEpilogue{}, out,
           /*accumulate=*/false);
  fixed::qdq_inplace(out, frac_bits_);
  return out;
}

core::Tensor FixedStageExecutor::run_block(core::BuildingBlock& block,
                                           const core::Tensor& x, float t,
                                           bool branch_only) {
  const core::BlockConfig& cfg = block.config();
  core::Tensor hmap = fixed_conv(block.conv1(), x, t);
  hmap = block.bn1().forward(hmap);
  fixed::qdq_inplace(hmap, frac_bits_);
  // ReLU keeps the Q grid. qdq_inplace emits no NaN and no -0, on which
  // alone the kernel's max(x, 0) differs from a plain x < 0 test.
  core::active_gemm_kernels().relu_f32(hmap.data(), hmap.data(),
                                       hmap.numel());
  hmap = fixed_conv(block.conv2(), hmap, t);
  hmap = block.bn2().forward(hmap);
  fixed::qdq_inplace(hmap, frac_bits_);
  if (!branch_only) {
    hmap.add(core::BuildingBlock::shortcut(x, cfg.stride, cfg.out_channels));
    fixed::qdq_inplace(hmap, frac_bits_);
  }
  return hmap;
}

core::Tensor FixedStageExecutor::run(Stage& stage, const core::Tensor& x,
                                     core::StageRunStats* stats) {
  ODENET_CHECK(!stage.is_empty(),
               stage.name() << ": fixed executor on removed stage");
  util::Stopwatch watch;
  // The stage input snapped to the Q grid, the precision a fixed-point
  // datapath keeps between stages.
  core::Tensor z = x;
  fixed::qdq_inplace(z, frac_bits_);
  if (stage.is_ode()) {
    // Explicit Euler with the activation quantized after every update —
    // the same step scheme the PL implements (accelerator solve_euler).
    OdeBlock* ode = stage.ode();
    const int steps = ode->config().executions;
    const float h = (ode->t1() - ode->t0()) / static_cast<float>(steps);
    float t = ode->t0();
    for (int k = 0; k < steps; ++k) {
      core::Tensor f = run_block(ode->block(), z, t, /*branch_only=*/true);
      z.axpy(h, f);
      fixed::qdq_inplace(z, frac_bits_);
      t += h;
    }
  } else {
    for (auto& block : stage.blocks()) {
      z = run_block(*block, z, /*t=*/0.0f, /*branch_only=*/false);
    }
  }
  if (stats != nullptr) {
    stats->backend = core::ExecBackend::kFixed;
    stats->on_accelerator = false;
    stats->pl_cycles = 0;
    stats->seconds = watch.seconds();
  }
  return z;
}

}  // namespace odenet::models
