// 3x3 (general KxK) 2-D convolution with optional concatenated time channel.
//
// The paper's ODE-capable blocks follow the reference Neural-ODE design in
// which the scalar integration time t is concatenated to the input as one
// constant feature plane before each convolution (ConcatConv2d). This is
// what makes layer1/layer2_2/layer3_2 parameter sizes in Table 2 come out to
// 19.84 / 76.544 / 300.544 kB: weights are Cout x (Cin+1) x 3 x 3. The
// concatenated input is never built: the lowering (core/im2col.hpp) reads
// the time channel's K*K GEMM rows from one plane of t that every sample
// of the batch shares.
//
// Convolutions carry no bias (matching the paper's byte-exact parameter
// accounting); biasing is delegated to the following batch norm.
//
// There is one software algorithm, Conv2d::run: the whole micro-batch
// lowers — implicitly inside the GEMM's panel fill when the geometry
// allows, into one column matrix (im2col_batched) otherwise — and runs
// through a single register-blocked GEMM whose tiles store straight into
// the NCHW output, with every scratch buffer served from a recycled
// ScratchArena — no allocation after the first call. forward(),
// forward_fused() and the fixed backend's float carrier all call it.
// Training caches x and the t it ran at (Conv2d::Cache, which an ODE block
// swaps in and out per recorded evaluation). backward() lowers them again
// for dW — one batched column matrix and one GEMM — and computes dX one
// sample at a time: W^T's data-channel rows (t is not trained, so the
// time channel's rows are never computed) times the sample's [Cout, H*W]
// block of grad_out, read straight from NCHW, scattered by col2im while
// that one-sample column block is still in cache.
#pragma once

#include <cstdint>
#include <utility>

#include "core/arena.hpp"
#include "core/gemm_kernels.hpp"
#include "core/im2col.hpp"
#include "core/layer.hpp"

namespace odenet::core {

struct Conv2dConfig {
  int in_channels = 0;
  int out_channels = 0;
  int kernel = 3;
  int stride = 1;
  int pad = 1;
  /// When true the layer consumes in_channels data planes plus one implicit
  /// plane filled with the current time value (set via set_time()).
  bool time_channel = false;
};

/// A conv's weights on a Q(frac_bits) grid, packed for both fixed-point
/// GEMMs: int16 panels at a per-conv weight scale Q(fw) for the integer
/// datapath, and Q-grid float panels for its float-carrier fallback.
/// The int16 panels are pair-major (pack_gemm_a_i16_pairs) for a conv
/// whose input lowers implicitly from channel-pair planes, in the natural
/// k order otherwise (pack_gemm_a_i16).
/// models::FixedStageExecutor builds it; see Conv2d::fixed_pack().
struct FixedPackedWeights {
  std::uint64_t version = 0;   // weight version it was built from
  int frac_bits = 0;           // Q grid it was built for
  bool pair_major = false;     // packed16's k order
  bool i16_ok = false;         // int16 envelope holds at frac_bits
  int weight_frac_bits = 0;    // fw: the int16 weights are Q(fw)
  PackedGemmA16 packed16;      // integer path
  PackedGemmA packed;          // Q-grid float weights (fallback)
};

/// Per-out-channel epilogue a fused eval-mode forward applies inside the
/// GEMM (see GemmEpilogue): y[c] = relu?(conv[c] * scale[c] + shift[c]).
/// scale/shift point at [out_channels] coefficient vectors (a folded
/// BatchNorm2d) and must stay alive for the duration of the call.
struct ConvEpilogue {
  const float* scale = nullptr;
  const float* shift = nullptr;
  bool relu = false;
};

class Conv2d final : public Layer {
 public:
  explicit Conv2d(const Conv2dConfig& cfg, std::string name = "conv");

  const std::string& name() const override { return name_; }
  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  void release_cache() override { cache_ = Cache(); }
  std::vector<Param*> params() override { return {&weight_}; }

  /// What backward() reads, cached by a training forward: x itself and
  /// the t the forward ran at.
  struct Cache {
    Tensor input;
    float time = 0.0f;
  };
  /// Exchanges the cache with `c` (moves, no copy).
  void swap_cache(Cache& c) { std::swap(cache_, c); }

  /// Eval-mode fused forward: run() with this conv's weights and time —
  /// ep(conv(x)), the folded BN affine and ReLU applied in the output tile.
  /// Only valid in eval mode — training keeps the unfused forward() and
  /// its autograd caches.
  void forward_fused(const Tensor& x, const ConvEpilogue& ep, Tensor& out,
                     bool accumulate);

  /// The one lowered convolution: one GEMM with `weights` (this conv's
  /// [Cout, Cin(+1)*K*K] weight view, packed — its own, or the fixed
  /// backend's Q-grid copy) computes ep(conv(x)) with the time channel
  /// at t, and either overwrites `out` (accumulate = false; reallocated
  /// on shape mismatch) or accumulates into it (accumulate = true:
  /// out += ep(conv(x)), the Euler state update; `out` must already have
  /// the output shape). Every tile lands in NCHW `out` directly. The time
  /// channel's one plane of t lives in arena scratch, so in eval mode the
  /// call allocates nothing after warmup. In training mode x and t are
  /// cached for backward(). x must not alias out.
  void run(const Tensor& x, float t, const PackedGemmA& weights,
           const ConvEpilogue& ep, Tensor& out, bool accumulate);

  /// The lowering of an HxW input: in_channels (+1 for the time channel,
  /// its last) channels of this conv's kernel, stride and pad. Its
  /// col_rows() is the packed weights' depth.
  LoweringGeometry lowering(int h, int w) const;

  /// Integration time of the time channel for forward() and
  /// forward_fused(); only meaningful when cfg.time_channel is set.
  void set_time(float t) { time_ = t; }

  const Conv2dConfig& config() const { return cfg_; }
  Param& weight() { return weight_; }

  /// Points the lowering scratch at an external arena (not owned; must
  /// outlive the layer or be reset). nullptr restores the layer-owned
  /// arena. One arena serves one execution context: sharing an arena
  /// between layers of one network is safe (calls are sequential and each
  /// call re-frames it); sharing across threads is not.
  void set_arena(ScratchArena* arena) { arena_ = arena; }

  /// The arena the lowering currently draws from (for tests/telemetry).
  const ScratchArena& scratch_arena() const {
    return arena_ != nullptr ? *arena_ : own_arena_;
  }

  /// Snapshot version stamped on the current weights (see
  /// models::ModelSnapshot). 0 means "unversioned": the weights may be
  /// mutated between calls (training, manual writes), so every packed
  /// view is rebuilt each call into recycled storage. A non-zero version
  /// keys the packs this conv holds — serving replicas pack each conv
  /// once per hot-swap. Callers that mutate weight().value in place must
  /// re-stamp (the trainer stamps 0).
  std::uint64_t weight_version() const { return weight_version_; }
  void set_weight_version(std::uint64_t version) {
    weight_version_ = version;
  }

  /// The one reuse rule of every pack this conv holds: a pack built from
  /// weight version `packed_version` is current when the weights carry a
  /// non-zero version equal to it.
  bool pack_current(std::uint64_t packed_version) const {
    return weight_version_ != 0 && packed_version == weight_version_;
  }

  /// Times the forward path (re)packed the float weight matrix — the
  /// cache observable the packing tests pin down.
  std::uint64_t weight_packs() const { return weight_packs_; }

  /// The fixed-point pack of these weights. A fixed-point executor
  /// (models::FixedStageExecutor) quantizes and fills it, and rebuilds it
  /// unless pack_current(version) holds and it was built for the
  /// executor's frac_bits; the conv only holds it, so a replica's packs
  /// live and die with the replica.
  FixedPackedWeights& fixed_pack() { return fixed_pack_; }

  /// Output spatial size for an input of extent `in` (same formula for H/W).
  static int out_extent(int in, int kernel, int stride, int pad);

  /// MAC count for one forward pass over a HxW input (excluding the time
  /// channel, which hardware folds into a bias plane — see DESIGN.md §3.2).
  std::uint64_t mac_count(int in_h, int in_w) const;

 private:
  /// The time channel's [plane] of t, allocated from the arena's current
  /// frame; nullptr for a conv without a time channel.
  const float* time_plane(ScratchArena& arena, std::size_t plane,
                          float t) const;

  ScratchArena& active_arena() {
    return arena_ != nullptr ? *arena_ : own_arena_;
  }

  /// The [Cout, Cin*K*K] weight view packed for the tiled GEMM; cache hit
  /// when a non-zero weight version matches the packed one.
  const PackedGemmA& packed_weights();

  Conv2dConfig cfg_;
  std::string name_;
  Param weight_;  // [Cout, Cin(+1), K, K]
  float time_ = 0.0f;
  Cache cache_;  // training: the forward's x and t
  ScratchArena own_arena_;        // fallback scratch for standalone layers
  ScratchArena* arena_ = nullptr;  // external scratch (not owned)
  // Packed weights (owning their storage, so moving the layer — or the
  // Network that holds it — cannot leave a pack pointing at freed
  // weights). A version of 0 never matches, so an unbuilt pack is stale.
  PackedGemmA packed_weight_;
  std::uint64_t weight_version_ = 0;
  std::uint64_t packed_version_ = 0;
  std::uint64_t weight_packs_ = 0;
  FixedPackedWeights fixed_pack_;
};

}  // namespace odenet::core
