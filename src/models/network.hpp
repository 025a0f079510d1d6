// Full network assembly (paper Figure 2 / Table 2):
//   conv1 (3x3 conv + BN + ReLU) -> layer1 -> layer2_1 -> layer2_2
//   -> layer3_1 -> layer3_2 -> global average pool -> fc (+softmax outside).
#pragma once

#include <iosfwd>
#include <memory>

#include "core/activation.hpp"
#include "core/batchnorm.hpp"
#include "core/conv2d.hpp"
#include "core/linear.hpp"
#include "core/pooling.hpp"
#include "models/executor.hpp"
#include "models/stage.hpp"
#include "util/rng.hpp"

namespace odenet::models {

class ModelSnapshot;

class Network final : public core::Layer {
 public:
  Network(const NetworkSpec& spec, const SolverConfig& solver_cfg = {});

  /// Moving a network re-points every conv at the moved-to scratch arena
  /// (the arena's heap buffer travels with the move, but the convs hold a
  /// pointer to the arena *object*, which does not). Copying is disabled —
  /// build a second Network from the spec and load_weights instead.
  Network(Network&& other) noexcept;
  Network& operator=(Network&&) = delete;
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  const std::string& name() const override { return name_; }
  /// x: [N, in_ch, S, S] -> logits [N, classes]. Routes every stage through
  /// the built-in float executor (an empty StagePlan).
  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_logits) override;
  std::vector<core::Param*> params() override;
  void set_training(bool training) override;

  /// Full forward pass with per-stage backend routing: stem -> stages (per
  /// `plan`) -> head. Stages the plan does not cover fall back to the
  /// built-in float executor. Backward is only valid after an all-float
  /// pass (the other backends keep no gradient caches).
  Tensor forward_with(const Tensor& x, const StagePlan& plan,
                      NetworkRunStats* stats = nullptr);

  /// THE per-stage dispatch loop: runs every non-empty stage through the
  /// plan's executor for it. `h` is the stem output. Exposed so callers
  /// stacked on stem/head pieces (the serving runtime) share one loop
  /// instead of reimplementing it.
  Tensor forward_stages(Tensor h, const StagePlan& plan,
                        NetworkRunStats* stats = nullptr);

  /// He/Xavier initialization of every trainable tensor.
  void init(util::Rng& rng);

  /// Top-1 class predictions for a batch, optionally through a plan.
  std::vector<int> predict(const Tensor& x, const StagePlan* plan = nullptr);

  const NetworkSpec& spec() const { return spec_; }
  const SolverConfig& solver_config() const { return solver_cfg_; }
  std::vector<std::unique_ptr<Stage>>& stages() { return stages_; }
  Stage* stage(StageId id);

  /// Applies fn to every convolution of the network (stem + every block of
  /// every stage) — the walk behind arena wiring and weight stamping.
  void for_each_conv(const std::function<void(core::Conv2d&)>& fn);

  /// Applies fn to every batch norm (stem + both BNs of every block of
  /// every stage), in the fixed walk order snapshots and checkpoints rely
  /// on.
  void for_each_batchnorm(const std::function<void(core::BatchNorm2d&)>& fn);

  /// Stamps a snapshot version on every packed-weight-caching layer (all
  /// convs). apply_snapshot() does this for you; 0 un-stamps (the
  /// weights are about to be mutated in place, e.g. by an optimizer
  /// step), which makes each layer rebuild its packed view per call.
  void set_weight_version(std::uint64_t version);

  /// Selective stamp: re-versions only the packed-weight-caching layers
  /// whose name `changed` approves, leaving the others' stamps (and thus
  /// their packed caches) intact. The delta-apply path uses this so a
  /// head-only publish does not force every trunk conv to repack.
  void set_weight_version_where(
      std::uint64_t version,
      const std::function<bool(const std::string& layer_name)>& changed);

  /// The network-owned arena every conv's lowering draws from, so
  /// replicas and trainers recycle one buffer across every conv call.
  /// Capacity/growth counters show scratch reuse.
  const core::ScratchArena& scratch_arena() const { return arena_; }

  /// Pieces of the forward pass, exposed so a caller that drives the
  /// stages itself (forward_stages with its own plan, per-stage timing)
  /// can run the network's stem and head around them.
  Tensor stem_forward(const Tensor& x);
  Tensor head_forward(const Tensor& features);

  /// Freezes the current weights + BN statistics into an immutable,
  /// versioned ModelSnapshot — the unit every consumer (engine replicas,
  /// accelerator BRAM images, checkpoints) shares instead of holding a
  /// private frozen copy. See models/snapshot.hpp.
  std::shared_ptr<const ModelSnapshot> export_snapshot();

  /// Overwrites every parameter and BN statistic from a snapshot (a
  /// delta-only apply is ModelSnapshot::apply with the version this
  /// network carries); throws odenet::Error when the snapshot does not
  /// fit this architecture.
  void apply_snapshot(const ModelSnapshot& snapshot);

  /// Checkpoint I/O — thin wrappers over export_snapshot()/apply_snapshot()
  /// (binary format v2, see util/serialize.hpp).
  void save_weights(std::ostream& os);
  void load_weights(std::istream& is);

 private:
  NetworkSpec spec_;
  SolverConfig solver_cfg_;
  std::string name_;
  FloatStageExecutor float_exec_;  // fallback for unplanned stages
  core::ScratchArena arena_;  // conv-lowering scratch (recycled)
  core::Conv2d stem_conv_;
  core::BatchNorm2d stem_bn_;
  core::ReLU stem_relu_;
  std::vector<std::unique_ptr<Stage>> stages_;
  core::GlobalAvgPool gap_;
  core::Linear fc_;
};

}  // namespace odenet::models
