// Training loop driving Network + Sgd over DataLoaders, with the paper's
// schedule as the default configuration.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>

#include "data/dataloader.hpp"
#include "models/network.hpp"
#include "models/registry.hpp"
#include "models/snapshot.hpp"
#include "train/metrics.hpp"
#include "train/sgd.hpp"

namespace odenet::train {

struct EpochStats {
  int epoch = 0;
  double train_loss = 0.0;
  double train_accuracy = 0.0;
  double test_accuracy = 0.0;
  double learning_rate = 0.0;
  double seconds = 0.0;
  /// Conv-lowering scratch after the epoch: capacity of the network's
  /// recycled arena (floats) and how often it actually grew. Growth stops
  /// after the first steps of the first epoch — the batched conv path
  /// allocates nothing in the steady-state training loop.
  std::size_t scratch_floats = 0;
  std::uint64_t scratch_growths = 0;
  /// Version id of the snapshot published after this epoch (0 when none
  /// was — see TrainerConfig::snapshot_every).
  std::uint64_t model_version = 0;
};

struct TrainerConfig {
  int epochs = 200;
  SgdConfig sgd{};
  LrSchedule schedule{};
  /// Called after every epoch (progress reporting); may be empty.
  std::function<void(const EpochStats&)> on_epoch;
  /// Backend routing for evaluation passes (not owned; must outlive the
  /// trainer). Null means the network's built-in float executor. Training
  /// itself always runs the float path — the other backends keep no
  /// gradient caches — so this quantifies e.g. quantized-eval accuracy
  /// while the float weights train.
  const models::StagePlan* eval_plan = nullptr;
  /// Continuous-serving feed: every `snapshot_every` epochs (and after the
  /// final epoch) fit() freezes the live weights into a versioned
  /// ModelSnapshot and hands it to on_snapshot — typically a closure
  /// calling runtime::InferenceEngine::reload() so a deployed engine
  /// tracks the training run. 0 disables publishing.
  int snapshot_every = 0;
  std::function<void(models::ModelSnapshot::Ptr)> on_snapshot;
  /// Registry-backed publishing (not owned; must outlive the trainer).
  /// When set, publish_snapshot() also publishes every frozen snapshot
  /// into the registry under `registry_model` — subscribed engines pick
  /// it up through the registry's activation callback, and the
  /// registry's accuracy gate applies (a refused publish logs and keeps
  /// training; on_snapshot still sees the raw snapshot either way).
  models::SnapshotRegistry* registry = nullptr;
  std::string registry_model = "default";
};

class Trainer {
 public:
  Trainer(models::Network& net, const TrainerConfig& cfg);

  /// One pass over the loader; returns (mean loss, accuracy).
  EpochStats train_epoch(data::DataLoader& loader, int epoch);

  /// Eval-mode top-1 accuracy over a loader.
  double evaluate(data::DataLoader& loader);

  /// Full schedule; returns per-epoch history. Publishes snapshots per
  /// TrainerConfig::snapshot_every.
  std::vector<EpochStats> fit(data::DataLoader& train_loader,
                              data::DataLoader& test_loader);

  /// Freezes the current weights, publishes into the configured registry
  /// (delta against the previous base when possible) and hands the
  /// snapshot to on_snapshot (when set). Returns the snapshot (fit()
  /// calls this on schedule; it can also be driven manually between
  /// train_epoch calls).
  models::ModelSnapshot::Ptr publish_snapshot();

  Sgd& optimizer() { return sgd_; }

  /// Accounting of the last registry publish (accepted or refused);
  /// version 0 before the first one.
  const models::SnapshotRegistry::PublishResult& last_publish() const {
    return last_publish_;
  }

 private:
  models::Network& net_;
  TrainerConfig cfg_;
  Sgd sgd_;
  /// Base of the next delta publish: the last snapshot the registry
  /// accepted from this trainer.
  models::ModelSnapshot::Ptr last_published_;
  models::SnapshotRegistry::PublishResult last_publish_;
};

}  // namespace odenet::train
