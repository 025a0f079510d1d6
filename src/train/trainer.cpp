#include "train/trainer.hpp"

#include <cmath>

#include "core/softmax.hpp"
#include "util/logging.hpp"
#include "util/stopwatch.hpp"

namespace odenet::train {

Trainer::Trainer(models::Network& net, const TrainerConfig& cfg)
    : net_(net), cfg_(cfg), sgd_(net.params(), cfg.sgd) {}

EpochStats Trainer::train_epoch(data::DataLoader& loader, int epoch) {
  util::Stopwatch watch;
  net_.set_training(true);
  sgd_.set_learning_rate(cfg_.schedule.lr_at(epoch));

  core::SoftmaxCrossEntropy criterion;
  RunningMean loss_mean;
  RunningMean acc_mean;

  loader.reset();
  while (loader.has_next()) {
    data::Batch batch = loader.next();
    sgd_.zero_grads();
    core::Tensor logits = net_.forward(batch.images);
    const float loss = criterion.loss(logits, batch.labels);
    ODENET_CHECK(std::isfinite(loss),
                 net_.name() << ": training diverged (loss is not finite at "
                                "epoch " << epoch << "); lower the learning "
                                "rate or switch to discrete gradients");
    const double acc = top1_accuracy(logits, batch.labels);
    net_.backward(criterion.backward());
    sgd_.step();
    // The step mutated every weight in place; un-stamp so any packed
    // views a load_weights() left versioned are rebuilt from the live
    // values (version 0 = repack per call; see Network::set_weight_version).
    net_.set_weight_version(0);
    loss_mean.add(loss, static_cast<std::size_t>(batch.size()));
    acc_mean.add(acc, static_cast<std::size_t>(batch.size()));
  }

  EpochStats stats;
  stats.epoch = epoch;
  stats.train_loss = loss_mean.mean();
  stats.train_accuracy = acc_mean.mean();
  stats.learning_rate = sgd_.learning_rate();
  stats.seconds = watch.seconds();
  stats.scratch_floats = net_.scratch_arena().capacity();
  stats.scratch_growths = net_.scratch_arena().growths();
  return stats;
}

double Trainer::evaluate(data::DataLoader& loader) {
  net_.set_training(false);
  RunningMean acc;
  loader.reset();
  while (loader.has_next()) {
    data::Batch batch = loader.next();
    core::Tensor logits =
        cfg_.eval_plan != nullptr
            ? net_.forward_with(batch.images, *cfg_.eval_plan)
            : net_.forward(batch.images);
    acc.add(top1_accuracy(logits, batch.labels),
            static_cast<std::size_t>(batch.size()));
  }
  return acc.mean();
}

models::ModelSnapshot::Ptr Trainer::publish_snapshot() {
  models::ModelSnapshot::Ptr snap = net_.export_snapshot();
  if (cfg_.registry != nullptr) {
    // Delta-ship when the previous base is still retained: the registry
    // assembles the full image server-side, so only changed tensors
    // travel. A registry that already evicted the base (or a first
    // publish) gets the full snapshot.
    const bool can_delta =
        last_published_ != nullptr &&
        cfg_.registry->find(cfg_.registry_model,
                            last_published_->version()) != nullptr;
    if (can_delta) {
      const models::SnapshotDelta delta =
          models::ModelSnapshot::diff(*last_published_, *snap);
      last_publish_ =
          cfg_.registry->publish_delta(cfg_.registry_model, delta);
    } else {
      last_publish_ = cfg_.registry->publish(cfg_.registry_model, snap);
    }
    if (last_publish_.accepted) {
      // The registry's copy (assembled, when delta) is the canonical
      // base for the next diff — its version differs from `snap`'s on
      // the delta path.
      last_published_ =
          cfg_.registry->find(cfg_.registry_model, last_publish_.version);
    } else {
      ODENET_LOG(Info) << net_.name() << ": registry refused publish of "
                       << cfg_.registry_model << " v" << last_publish_.version
                       << " — " << last_publish_.reason;
    }
  }
  if (cfg_.on_snapshot) cfg_.on_snapshot(snap);
  return snap;
}

std::vector<EpochStats> Trainer::fit(data::DataLoader& train_loader,
                                     data::DataLoader& test_loader) {
  std::vector<EpochStats> history;
  history.reserve(static_cast<std::size_t>(cfg_.epochs));
  for (int e = 0; e < cfg_.epochs; ++e) {
    EpochStats stats = train_epoch(train_loader, e);
    stats.test_accuracy = evaluate(test_loader);
    // Feed the serving side: publish every k epochs and after the final
    // epoch, so a live engine never misses the finished model.
    if (cfg_.snapshot_every > 0 && ((e + 1) % cfg_.snapshot_every == 0 ||
                                    e + 1 == cfg_.epochs)) {
      stats.model_version = publish_snapshot()->version();
    }
    if (cfg_.on_epoch) {
      cfg_.on_epoch(stats);
    } else {
      ODENET_LOG(Debug) << net_.name() << " epoch " << e << " loss "
                        << stats.train_loss << " train_acc "
                        << stats.train_accuracy << " test_acc "
                        << stats.test_accuracy;
    }
    history.push_back(stats);
  }
  return history;
}

}  // namespace odenet::train
