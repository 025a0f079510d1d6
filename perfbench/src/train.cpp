// train: Trainer::train_epoch on rODENet-3-20 over the synthetic
// CIFAR-100 stand-in, with a delta publish into a SnapshotRegistry after
// each pass over the training set. It is the only workload that runs the
// backward kernels, and it rewrites every weight each step, so packed
// weight caches rebuild on every call — the opposite use of core/ from
// serve, which reads cached packs. N=20 because N=56 trains at ~16 img/s
// on one core.
//
// Each train_epoch call runs over a one-batch loader (one step of kBatch
// images), so step latency is observable without reaching inside the
// trainer. At batch 8 a 30 s run holds ~200 steps, ~14 per throughput
// window; at the loader's default 32 it would hold ~45, too few for a
// p75 with ten samples beyond it once the host slows.
#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>

#include "core/softmax.hpp"
#include "data/dataloader.hpp"
#include "data/synthetic.hpp"
#include "models/network.hpp"
#include "models/registry.hpp"
#include "sched/cpu_model.hpp"
#include "train/trainer.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace odenet;

namespace {

constexpr int kDepth = 20;
constexpr int kBatch = 8;
constexpr int kImagesPerClass = 2;  // 200 images: 25 steps per pass
constexpr int kLossProbeSlices = 4;
constexpr double kWindowSeconds = 2.0;
/// Latency percentiles need >= 40 steps per window for a p75 with ten
/// samples beyond it (7-10 steps/s here).
constexpr double kLatencyWindowSeconds = 7.5;
const char* const kModelName = "rodenet3-20";

struct TrainInputs {
  Model model;
  /// The training set cut into shuffled one-batch datasets.
  std::vector<data::Dataset> slices;
};

TrainInputs make_inputs(std::uint64_t seed) {
  TrainInputs in;
  in.model = make_model(kDepth, seed);
  data::SyntheticConfig syn;
  syn.images_per_class = kImagesPerClass;
  syn.seed = sub_seed(seed, kTrainDataStream);
  const data::Dataset all = data::make_synthetic(syn);
  std::vector<std::size_t> order(all.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  util::Rng rng(syn.seed);
  rng.shuffle(order);
  const std::size_t bytes = all.image_bytes();
  for (std::size_t first = 0; first + kBatch <= order.size(); first += kBatch) {
    data::Dataset slice;
    slice.name = all.name;
    slice.num_classes = all.num_classes;
    for (std::size_t i = first; i < first + kBatch; ++i) {
      const std::uint8_t* src = all.pixels.data() + order[i] * bytes;
      slice.pixels.insert(slice.pixels.end(), src, src + bytes);
      slice.labels.push_back(all.labels[order[i]]);
    }
    in.slices.push_back(std::move(slice));
  }
  return in;
}

struct TrainStack {
  std::unique_ptr<models::Network> net;
  std::unique_ptr<models::SnapshotRegistry> registry;
  std::unique_ptr<train::Trainer> trainer;
  std::vector<std::unique_ptr<data::DataLoader>> loaders;
};

void check_publish(const train::Trainer& trainer, Ledger& ledger) {
  const auto& p = trainer.last_publish();
  if (p.accepted) ledger.ok(); else ledger.fail("publish refused: " + p.reason);
}

/// Network + registry (first, full publish) + trainer, and one warm-up step.
std::unique_ptr<TrainStack> build_stack(const TrainInputs& in,
                                        std::uint64_t seed, Ledger& ledger) {
  auto s = std::make_unique<TrainStack>();
  s->net = std::make_unique<models::Network>(in.model.spec);
  s->net->apply_snapshot(*in.model.snapshot);
  s->registry = std::make_unique<models::SnapshotRegistry>(
      models::SnapshotRegistry::Config{});
  train::TrainerConfig tc;
  tc.registry = s->registry.get();
  tc.registry_model = kModelName;
  s->trainer = std::make_unique<train::Trainer>(*s->net, tc);
  for (std::size_t i = 0; i < in.slices.size(); ++i) {
    data::DataLoaderConfig lc;
    lc.batch_size = kBatch;
    lc.seed = sub_seed(seed, kTrainDataStream + 100 + i);
    s->loaders.push_back(std::make_unique<data::DataLoader>(in.slices[i], lc));
  }
  s->trainer->publish_snapshot();
  check_publish(*s->trainer, ledger);
  s->trainer->train_epoch(*s->loaders.front(), 0);
  return s;
}

/// Mean cross-entropy over the first few slices, forward only, in training
/// mode (batch statistics) — the same measure before and after timing.
double probe_loss(TrainStack& s) {
  core::SoftmaxCrossEntropy criterion;
  s.net->set_training(true);
  double total = 0.0;
  for (int i = 0; i < kLossProbeSlices; ++i) {
    s.loaders[i]->reset();
    const data::Batch batch = s.loaders[i]->next();
    total += criterion.loss(s.net->forward(batch.images), batch.labels);
  }
  return total / kLossProbeSlices;
}

std::uint64_t conv_packs(models::Network& net) {
  std::uint64_t packs = 0;
  net.for_each_conv([&](core::Conv2d& c) { packs += c.weight_packs(); });
  return packs;
}

struct StepTimes {
  std::vector<double> next, forward, backward, sgd, wall, packs;
  std::vector<double> at;  // completion second of each step after origin
  Clock::time_point origin{};
};

/// One step through the public calls train_epoch makes, each timed.
bool traced_step(TrainStack& s, data::DataLoader& loader, int pass,
                 Tracer& tracer, StepTimes& t, Ledger& ledger) {
  models::Network& net = *s.net;
  train::Sgd& sgd = s.trainer->optimizer();
  core::SoftmaxCrossEntropy criterion;
  const std::uint64_t packs0 = conv_packs(net);
  const Clock::time_point start = Clock::now();
  net.set_training(true);
  sgd.set_learning_rate(train::LrSchedule{}.lr_at(pass));
  loader.reset();
  data::Batch batch;
  t.next.push_back(timed(tracer, "DataLoader::next", "data",
                         [&] { batch = loader.next(); }));
  sgd.zero_grads();
  core::Tensor logits;
  t.forward.push_back(timed(tracer, "Network::forward", "train",
                            [&] { logits = net.forward(batch.images); }));
  const float loss = criterion.loss(logits, batch.labels);
  if (!std::isfinite(loss)) {
    ledger.fail("training loss is not finite");
    return false;
  }
  t.backward.push_back(timed(tracer, "Network::backward", "train",
                             [&] { net.backward(criterion.backward()); }));
  t.sgd.push_back(timed(tracer, "Sgd::step", "train", [&] { sgd.step(); }));
  net.set_weight_version(0);
  const Clock::time_point end = Clock::now();
  tracer.record("train.step", "train", start, end);
  t.wall.push_back(seconds_between(start, end));
  t.at.push_back(seconds_between(t.origin, end));
  t.packs.push_back(static_cast<double>(conv_packs(net) - packs0));
  ledger.ok();
  return true;
}

}  // namespace

WorkloadResult run_train(const RunConfig& cfg, Tracer& tracer) {
  WorkloadResult result;
  const TrainInputs in = make_inputs(cfg.seed);

  std::vector<double> setups;
  std::unique_ptr<TrainStack> stack;
  for (int r = 0; r < cfg.setup_reps; ++r) {
    stack.reset();
    const Clock::time_point t0 = Clock::now();
    stack = build_stack(in, cfg.seed, result.ledger);
    setups.push_back(seconds_between(t0, Clock::now()));
  }
  const double loss_before = probe_loss(*stack);

  util::Rng rng(sub_seed(cfg.seed, kScheduleStream));
  std::vector<std::size_t> order(stack->loaders.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;

  Timeline steps;  // (completion second, step ms)
  StepTimes traced;
  std::vector<double> publish_s;
  double publish_bytes = 0.0;
  std::uint64_t images = 0;
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(cfg.seconds));
  traced.origin = start;
  bool healthy = true;
  for (int pass = 0; healthy && Clock::now() < end; ++pass) {
    rng.shuffle(order);
    std::size_t done = 0;
    for (std::size_t i : order) {
      if (Clock::now() >= end) break;
      data::DataLoader& loader = *stack->loaders[i];
      if (cfg.traced) {
        healthy = traced_step(*stack, loader, pass, tracer, traced, result.ledger);
      } else {
        const Clock::time_point t0 = Clock::now();
        try {
          stack->trainer->train_epoch(loader, pass);
          const Clock::time_point t1 = Clock::now();
          steps.add(seconds_between(start, t1), 1e3 * seconds_between(t0, t1));
          result.ledger.ok();
        } catch (const std::exception& e) {
          result.ledger.fail(e.what());
          steps.add(seconds_between(start, Clock::now()),
                    std::numeric_limits<double>::infinity());
          healthy = false;
        }
      }
      if (!healthy) break;
      images += kBatch;
      ++done;
    }
    if (done == order.size()) {
      publish_s.push_back(timed(tracer, "Trainer::publish_snapshot", "models",
                                [&] { stack->trainer->publish_snapshot(); }));
      check_publish(*stack->trainer, result.ledger);
      publish_bytes =
          static_cast<double>(stack->trainer->last_publish().bytes_shipped);
    }
  }
  const double wall = seconds_between(start, Clock::now());
  if (cfg.traced) {
    // A short run may end inside the first pass: publish after each of
    // three more steps so the publish cost is always measured.
    for (int r = 0; healthy && r < 3; ++r) {
      healthy = traced_step(*stack, *stack->loaders[r], 0, tracer, traced,
                            result.ledger);
      publish_s.push_back(timed(tracer, "Trainer::publish_snapshot", "models",
                                [&] { stack->trainer->publish_snapshot(); }));
      check_publish(*stack->trainer, result.ledger);
      publish_bytes =
          static_cast<double>(stack->trainer->last_publish().bytes_shipped);
    }
  }

  const double loss_after = probe_loss(*stack);
  if (!(loss_after < loss_before)) {
    char buf[128];
    std::snprintf(buf, sizeof(buf), "loss did not fall: %.4f -> %.4f",
                  loss_before, loss_after);
    result.ledger.fail(buf);
  } else {
    result.ledger.ok();
  }
  // Images per second of training steps, median over 2 s windows (traced
  // runs time their steps themselves).
  for (std::size_t i = 0; i < traced.wall.size(); ++i) {
    steps.add(traced.at[i], 1e3 * traced.wall[i]);
  }
  result.throughput_ips = steps.over_windows(
      kWindowSeconds, cfg.seconds,
      [](const Samples& s, double) { return s.rate(kBatch); });
  const Samples step_ms = steps.all();
  auto window_percentile = [&](double q) {
    return steps.over_windows(
        kLatencyWindowSeconds, cfg.seconds,
        [q](const Samples& s, double) { return s.percentile(q); });
  };
  char buf[200];
  std::snprintf(buf, sizeof(buf),
                "train: %llu images in %.2f s at batch %d, %zu publishes, "
                "probe loss %.4f -> %.4f",
                static_cast<unsigned long long>(images), wall, kBatch,
                publish_s.size(), loss_before, loss_after);
  result.notes.push_back(buf);

  if (!cfg.traced) {
    result.notes.push_back(describe("train step latency", step_ms));
    const double sim_ms =
        1e3 * sched::CpuModel().network_seconds(in.model.spec);
    result.end_to_end = {
        {"setup_s", {median(setups), "s"}},
        {"throughput_ips", {result.throughput_ips, "img/s"}},
        {"latency_p50_ms", {window_percentile(50), "ms"}},
        {"latency_p75_ms", {window_percentile(75), "ms"}},
        {"sim_latency_ms", {sim_ms, "ms_sim"}},
    };
  } else if (!traced.wall.empty()) {
    Metrics& L = result.layers;
    const double fwd = median(traced.forward);
    const double bwd = median(traced.backward);
    const double sgd = median(traced.sgd);
    const double next = median(traced.next);
    L["train.forward_ms"] = {1e3 * fwd, "ms"};
    L["train.backward_ms"] = {1e3 * bwd, "ms"};
    L["train.sgd_ms"] = {1e3 * sgd, "ms"};
    L["data.next_ms"] = {1e3 * next, "ms"};
    L["core.conv_packs_per_step"] = {median(traced.packs), "count"};
    L["models.publish_ms"] = {1e3 * median(publish_s), "ms"};
    L["models.publish_bytes"] = {publish_bytes, "bytes"};
    result.coverage = (fwd + bwd + sgd + next) / median(traced.wall);
  }
  return result;
}

}  // namespace perfbench
