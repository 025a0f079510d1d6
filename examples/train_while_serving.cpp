// Continuous training and serving in one process — the edge-domain-
// adaptation loop the hot-swap machinery exists for: a Trainer improves
// the model on the PS while an InferenceEngine keeps serving traffic, and
// every published epoch snapshot is pushed into the live engine with
// reload() — no restart, no drain, no dropped request. A client thread
// hammers the engine the whole time and tracks which model version served
// each reply.
//
//   ./train_while_serving --epochs=4 --snapshot-every=1
#include <atomic>
#include <cstdio>
#include <thread>

#include "data/dataloader.hpp"
#include "data/synthetic.hpp"
#include "models/network.hpp"
#include "runtime/engine.hpp"
#include "train/trainer.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"

using namespace odenet;

int main(int argc, char** argv) {
  util::CliParser cli("train_while_serving",
                      "Train on one thread while an inference engine "
                      "serves and hot-swaps every published snapshot");
  cli.add_option("epochs", "4", "training epochs");
  cli.add_option("snapshot-every", "1", "publish every k epochs");
  cli.add_option("width", "6", "base channel count (paper: 16)");
  cli.add_option("input", "16", "input resolution (paper: 32)");
  cli.add_option("classes", "5", "number of classes (paper: 100)");
  if (!cli.parse(argc, argv)) return 0;

  models::WidthConfig width{.input_channels = 3,
                            .input_size = cli.get_int("input"),
                            .base_channels = cli.get_int("width"),
                            .num_classes = cli.get_int("classes")};

  data::SyntheticConfig dcfg;
  dcfg.num_classes = width.num_classes;
  dcfg.images_per_class = 16;
  dcfg.height = width.input_size;
  dcfg.width = width.input_size;
  auto pair = data::make_synthetic_pair(dcfg, 6);
  const auto stats = data::compute_channel_stats(pair.train);
  data::DataLoaderConfig loader_cfg{.batch_size = 16,
                                    .shuffle = true,
                                    .augment = false,
                                    .mean = stats.mean,
                                    .stddev = stats.stddev};
  data::DataLoader train_loader(pair.train, loader_cfg);
  data::DataLoaderConfig test_cfg = loader_cfg;
  test_cfg.shuffle = false;
  data::DataLoader test_loader(pair.test, test_cfg);

  models::Network net(
      models::make_spec(models::Arch::kROdeNet3, 14, width));
  util::Rng rng(1);
  net.init(rng);

  // The serving side starts on the untrained epoch-0 weights.
  runtime::EngineConfig ecfg;
  ecfg.max_batch = 4;
  runtime::InferenceEngine engine(net, ecfg);
  std::printf("serving %s, initial model version %llu\n", net.name().c_str(),
              static_cast<unsigned long long>(engine.model_version()));

  // Client: submit forever until told to stop, counting replies per model
  // version (InferenceResult carries logits; the version is the engine's).
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> served{0};
  std::thread client([&] {
    util::Rng crng(7);
    while (!stop.load(std::memory_order_relaxed)) {
      core::Tensor image({3, width.input_size, width.input_size});
      for (std::size_t i = 0; i < image.numel(); ++i) {
        image.data()[i] = static_cast<float>(crng.normal(0.0, 0.5));
      }
      (void)engine.submit(std::move(image)).get();
      served.fetch_add(1, std::memory_order_relaxed);
    }
  });

  // Trainer: every published snapshot goes straight into the live engine.
  train::TrainerConfig tcfg;
  tcfg.epochs = cli.get_int("epochs");
  tcfg.sgd.learning_rate = 0.05;
  tcfg.sgd.momentum = 0.9;
  tcfg.snapshot_every = cli.get_int("snapshot-every");
  tcfg.on_snapshot = [&engine, &served](models::ModelSnapshot::Ptr snap) {
    const std::uint64_t version = engine.reload(snap);
    std::printf("  -> hot-swapped to version %llu (%llu requests served "
                "so far, zero downtime)\n",
                static_cast<unsigned long long>(version),
                static_cast<unsigned long long>(served.load()));
  };
  tcfg.on_epoch = [](const train::EpochStats& e) {
    std::printf("  epoch %d  loss %.4f  train %.1f%%  test %.1f%%%s\n",
                e.epoch, e.train_loss, 100.0 * e.train_accuracy,
                100.0 * e.test_accuracy,
                e.model_version != 0 ? "  [published]" : "");
  };
  train::Trainer trainer(net, tcfg);
  trainer.fit(train_loader, test_loader);

  stop.store(true);
  client.join();
  engine.shutdown();

  const auto estats = engine.stats();
  std::printf("served %llu requests across %llu model versions "
              "(%llu reloads, %llu worker re-syncs, mean re-sync %.3f ms); "
              "final version %llu\n",
              static_cast<unsigned long long>(estats.requests()),
              static_cast<unsigned long long>(estats.reloads + 1),
              static_cast<unsigned long long>(estats.reloads),
              static_cast<unsigned long long>(estats.swaps()),
              estats.backends[0].mean_swap_seconds() * 1e3,
              static_cast<unsigned long long>(estats.model_version));
  return 0;
}
