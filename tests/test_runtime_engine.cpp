// The batched async serving runtime (src/runtime/): micro-batch formation,
// batching determinism, backend parity through the engine, shutdown with
// in-flight requests, aggregated stats, routed dispatch, priority classes,
// deadlines — plus a multi-producer stress test over the router and the
// zero-downtime weight hot-swap suite (reload under load, post-swap
// parity with a cold-constructed engine, mismatch rejection).
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <set>
#include <thread>

#include <sstream>

#include "runtime/engine.hpp"
#include "util/rng.hpp"
#include "util/serialize.hpp"

using namespace odenet;
using models::Arch;
using models::StageId;
using runtime::BackendConfig;
using runtime::EngineConfig;
using runtime::InferenceEngine;
using runtime::InferenceResult;
using runtime::SubmitOptions;

namespace {

models::WidthConfig tiny_width() {
  return {.input_channels = 3, .input_size = 16, .base_channels = 4,
          .num_classes = 5};
}

models::Network make_net(std::uint64_t seed) {
  models::Network net(models::make_spec(Arch::kROdeNet3, 14, tiny_width()));
  util::Rng rng(seed);
  net.init(rng);
  return net;
}

core::Tensor random_image(util::Rng& rng) {
  core::Tensor x({3, 16, 16});
  for (std::size_t i = 0; i < x.numel(); ++i) {
    x.data()[i] = static_cast<float>(rng.normal(0.0, 0.5));
  }
  return x;
}

/// How long each micro-batch holds the worker of held_worker_config()'s
/// backend: far longer than the few submits a test makes right after a
/// blocker was picked up, so they queue behind it.
constexpr auto kHold = std::chrono::milliseconds(100);

/// One float backend whose every micro-batch holds its single worker for
/// kHold (BackendConfig::sim_batch_latency).
EngineConfig held_worker_config(int max_batch) {
  EngineConfig cfg;
  cfg.max_batch = max_batch;
  cfg.backends[0].sim_batch_latency = kHold;
  return cfg;
}

/// Submits a blocker request and returns once backend 0's worker is
/// serving it. Dispatch is work-conserving, so this is how a test keeps
/// later submits queued: they wait behind the blocker instead of being
/// popped at once by an idle worker.
std::future<InferenceResult> occupy_worker(InferenceEngine& engine,
                                           util::Rng& rng) {
  auto blocker = engine.submit(random_image(rng));
  const auto in_flight = [&engine] {
    return engine.stats().backends[0].in_flight;
  };
  while (in_flight() != 1 &&
         blocker.wait_for(std::chrono::seconds(0)) !=
             std::future_status::ready) {
    std::this_thread::yield();
  }
  EXPECT_EQ(in_flight(), 1) << "blocker finished before the test "
                               "could queue behind it";
  return blocker;
}

double max_abs_diff(const core::Tensor& a, const core::Tensor& b) {
  double diff = 0.0;
  for (std::size_t i = 0; i < a.numel(); ++i) {
    diff = std::max(diff, std::fabs(static_cast<double>(a.data()[i]) -
                                    b.data()[i]));
  }
  return diff;
}

}  // namespace

TEST(InferenceEngine, ResultsMatchDirectForward) {
  models::Network net = make_net(1);
  EngineConfig cfg;
  cfg.max_batch = 4;
  InferenceEngine engine(net, cfg);

  util::Rng rng(11);
  core::Tensor image = random_image(rng);
  InferenceResult result = engine.submit(image).get();

  net.set_training(false);
  core::Tensor batch({1, 3, 16, 16});
  std::copy_n(image.data(), image.numel(), batch.data());
  core::Tensor reference = net.forward(batch);

  ASSERT_EQ(result.logits.numel(), 5u);
  for (int c = 0; c < 5; ++c) {
    EXPECT_FLOAT_EQ(result.logits.at1(c), reference.at2(0, c)) << c;
  }
  EXPECT_GE(result.predicted, 0);
  EXPECT_LT(result.predicted, 5);
  EXPECT_EQ(result.backend, core::ExecBackend::kFloat);
  EXPECT_GE(result.batch_size, 1);
  EXPECT_GT(result.total_seconds, 0.0);
}

TEST(InferenceEngine, BatchingIsDeterministicAcrossArrivalOrderAndSplit) {
  models::Network net = make_net(2);
  util::Rng rng(22);
  const int kImages = 10;
  std::vector<core::Tensor> images;
  images.reserve(kImages);
  for (int i = 0; i < kImages; ++i) images.push_back(random_image(rng));

  auto serve = [&](int max_batch, bool reversed) {
    EngineConfig cfg;
    cfg.max_batch = max_batch;
    InferenceEngine engine(net, cfg);
    std::vector<std::future<InferenceResult>> futures(kImages);
    for (int i = 0; i < kImages; ++i) {
      const int idx = reversed ? kImages - 1 - i : i;
      futures[static_cast<std::size_t>(idx)] =
          engine.submit(images[static_cast<std::size_t>(idx)]);
    }
    std::vector<InferenceResult> results;
    results.reserve(kImages);
    for (auto& f : futures) results.push_back(f.get());
    return results;
  };

  const auto batched = serve(4, /*reversed=*/false);
  const auto singles = serve(1, /*reversed=*/true);

  for (int i = 0; i < kImages; ++i) {
    const auto& a = batched[static_cast<std::size_t>(i)];
    const auto& b = singles[static_cast<std::size_t>(i)];
    EXPECT_EQ(a.predicted, b.predicted) << "image " << i;
    ASSERT_TRUE(a.logits.same_shape(b.logits));
    for (std::size_t c = 0; c < a.logits.numel(); ++c) {
      EXPECT_FLOAT_EQ(a.logits.data()[c], b.logits.data()[c])
          << "image " << i << " logit " << c;
    }
  }
}

TEST(InferenceEngine, FormsFullBatchesUnderBurst) {
  models::Network net = make_net(3);
  InferenceEngine engine(net, held_worker_config(4));

  util::Rng rng(33);
  auto blocker = occupy_worker(engine, rng);
  // A burst that lands while the worker is busy is taken in full batches.
  core::Tensor batch({8, 3, 16, 16});
  for (std::size_t i = 0; i < batch.numel(); ++i) {
    batch.data()[i] = static_cast<float>(rng.normal(0.0, 0.5));
  }
  auto futures = engine.submit_batch(batch);
  EXPECT_EQ(blocker.get().batch_size, 1);
  for (auto& f : futures) {
    EXPECT_EQ(f.get().batch_size, 4);
  }
  const auto stats = engine.stats();
  ASSERT_EQ(stats.backends.size(), 1u);
  EXPECT_EQ(stats.backends[0].requests, 9u);
  EXPECT_EQ(stats.backends[0].batches, 3u);  // the blocker + two full ones
  EXPECT_DOUBLE_EQ(stats.backends[0].mean_batch_size(), 3.0);
}

TEST(InferenceEngine, ShutdownDrainsInFlightRequests) {
  models::Network net = make_net(5);
  InferenceEngine engine(net, held_worker_config(64));

  util::Rng rng(55);
  auto blocker = occupy_worker(engine, rng);
  std::vector<std::future<InferenceResult>> futures;
  for (int i = 0; i < 5; ++i) futures.push_back(engine.submit(random_image(rng)));
  engine.shutdown();  // must finish the blocker, then serve the queue

  EXPECT_GE(blocker.get().predicted, 0);
  for (auto& f : futures) {
    const InferenceResult r = f.get();
    EXPECT_GE(r.predicted, 0);
    EXPECT_EQ(r.batch_size, 5);
  }
  EXPECT_EQ(engine.stats().requests(), 6u);
  EXPECT_THROW(engine.submit(random_image(rng)), odenet::Error);
}

TEST(InferenceEngine, DestructorFulfillsEveryFuture) {
  models::Network net = make_net(6);
  util::Rng rng(66);
  std::vector<std::future<InferenceResult>> futures;
  {
    EngineConfig cfg;
    cfg.max_batch = 64;
    InferenceEngine engine(net, cfg);
    for (int i = 0; i < 3; ++i) {
      futures.push_back(engine.submit(random_image(rng)));
    }
  }  // ~InferenceEngine drains
  for (auto& f : futures) {
    EXPECT_NO_THROW((void)f.get());
  }
}

TEST(InferenceEngine, BackendParityWithinQuantizationTolerance) {
  // The engine's fixed and fpga_sim replies against float networks built
  // from the same snapshot outside the engine. The PL normalizes each
  // image by its own statistics, so the fpga_sim reference runs its
  // ODE-stage batch norms on batch statistics too.
  models::Network net = make_net(7);
  const models::ModelSnapshot::Ptr snapshot =
      models::ModelSnapshot::capture(net);
  EngineConfig cfg;
  cfg.max_batch = 1;  // one image per batch, as in the references below
  BackendConfig fixed_cpu;  // int16 integer datapath
  fixed_cpu.backend = core::ExecBackend::kFixed;
  BackendConfig fpga_sim;
  fpga_sim.backend = core::ExecBackend::kFpgaSim;  // offloads every ODE stage
  cfg.backends = {fixed_cpu, fpga_sim};
  InferenceEngine engine(snapshot, cfg);
  ASSERT_EQ(engine.backend_count(), 2u);

  const auto reference = [&snapshot](bool per_image_ode_bn) {
    models::Network ref(snapshot->spec(), snapshot->solver_config());
    ref.apply_snapshot(*snapshot);
    ref.set_training(false);
    for (auto& stage : ref.stages()) {
      if (per_image_ode_bn && !stage->is_empty() && stage->is_ode()) {
        stage->ode()->block().bn1().set_use_batch_stats_in_eval(true);
        stage->ode()->block().bn2().set_use_batch_stats_in_eval(true);
      }
    }
    return ref;
  };
  models::Network float_ref = reference(false);
  models::Network pl_ref = reference(true);

  util::Rng rng(77);
  core::Tensor image = random_image(rng);
  const core::Tensor batch = image.reshaped({1, 3, 16, 16});
  auto pinned = [](std::size_t index) {
    SubmitOptions opts;
    opts.backend = index;
    return opts;
  };
  InferenceResult rq = engine.submit(image, pinned(0)).get();
  InferenceResult ra = engine.submit(image, pinned(1)).get();
  const core::Tensor want_q = float_ref.forward(batch);
  const core::Tensor want_a = pl_ref.forward(batch);

  EXPECT_LT(max_abs_diff(want_q, rq.logits), 0.1);   // int16 operand grid
  EXPECT_LT(max_abs_diff(want_a, ra.logits), 0.15);  // full PL datapath
  EXPECT_EQ(rq.pl_cycles, 0u);
  EXPECT_GT(ra.pl_cycles, 0u);
}

TEST(InferenceEngine, StatsFoldPlCyclesAndEmitJson) {
  models::Network net = make_net(8);
  EngineConfig cfg;
  cfg.max_batch = 2;
  BackendConfig fpga_sim;
  fpga_sim.backend = core::ExecBackend::kFpgaSim;
  cfg.backends = {fpga_sim};
  InferenceEngine engine(net, cfg);

  util::Rng rng(88);
  std::vector<std::future<InferenceResult>> futures;
  std::uint64_t result_cycles = 0;
  for (int i = 0; i < 4; ++i) futures.push_back(engine.submit(random_image(rng)));
  for (auto& f : futures) result_cycles += f.get().pl_cycles;

  const auto stats = engine.stats();
  ASSERT_EQ(stats.backends.size(), 1u);
  EXPECT_EQ(stats.backends[0].requests, 4u);
  EXPECT_GT(stats.pl_cycles(), 0u);
  // Per-result shares are the batch total split evenly; integer division
  // can only lose remainders, never invent cycles.
  EXPECT_LE(result_cycles, stats.pl_cycles());
  EXPECT_GT(result_cycles, stats.pl_cycles() / 2);

  const std::string json = stats.to_json();
  EXPECT_NE(json.find("\"images_per_sec\""), std::string::npos);
  EXPECT_NE(json.find("\"fpga_sim\""), std::string::npos);
  EXPECT_NE(json.find("\"pl_cycles\""), std::string::npos);
  EXPECT_NE(json.find("\"priorities\""), std::string::npos);
  EXPECT_NE(json.find("\"hist_le_ms\""), std::string::npos);
  EXPECT_NE(json.find("\"timeouts\""), std::string::npos);
  EXPECT_NE(json.find("\"model_version\""), std::string::npos);
  EXPECT_NE(json.find("\"swaps\""), std::string::npos);
  EXPECT_NE(json.find("\"promotions\""), std::string::npos);
  EXPECT_NE(json.find("\"arena_capacity_floats\""), std::string::npos);

  // Conv-scratch gauges: serving grew the replica's arena.
  EXPECT_GT(stats.backends[0].arena_capacity_floats, 0u);
  EXPECT_GE(stats.backends[0].arena_growths, 1u);
}

TEST(InferenceEngine, ReplicaArenaStopsGrowingOnARepeatedWave) {
  models::Network net = make_net(12);
  EngineConfig cfg;
  cfg.max_batch = 1;  // every batch one image: every wave frames alike
  InferenceEngine engine(net, cfg);

  util::Rng rng(12);
  std::vector<core::Tensor> images;
  for (int i = 0; i < 4; ++i) images.push_back(random_image(rng));
  const auto serve_wave = [&engine, &images] {
    for (const core::Tensor& image : images) {
      EXPECT_GE(engine.submit(image).get().predicted, 0);
    }
    return engine.stats().backends[0];
  };
  const runtime::BackendStats first = serve_wave();
  EXPECT_GT(first.arena_capacity_floats, 0u);
  EXPECT_GE(first.arena_growths, 1u);
  // The one replica recycles its warm arena: the second wave neither
  // grows it nor leaves it reading differently.
  const runtime::BackendStats second = serve_wave();
  EXPECT_EQ(second.arena_capacity_floats, first.arena_capacity_floats);
  EXPECT_EQ(second.arena_growths, first.arena_growths);
}

TEST(InferenceEngine, MalformedImageFailsItsFutureOnly) {
  models::Network net = make_net(9);
  EngineConfig cfg;
  cfg.max_batch = 2;
  InferenceEngine engine(net, cfg);

  // Wrong spatial extent: the future carries the error; submit() itself
  // must not throw, and no micro-batch is poisoned.
  auto bad = engine.submit(core::Tensor({3, 8, 8}));
  EXPECT_THROW((void)bad.get(), odenet::Error);
  auto also_bad = engine.submit(core::Tensor({2, 3, 16, 16}));
  EXPECT_THROW((void)also_bad.get(), odenet::Error);

  // The engine keeps serving good requests, and the rejects never reached
  // a backend.
  util::Rng rng(99);
  EXPECT_GE(engine.submit(random_image(rng)).get().predicted, 0);
  const auto stats = engine.stats();
  EXPECT_EQ(stats.requests(), 1u);
  EXPECT_EQ(stats.timeouts(), 0u);
}

TEST(InferenceEngine, PinnedBackendOutOfRangeThrows) {
  models::Network net = make_net(9);
  InferenceEngine engine(net);
  util::Rng rng(9);
  SubmitOptions out_of_range;
  out_of_range.backend = 3;
  EXPECT_THROW((void)engine.submit(random_image(rng), out_of_range),
               odenet::Error);
}

TEST(InferenceEngine, ExpiredDeadlineRejectsWithTimeoutError) {
  models::Network net = make_net(10);
  InferenceEngine engine(net, held_worker_config(64));

  util::Rng rng(10);
  auto blocker = occupy_worker(engine, rng);
  runtime::SubmitOptions opts;
  opts.priority = runtime::Priority::kLow;
  opts.deadline = std::chrono::microseconds(500);  // expires behind kHold
  auto doomed = engine.submit(random_image(rng), opts);
  EXPECT_THROW((void)doomed.get(), runtime::DeadlineExceeded);
  EXPECT_GE(blocker.get().predicted, 0);

  // A generous deadline is not a timeout.
  runtime::SubmitOptions relaxed;
  relaxed.deadline = std::chrono::seconds(30);
  const InferenceResult ok = engine.submit(random_image(rng), relaxed).get();
  EXPECT_GE(ok.predicted, 0);
  EXPECT_EQ(ok.priority, runtime::Priority::kNormal);

  const auto stats = engine.stats();
  EXPECT_EQ(stats.requests(), 2u);  // the blocker and the relaxed request
  EXPECT_EQ(stats.timeouts(), 1u);
  const auto& low =
      stats.priorities[static_cast<std::size_t>(runtime::Priority::kLow)];
  EXPECT_EQ(low.timeouts, 1u);
  EXPECT_EQ(low.requests, 0u);
}

TEST(InferenceEngine, RoutedSubmitBalancesAcrossBackends) {
  models::Network net = make_net(11);
  EngineConfig cfg;
  cfg.max_batch = 4;
  cfg.backends = {BackendConfig{}, BackendConfig{}};  // two float replicas
  InferenceEngine engine(net, cfg);
  ASSERT_EQ(engine.backend_count(), 2u);
  EXPECT_GT(engine.stats().backends[0].modeled_request_seconds, 0.0);

  util::Rng rng(11);
  std::vector<std::future<InferenceResult>> futures;
  for (int i = 0; i < 8; ++i) {
    futures.push_back(engine.submit(random_image(rng)));  // routed
  }
  for (auto& f : futures) EXPECT_GE(f.get().predicted, 0);

  const auto stats = engine.stats();
  ASSERT_EQ(stats.backends.size(), 2u);
  EXPECT_EQ(stats.requests(), 8u);
  EXPECT_EQ(stats.routed(), 8u);
  // Least-depth alternates while requests are outstanding: both replicas
  // must have served work.
  EXPECT_GT(stats.backends[0].requests, 0u);
  EXPECT_GT(stats.backends[1].requests, 0u);
}

// ---- weight hot-swap --------------------------------------------------

TEST(InferenceEngine, ReloadServesNewWeightsBitIdenticalToColdEngine) {
  models::Network old_net = make_net(20);
  models::Network new_net = make_net(21);  // same spec, different weights
  EngineConfig cfg;
  cfg.max_batch = 4;

  InferenceEngine engine(old_net, cfg);
  const std::uint64_t v0 = engine.model_version();
  EXPECT_GT(v0, 0u);

  util::Rng rng(20);
  core::Tensor image = random_image(rng);
  const InferenceResult before = engine.submit(image).get();

  const auto snap = new_net.export_snapshot();
  const std::uint64_t v1 = engine.reload(snap);
  EXPECT_GT(v1, v0);
  EXPECT_EQ(engine.model_version(), v1);
  // Re-publishing the live version is a no-op.
  EXPECT_EQ(engine.reload(snap), v1);

  const InferenceResult after = engine.submit(image).get();
  EXPECT_GT(max_abs_diff(before.logits, after.logits), 0.0);

  // Bitwise: a hot-swapped replica and a cold engine constructed from the
  // same snapshot must be indistinguishable (float backend).
  InferenceEngine cold(snap, cfg);
  const InferenceResult fresh = cold.submit(image).get();
  for (std::size_t c = 0; c < after.logits.numel(); ++c) {
    EXPECT_EQ(after.logits.data()[c], fresh.logits.data()[c]) << "logit " << c;
  }

  const auto stats = engine.stats();
  EXPECT_EQ(stats.model_version, v1);
  EXPECT_EQ(stats.reloads, 1u);
  EXPECT_GE(stats.swaps(), 1u);
  EXPECT_GT(stats.backends[0].swap_seconds_total, 0.0);
  EXPECT_GE(stats.backends[0].max_swap_seconds,
            stats.backends[0].mean_swap_seconds());
}

TEST(InferenceEngine, ReloadRequantizesFpgaAndFixedBackends) {
  models::Network old_net = make_net(22);
  models::Network new_net = make_net(23);
  EngineConfig cfg;
  cfg.max_batch = 1;  // per-image batches: batch-stat BN is deterministic
  BackendConfig fixed_cpu;
  fixed_cpu.backend = core::ExecBackend::kFixed;
  BackendConfig fpga_sim;
  fpga_sim.backend = core::ExecBackend::kFpgaSim;
  cfg.backends = {fixed_cpu, fpga_sim};

  InferenceEngine engine(old_net, cfg);
  const auto snap = new_net.export_snapshot();
  engine.reload(snap);

  util::Rng rng(22);
  core::Tensor image = random_image(rng);
  SubmitOptions on_fixed, on_fpga;
  on_fixed.backend = 0;
  on_fpga.backend = 1;
  const InferenceResult fixed_hot = engine.submit(image, on_fixed).get();
  const InferenceResult fpga_hot = engine.submit(image, on_fpga).get();

  InferenceEngine cold(snap, cfg);
  const InferenceResult fixed_cold = cold.submit(image, on_fixed).get();
  const InferenceResult fpga_cold = cold.submit(image, on_fpga).get();

  // The quantized datapaths are deterministic in the weights, so the
  // re-quantized BRAM image must reproduce a cold construction from the
  // same snapshot to float tolerance.
  EXPECT_LT(max_abs_diff(fixed_hot.logits, fixed_cold.logits), 1e-5);
  EXPECT_LT(max_abs_diff(fpga_hot.logits, fpga_cold.logits), 1e-5);
  EXPECT_GT(fpga_hot.pl_cycles, 0u);
}

TEST(InferenceEngine, ReloadRejectsMismatchedSnapshotAndKeepsServing) {
  models::Network net = make_net(24);
  InferenceEngine engine(net);
  const std::uint64_t v0 = engine.model_version();

  models::Network other(
      models::make_spec(Arch::kResNet, 14, tiny_width()));
  util::Rng rng(24);
  other.init(rng);
  EXPECT_THROW(engine.reload(other.export_snapshot()), odenet::Error);
  EXPECT_THROW(engine.reload(nullptr), odenet::Error);

  // Same architecture but a different forward solver: replicas integrate
  // with construction-time settings, so this would silently change the
  // served numerics — rejected before publish.
  models::SolverConfig heun;
  heun.method = solver::Method::kHeun;
  models::Network resolved(
      models::make_spec(Arch::kROdeNet3, 14, tiny_width()), heun);
  resolved.init(rng);
  EXPECT_THROW(engine.reload(resolved.export_snapshot()), odenet::Error);

  // A well-formed v2 file whose payload disagrees with its own spec
  // header (here: zero params) must be rejected BEFORE publishing — a
  // worker-thread apply failure would kill the process.
  std::stringstream hollow;
  {
    util::BinaryWriter w(hollow);
    util::write_weights_header(w);
    w.write_string(models::arch_name(Arch::kROdeNet3));
    w.write_u32(14);
    w.write_u32(3);   // input_channels
    w.write_u32(16);  // input_size
    w.write_u32(4);   // base_channels
    w.write_u32(5);   // num_classes
    w.write_u32(0);   // kEuler
    w.write_u32(0);   // kDiscreteBackprop
    w.write_u32(0);   // kResNetCompatible
    w.write_f64(1e-3);
    w.write_f64(1e-4);
    w.write_u64(999);  // saved version
    w.write_u64(0);    // params: none
    w.write_u64(0);    // bns: none
  }
  EXPECT_THROW(engine.reload(models::ModelSnapshot::load(hollow)),
               odenet::Error);

  // Every rejected publish left the old version serving.
  EXPECT_EQ(engine.model_version(), v0);
  EXPECT_EQ(engine.stats().reloads, 0u);
  EXPECT_GE(engine.submit(random_image(rng)).get().predicted, 0);
}

// The hot-swap stress harness: producers hammer a multi-backend engine
// while the main thread races a stream of reload() publishes against
// them. Every future must fulfill exactly once (no drops, no double
// sets), the engine must end on the last published version, and a
// post-drain request must match a cold engine on the final snapshot.
TEST(InferenceEngine, StressReloadRacesProducersWithoutDroppingFutures) {
  models::Network net = make_net(25);
  EngineConfig cfg;
  cfg.max_batch = 8;
  BackendConfig two_workers;
  two_workers.workers = 2;
  cfg.backends = {two_workers, BackendConfig{}};
  InferenceEngine engine(net, cfg);

  constexpr int kProducers = 4;
  constexpr int kPerProducer = 30;
  constexpr int kReloads = 6;
  std::vector<std::vector<std::future<InferenceResult>>> futures(kProducers);
  for (auto& lane : futures) lane.reserve(kPerProducer);

  std::vector<std::thread> producers;
  for (int t = 0; t < kProducers; ++t) {
    producers.emplace_back([&, t] {
      util::Rng rng(2000 + static_cast<std::uint64_t>(t));
      for (int i = 0; i < kPerProducer; ++i) {
        runtime::SubmitOptions opts;
        opts.priority = static_cast<runtime::Priority>((t + i) % 3);
        futures[static_cast<std::size_t>(t)].push_back(
            engine.submit(random_image(rng), opts));
      }
    });
  }

  // Publish a stream of retrained models while the producers submit.
  models::ModelSnapshot::Ptr last;
  for (int r = 0; r < kReloads; ++r) {
    models::Network retrained = make_net(100 + static_cast<std::uint64_t>(r));
    last = retrained.export_snapshot();
    EXPECT_EQ(engine.reload(last), last->version());
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  for (auto& p : producers) p.join();

  int fulfilled = 0;
  for (auto& lane : futures) {
    for (auto& f : lane) {
      ASSERT_TRUE(f.valid());
      EXPECT_GE(f.get().predicted, 0);  // exactly-once: get() consumes
      EXPECT_FALSE(f.valid());
      ++fulfilled;
    }
  }
  EXPECT_EQ(fulfilled, kProducers * kPerProducer);

  const auto stats = engine.stats();
  EXPECT_EQ(stats.requests(),
            static_cast<std::uint64_t>(kProducers * kPerProducer));
  EXPECT_EQ(stats.timeouts(), 0u);
  EXPECT_EQ(stats.reloads, static_cast<std::uint64_t>(kReloads));
  EXPECT_EQ(stats.model_version, last->version());
  // Each worker re-syncs at most once per publish.
  EXPECT_LE(stats.swaps(), static_cast<std::uint64_t>(kReloads * 3));

  // Post-drain requests serve the final version, matching a cold engine.
  util::Rng rng(25);
  core::Tensor image = random_image(rng);
  SubmitOptions on_fixed;
  on_fixed.backend = 1;
  const InferenceResult hot = engine.submit(image, on_fixed).get();
  EngineConfig cold_cfg = cfg;
  cold_cfg.backends = {BackendConfig{}};
  InferenceEngine cold(last, cold_cfg);
  const InferenceResult fresh = cold.submit(image).get();
  for (std::size_t c = 0; c < hot.logits.numel(); ++c) {
    EXPECT_EQ(hot.logits.data()[c], fresh.logits.data()[c]) << "logit " << c;
  }
}

// The satellite stress harness: N producer threads x M backends submitting
// mixed-priority routed requests; every future fulfilled exactly once, no
// timeout for generous deadlines, and the stats counters sum to the submit
// count.
TEST(InferenceEngine, StressManyProducersRoutedMixedPriorities) {
  models::Network net = make_net(13);
  EngineConfig cfg;
  cfg.max_batch = 8;
  BackendConfig two_workers;
  two_workers.workers = 2;
  cfg.backends = {two_workers, BackendConfig{}};
  InferenceEngine engine(net, cfg);

  constexpr int kProducers = 4;
  constexpr int kPerProducer = 25;
  constexpr int kTotal = kProducers * kPerProducer;
  std::array<std::uint64_t, runtime::kPriorityLevels> submitted_by_class{};
  std::vector<std::vector<std::future<InferenceResult>>> futures(kProducers);
  std::atomic<int> fulfilled{0};

  std::vector<std::thread> producers;
  for (int t = 0; t < kProducers; ++t) {
    for (int i = 0; i < kPerProducer; ++i) {
      submitted_by_class[static_cast<std::size_t>((t + i) % 3)] += 1;
    }
    producers.emplace_back([&, t] {
      util::Rng rng(1000 + static_cast<std::uint64_t>(t));
      for (int i = 0; i < kPerProducer; ++i) {
        runtime::SubmitOptions opts;
        opts.priority = static_cast<runtime::Priority>((t + i) % 3);
        if (i % 2 == 0) opts.deadline = std::chrono::seconds(60);  // generous
        futures[static_cast<std::size_t>(t)].push_back(
            engine.submit(random_image(rng), opts));
      }
    });
  }
  for (auto& p : producers) p.join();

  for (auto& lane : futures) {
    for (auto& f : lane) {
      ASSERT_TRUE(f.valid());
      const InferenceResult r = f.get();  // exactly-once: get() consumes
      EXPECT_GE(r.predicted, 0);
      EXPECT_FALSE(f.valid());
      fulfilled.fetch_add(1);
    }
  }
  EXPECT_EQ(fulfilled.load(), kTotal);

  const auto stats = engine.stats();
  EXPECT_EQ(stats.timeouts(), 0u);  // generous deadlines never expire
  EXPECT_EQ(stats.requests(), static_cast<std::uint64_t>(kTotal));
  EXPECT_EQ(stats.routed(), static_cast<std::uint64_t>(kTotal));
  std::uint64_t backend_sum = 0;
  for (const auto& b : stats.backends) backend_sum += b.requests;
  EXPECT_EQ(backend_sum, static_cast<std::uint64_t>(kTotal));
  std::uint64_t priority_sum = 0;
  for (int p = 0; p < runtime::kPriorityLevels; ++p) {
    const auto& ps = stats.priorities[static_cast<std::size_t>(p)];
    EXPECT_EQ(ps.requests, submitted_by_class[static_cast<std::size_t>(p)])
        << "priority " << p;
    std::uint64_t hist_sum = 0;
    for (const auto count : ps.histogram) hist_sum += count;
    EXPECT_EQ(hist_sum, ps.requests) << "priority " << p;
    priority_sum += ps.requests;
  }
  EXPECT_EQ(priority_sum, static_cast<std::uint64_t>(kTotal));
  // Drained engine: gauges return to zero.
  for (const auto& b : stats.backends) {
    EXPECT_EQ(b.queue_depth, 0u);
    EXPECT_EQ(b.in_flight, 0);
  }
}

// ---- overload protection ----------------------------------------------

TEST(InferenceEngine, ShedsFailFastWhenQueueBoundReachedAndEvictsForHigh) {
  models::Network net = make_net(30);
  EngineConfig cfg = held_worker_config(64);
  cfg.max_queue_depth = 2;
  InferenceEngine engine(net, cfg);

  util::Rng rng(30);
  // Two normal requests occupy the whole bound while the worker is busy
  // with the blocker.
  auto blocker = occupy_worker(engine, rng);
  auto victim = engine.submit(random_image(rng));
  auto survivor = engine.submit(random_image(rng));

  // Third normal arrival: no lower class to evict -> fail-fast QueueFull.
  auto rejected = engine.submit(random_image(rng));
  EXPECT_THROW((void)rejected.get(), runtime::QueueFull);

  // High arrival: evicts the oldest normal waiter instead.
  runtime::SubmitOptions high;
  high.priority = runtime::Priority::kHigh;
  auto admitted = engine.submit(random_image(rng), high);
  EXPECT_THROW((void)victim.get(), runtime::QueueFull);
  EXPECT_GE(admitted.get().predicted, 0);
  EXPECT_GE(survivor.get().predicted, 0);
  EXPECT_GE(blocker.get().predicted, 0);

  const auto stats = engine.stats();
  EXPECT_EQ(stats.requests(), 3u);  // blocker, high and surviving normal
  EXPECT_EQ(stats.rejected(), 1u);
  EXPECT_EQ(stats.evicted(), 1u);
  EXPECT_EQ(stats.shed(), 2u);
  const auto& normal = stats.priorities[static_cast<std::size_t>(
      runtime::Priority::kNormal)];
  EXPECT_EQ(normal.rejected, 1u);
  EXPECT_EQ(normal.evicted, 1u);

  const std::string json = stats.to_json();
  EXPECT_NE(json.find("\"rejected\""), std::string::npos);
  EXPECT_NE(json.find("\"evicted\""), std::string::npos);
  EXPECT_NE(json.find("\"shed\""), std::string::npos);
  EXPECT_NE(json.find("\"measured_request_ms\""), std::string::npos);
  EXPECT_NE(json.find("\"modeled_request_ms\""), std::string::npos);
}

TEST(InferenceEngine, NonEvictableSubmitSurvivesHighPressure) {
  models::Network net = make_net(31);
  EngineConfig cfg = held_worker_config(64);
  cfg.max_queue_depth = 1;
  InferenceEngine engine(net, cfg);

  util::Rng rng(31);
  auto blocker = occupy_worker(engine, rng);
  runtime::SubmitOptions pinned;
  pinned.priority = runtime::Priority::kLow;
  pinned.evictable = false;
  auto protected_low = engine.submit(random_image(rng), pinned);

  runtime::SubmitOptions high;
  high.priority = runtime::Priority::kHigh;
  auto bounced = engine.submit(random_image(rng), high);
  // Nothing evictable below it: the high arrival itself is shed.
  EXPECT_THROW((void)bounced.get(), runtime::QueueFull);
  EXPECT_GE(protected_low.get().predicted, 0);
  EXPECT_GE(blocker.get().predicted, 0);

  const auto stats = engine.stats();
  EXPECT_EQ(stats.evicted(), 0u);
  EXPECT_EQ(stats.priorities[static_cast<std::size_t>(
                                 runtime::Priority::kHigh)]
                .rejected,
            1u);
}

TEST(InferenceEngine, MeasuredLatencyWarmsFromServedTraffic) {
  models::Network net = make_net(32);
  EngineConfig cfg;
  cfg.max_batch = 4;
  cfg.backends = {BackendConfig{}, BackendConfig{}};
  InferenceEngine engine(net, cfg);

  util::Rng rng(32);
  // Cold: the EWMA reports 0 and cost_order() runs on the model.
  const auto cold = engine.stats();
  EXPECT_DOUBLE_EQ(cold.backends[0].measured_request_seconds, 0.0);
  EXPECT_GT(cold.backends[0].modeled_request_seconds, 0.0);

  std::vector<std::future<InferenceResult>> futures;
  for (int i = 0; i < 24; ++i) {
    futures.push_back(engine.submit(random_image(rng)));
  }
  for (auto& f : futures) EXPECT_GE(f.get().predicted, 0);

  const auto stats = engine.stats();
  EXPECT_EQ(stats.requests(), 24u);
  // At least one backend served enough batches to warm its EWMA, and the
  // warmed measurement is surfaced through stats.
  double stats_max = 0.0;
  for (const auto& b : stats.backends) {
    stats_max = std::max(stats_max, b.measured_request_seconds);
    EXPECT_GT(b.modeled_request_seconds, 0.0);
  }
  EXPECT_GT(stats_max, 0.0);
}

// The cluster-level gauge applies cost_order()'s cold-start rule: a cold
// backend counts at its model capped at the cheapest warm measurement,
// not at an A9 model that can be far slower than this host.
TEST(InferenceEngine, AggregateLoadCapsColdBackendAtWarmMeasurement) {
  models::Network net = make_net(35);
  EngineConfig cfg;
  cfg.max_batch = 1;
  cfg.backends = {BackendConfig{}, BackendConfig{}};
  InferenceEngine engine(net, cfg);

  util::Rng rng(35);
  SubmitOptions pinned;
  pinned.backend = 0;
  for (int i = 0; i < 4; ++i) {
    EXPECT_GE(engine.submit(random_image(rng), pinned).get().predicted, 0);
  }
  const auto stats = engine.stats();
  const double warm = stats.backends[0].measured_request_seconds;
  ASSERT_GT(warm, 0.0);
  // Backend 1 never ran.
  ASSERT_DOUBLE_EQ(stats.backends[1].measured_request_seconds, 0.0);

  // Parallel servers: 1 / (1/t0 + 1/t1), with t1 the capped model.
  const double cold =
      std::min(stats.backends[1].modeled_request_seconds, warm);
  const double expected = 1.0 / (1.0 / warm + 1.0 / cold);
  EXPECT_NEAR(engine.aggregate_load().measured_request_seconds, expected,
              1e-12 * expected);
}

// Admission control racing the hot-swap publish path: producers hammer a
// tightly bounded queue while reload() publishes new versions. Every
// future must settle exactly once — served, shed with QueueFull, or
// expired with DeadlineExceeded — and the counters must account for
// every submit.
TEST(InferenceEngine, StressRejectDuringHotSwapSettlesEveryFuture) {
  models::Network net = make_net(34);
  EngineConfig cfg;
  cfg.max_batch = 4;
  cfg.max_queue_depth = 6;
  BackendConfig two_workers;
  two_workers.workers = 2;
  cfg.backends = {two_workers, BackendConfig{}};
  InferenceEngine engine(net, cfg);

  constexpr int kProducers = 4;
  constexpr int kPerProducer = 40;
  std::vector<std::vector<std::future<InferenceResult>>> futures(kProducers);
  for (auto& lane : futures) lane.reserve(kPerProducer);

  std::vector<std::thread> producers;
  for (int t = 0; t < kProducers; ++t) {
    producers.emplace_back([&, t] {
      util::Rng rng(3000 + static_cast<std::uint64_t>(t));
      for (int i = 0; i < kPerProducer; ++i) {
        runtime::SubmitOptions opts;
        opts.priority = static_cast<runtime::Priority>((t + i) % 3);
        if (i % 4 == 0) opts.deadline = std::chrono::milliseconds(50);
        futures[static_cast<std::size_t>(t)].push_back(
            engine.submit(random_image(rng), opts));
      }
    });
  }
  models::ModelSnapshot::Ptr last;
  for (int r = 0; r < 5; ++r) {
    models::Network retrained = make_net(300 + static_cast<std::uint64_t>(r));
    last = retrained.export_snapshot();
    engine.reload(last);
    std::this_thread::sleep_for(std::chrono::microseconds(300));
  }
  for (auto& p : producers) p.join();

  std::uint64_t served = 0, shed = 0;
  for (auto& lane : futures) {
    for (auto& f : lane) {
      ASSERT_TRUE(f.valid());
      try {
        EXPECT_GE(f.get().predicted, 0);
        ++served;
      } catch (const runtime::QueueFull&) {
        ++shed;
      } catch (const runtime::DeadlineExceeded&) {
        ++shed;
      }
      EXPECT_FALSE(f.valid());
    }
  }
  EXPECT_EQ(served + shed, static_cast<std::uint64_t>(kProducers *
                                                      kPerProducer));

  const auto stats = engine.stats();
  EXPECT_EQ(stats.requests(), served);
  EXPECT_EQ(stats.shed(), shed);
  EXPECT_EQ(stats.model_version, last->version());
  // The engine survived the races and still serves on the last version.
  util::Rng rng(34);
  EXPECT_GE(engine.submit(random_image(rng)).get().predicted, 0);
}

TEST(InferenceEngine, ReloadResetsMeasuredEwmaToColdState) {
  // A hot-swap re-keys every versioned weight cache, so the first batches
  // on the new snapshot pay one-off repack work; the engine drops the
  // measured service-time EWMAs back to cold and re-warms from fresh
  // traffic instead of routing on stale pre-swap measurements.
  models::Network net = make_net(40);
  models::Network next = make_net(41);
  EngineConfig cfg;
  cfg.max_batch = 4;
  cfg.backends = {BackendConfig{}, BackendConfig{}};
  InferenceEngine engine(net, cfg);

  util::Rng rng(40);
  std::vector<std::future<InferenceResult>> futures;
  for (int i = 0; i < 24; ++i) {
    futures.push_back(engine.submit(random_image(rng)));
  }
  for (auto& f : futures) EXPECT_GE(f.get().predicted, 0);
  double warm_max = 0.0;
  for (const auto& b : engine.stats().backends) {
    warm_max = std::max(warm_max, b.measured_request_seconds);
  }
  ASSERT_GT(warm_max, 0.0) << "EWMA never warmed; test cannot proceed";

  engine.reload(next.export_snapshot());
  for (const auto& b : engine.stats().backends) {
    EXPECT_DOUBLE_EQ(b.measured_request_seconds, 0.0)
        << "backend " << b.name << " EWMA survived the reload";
  }

  // Fresh traffic re-warms at least one backend.
  futures.clear();
  for (int i = 0; i < 24; ++i) {
    futures.push_back(engine.submit(random_image(rng)));
  }
  for (auto& f : futures) EXPECT_GE(f.get().predicted, 0);
  double rewarm_max = 0.0;
  for (const auto& b : engine.stats().backends) {
    rewarm_max = std::max(rewarm_max, b.measured_request_seconds);
  }
  EXPECT_GT(rewarm_max, 0.0);
}

namespace {

/// Nudges only params under `prefix` ("fc.", "layer3_2.", ...), leaving
/// the rest of the network untouched — shapes the per-stage deltas the
/// registry tests ship.
void perturb_params(models::Network& net, const std::string& prefix,
                    float delta) {
  for (core::Param* p : net.params()) {
    if (p->name.rfind(prefix, 0) == 0) {
      for (std::size_t i = 0; i < p->value.numel(); ++i) {
        p->value.data()[i] += delta;
      }
    }
  }
  net.set_weight_version(0);  // weights mutated in place: invalidate packs
}

}  // namespace

TEST(InferenceEngine, ServeFromRegistrySeedsFollowsAndGatesReload) {
  models::SnapshotRegistry::Config reg_cfg;
  reg_cfg.gate_delta = 0.05;
  models::SnapshotRegistry registry(reg_cfg);
  // Score by version id: everything is fine except versions marked bad.
  std::set<std::uint64_t> bad_versions;
  registry.set_eval([&bad_versions](const models::ModelSnapshot& s) {
    return bad_versions.count(s.version()) != 0 ? 0.2 : 0.9;
  });

  models::Network net = make_net(50);
  EngineConfig cfg;
  cfg.max_batch = 4;
  cfg.model = "prod";
  InferenceEngine engine(net, cfg);
  const std::uint64_t v0 = engine.model_version();

  // Binding an empty registry seeds it with the serving snapshot.
  engine.serve_from(registry);
  ASSERT_NE(registry.active("prod"), nullptr);
  EXPECT_EQ(registry.active("prod")->version(), v0);
  EXPECT_THROW(engine.serve_from(registry), odenet::Error);

  util::Rng rng(50);
  core::Tensor image = random_image(rng);
  const InferenceResult before = engine.submit(image).get();
  EXPECT_EQ(before.model_version, v0);

  // reload() on a bound engine is a registry publish: the new version is
  // retained AND the engine adopts it through its subscription.
  models::Network retrained = make_net(51);
  const auto snap1 = retrained.export_snapshot();
  EXPECT_EQ(engine.reload(snap1), snap1->version());
  EXPECT_EQ(engine.model_version(), snap1->version());
  EXPECT_EQ(registry.active("prod")->version(), snap1->version());
  EXPECT_EQ(registry.versions("prod").size(), 2u);
  EXPECT_EQ(engine.submit(image).get().model_version, snap1->version());

  // A gated regression is refused: reload throws, nothing was retained,
  // and the engine keeps serving what it served.
  models::Network bad = make_net(52);
  const auto bad_snap = bad.export_snapshot();
  bad_versions.insert(bad_snap->version());
  EXPECT_THROW(engine.reload(bad_snap), odenet::Error);
  EXPECT_EQ(engine.model_version(), snap1->version());
  EXPECT_EQ(registry.versions("prod").size(), 2u);

  // Rollback through the registry lands on the engine like a publish;
  // the rolled-back engine is bitwise the engine it used to be.
  registry.rollback("prod", v0);
  EXPECT_EQ(engine.model_version(), v0);
  const InferenceResult after = engine.submit(image).get();
  EXPECT_EQ(after.model_version, v0);
  for (std::size_t c = 0; c < after.logits.numel(); ++c) {
    EXPECT_EQ(after.logits.data()[c], before.logits.data()[c]) << "logit " << c;
  }
}

// Acceptance: rollback under load with zero dropped or mis-versioned
// requests. Producers hammer a registry-bound engine while the main
// thread races publishes and rollbacks; every future fulfills exactly
// once, every result carries a version that was actually published, and
// the post-drain engine bitwise-matches a cold engine on the rolled-back
// snapshot.
TEST(InferenceEngine, StressRollbackRacesPublishesWithoutMisversionedResults) {
  models::SnapshotRegistry registry;
  models::Network net = make_net(53);
  EngineConfig cfg;
  cfg.max_batch = 8;
  cfg.model = "prod";
  BackendConfig two_workers;
  two_workers.workers = 2;
  cfg.backends = {two_workers};
  InferenceEngine engine(net, cfg);
  const std::uint64_t v0 = engine.model_version();
  engine.serve_from(registry);
  registry.pin("prod", v0);  // the rollback target must survive retention

  std::set<std::uint64_t> published{v0};

  constexpr int kProducers = 4;
  constexpr int kPerProducer = 40;
  std::vector<std::vector<std::future<InferenceResult>>> futures(kProducers);
  for (auto& lane : futures) lane.reserve(kPerProducer);
  std::vector<std::thread> producers;
  for (int t = 0; t < kProducers; ++t) {
    producers.emplace_back([&, t] {
      util::Rng rng(3000 + static_cast<std::uint64_t>(t));
      for (int i = 0; i < kPerProducer; ++i) {
        futures[static_cast<std::size_t>(t)].push_back(
            engine.submit(random_image(rng)));
      }
    });
  }

  // Race a publish/rollback stream against the producers.
  for (int r = 0; r < 6; ++r) {
    models::Network retrained = make_net(300 + static_cast<std::uint64_t>(r));
    const auto snap = retrained.export_snapshot();
    ASSERT_TRUE(registry.publish("prod", snap).accepted);
    published.insert(snap->version());
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    if (r % 2 == 1) registry.rollback("prod", v0);
  }
  registry.rollback("prod", v0);
  for (auto& p : producers) p.join();

  int fulfilled = 0;
  for (auto& lane : futures) {
    for (auto& f : lane) {
      const InferenceResult res = f.get();  // exactly-once: get() consumes
      EXPECT_GE(res.predicted, 0);
      EXPECT_EQ(published.count(res.model_version), 1u)
          << "served on version " << res.model_version
          << " which was never published";
      ++fulfilled;
    }
  }
  EXPECT_EQ(fulfilled, kProducers * kPerProducer);
  const auto stats = engine.stats();
  EXPECT_EQ(stats.requests(),
            static_cast<std::uint64_t>(kProducers * kPerProducer));
  EXPECT_EQ(stats.timeouts(), 0u);
  EXPECT_EQ(engine.model_version(), v0);

  // Post-rollback serving bitwise-matches a cold engine on the retained
  // rollback target.
  util::Rng rng(53);
  core::Tensor image = random_image(rng);
  const InferenceResult hot = engine.submit(image).get();
  EXPECT_EQ(hot.model_version, v0);
  InferenceEngine cold(registry.find("prod", v0), cfg);
  const InferenceResult fresh = cold.submit(image).get();
  for (std::size_t c = 0; c < hot.logits.numel(); ++c) {
    EXPECT_EQ(hot.logits.data()[c], fresh.logits.data()[c]) << "logit " << c;
  }
}

// Acceptance: a delta publish ships only changed tensors, and the FPGA
// worker sync re-quantizes only the BRAM stages the delta touches — a
// head fine-tune leaves every offloaded trunk stage's BRAM image alone.
TEST(InferenceEngine, DeltaReloadRequantizesOnlyTouchedBramStages) {
  models::Network net = make_net(54);
  const auto snap0 = net.export_snapshot();
  EngineConfig cfg;
  cfg.max_batch = 1;  // per-image batches: batch-stat BN is deterministic
  BackendConfig fpga_sim;
  fpga_sim.backend = core::ExecBackend::kFpgaSim;
  cfg.backends = {fpga_sim};  // offloaded empty = rODENet-3's
                              // single ODE stage (layer3_2)
  InferenceEngine engine(snap0, cfg);

  util::Rng rng(54);
  core::Tensor image = random_image(rng);
  EXPECT_EQ(engine.submit(image).get().model_version, snap0->version());

  // Head-only delta: fc is served in software, so NO BRAM stage changed.
  perturb_params(net, "fc.", 0.01f);
  const auto snap1 = net.export_snapshot();
  const models::SnapshotDelta d01 = models::ModelSnapshot::diff(*snap0, *snap1);
  const auto head_only = models::ModelSnapshot::assemble(*snap0, d01);
  engine.reload(head_only);
  const InferenceResult head_hot = engine.submit(image).get();
  EXPECT_EQ(head_hot.model_version, head_only->version());
  {
    const auto b = engine.stats().backends[0];
    EXPECT_EQ(b.delta_swaps, 1u);
    EXPECT_EQ(b.stages_requantized, 0u) << "head fine-tune re-quantized BRAM";
    EXPECT_EQ(b.stages_skipped, 1u);
  }
  // The skipped BRAM images still serve correctly: parity with a cold
  // engine built from the assembled snapshot.
  InferenceEngine cold(head_only, cfg);
  EXPECT_LT(max_abs_diff(head_hot.logits, cold.submit(image).get().logits),
            1e-5);

  // Trunk delta touching the offloaded stage: it (and only it) is
  // re-quantized this time.
  perturb_params(net, "layer3_2.", 0.01f);
  const auto snap2 = net.export_snapshot();
  const models::SnapshotDelta d12 =
      models::ModelSnapshot::diff(*head_only, *snap2);
  const auto trunk_delta = models::ModelSnapshot::assemble(*head_only, d12);
  EXPECT_TRUE(trunk_delta->stage_changed(StageId::kLayer3_2));
  EXPECT_FALSE(trunk_delta->stage_changed(StageId::kLayer1));
  engine.reload(trunk_delta);
  EXPECT_EQ(engine.submit(image).get().model_version, trunk_delta->version());
  {
    const auto b = engine.stats().backends[0];
    EXPECT_EQ(b.delta_swaps, 2u);
    EXPECT_EQ(b.stages_requantized, 1u);
    EXPECT_EQ(b.stages_skipped, 1u);
  }

  // A full (non-delta) reload re-quantizes everything — the fallback the
  // delta path is measured against.
  models::Network other = make_net(55);
  engine.reload(other.export_snapshot());
  EXPECT_GE(engine.submit(image).get().predicted, 0);
  {
    const auto b = engine.stats().backends[0];
    EXPECT_EQ(b.delta_swaps, 2u);
    EXPECT_EQ(b.stages_requantized, 2u);
    EXPECT_EQ(b.stages_skipped, 1u);
  }
}
