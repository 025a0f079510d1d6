// models::SnapshotRegistry — the multi-tenant model store: accuracy-gated
// publish, delta publish accounting and assembly parity, rollback,
// retention eviction with pinning, and subscriber activation ordering.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "models/network.hpp"
#include "models/registry.hpp"
#include "models/snapshot.hpp"
#include "train/trainer.hpp"
#include "util/rng.hpp"

using namespace odenet;
using models::Arch;
using models::ModelSnapshot;
using models::SnapshotDelta;
using models::SnapshotRegistry;

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

/// Nudges only the classifier head, leaving the trunk untouched — the
/// head-fine-tune shape the delta path exists for.
void perturb_fc(models::Network& net, float delta) {
  for (core::Param* p : net.params()) {
    if (p->name.rfind("fc.", 0) == 0) {
      for (std::size_t i = 0; i < p->value.numel(); ++i) {
        p->value.data()[i] += delta;
      }
    }
  }
  net.set_weight_version(0);  // weights mutated in place: invalidate packs
}

std::vector<std::uint64_t> retained_versions(const SnapshotRegistry& reg,
                                             const std::string& model) {
  std::vector<std::uint64_t> out;
  for (const auto& v : reg.versions(model)) out.push_back(v.version);
  return out;
}

}  // namespace

TEST(SnapshotRegistry, PublishActivatesAndListsVersions) {
  SnapshotRegistry reg;
  models::Network net = make_net(1);
  EXPECT_EQ(reg.active("m"), nullptr);

  const auto snap = net.export_snapshot();
  const auto result = reg.publish("m", snap);
  EXPECT_TRUE(result.accepted);
  EXPECT_EQ(result.version, snap->version());
  EXPECT_FALSE(result.was_delta);
  EXPECT_EQ(result.tensors_shipped, result.tensors_total);
  EXPECT_EQ(result.bytes_shipped, result.bytes_total);
  EXPECT_GT(result.bytes_total, 0u);

  ASSERT_NE(reg.active("m"), nullptr);
  EXPECT_EQ(reg.active("m")->version(), snap->version());
  EXPECT_EQ(reg.find("m", snap->version()), snap);
  const auto versions = reg.versions("m");
  ASSERT_EQ(versions.size(), 1u);
  EXPECT_TRUE(versions[0].active);
  EXPECT_FALSE(versions[0].is_delta);

  // Models are namespaced: "m" is not visible under another name.
  EXPECT_EQ(reg.active("other"), nullptr);
  EXPECT_TRUE(reg.versions("other").empty());
}

TEST(SnapshotRegistry, AccuracyGateRefusesRegressionsAndKeepsActive) {
  SnapshotRegistry::Config cfg;
  cfg.gate_delta = 0.05;
  SnapshotRegistry reg(cfg);

  // Scores keyed by version so the eval is pure (called without
  // ordering guarantees).
  models::Network net = make_net(2);
  const auto good = net.export_snapshot();
  const auto bad = net.export_snapshot();
  const auto ok = net.export_snapshot();
  reg.set_eval([&](const ModelSnapshot& s) {
    if (s.version() == good->version()) return 0.90;
    if (s.version() == bad->version()) return 0.80;  // 0.10 regression
    return 0.88;                                     // within gate_delta
  });

  const auto r1 = reg.publish("m", good);
  EXPECT_TRUE(r1.accepted);
  EXPECT_DOUBLE_EQ(r1.accuracy, 0.90);

  const auto r2 = reg.publish("m", bad);
  EXPECT_FALSE(r2.accepted);
  EXPECT_FALSE(r2.reason.empty());
  EXPECT_DOUBLE_EQ(r2.accuracy, 0.80);
  EXPECT_DOUBLE_EQ(r2.active_accuracy, 0.90);
  // Refused snapshots are not retained and the active stays put.
  EXPECT_EQ(reg.active("m")->version(), good->version());
  EXPECT_EQ(reg.find("m", bad->version()), nullptr);
  ASSERT_EQ(reg.versions("m").size(), 1u);

  // A small regression within gate_delta passes.
  const auto r3 = reg.publish("m", ok);
  EXPECT_TRUE(r3.accepted);
  EXPECT_EQ(reg.active("m")->version(), ok->version());
}

TEST(SnapshotRegistry, DeltaPublishShipsOnlyChangedTensors) {
  SnapshotRegistry reg;
  models::Network net = make_net(3);
  const auto base = net.export_snapshot();
  ASSERT_TRUE(reg.publish("m", base).accepted);

  perturb_fc(net, 0.25f);
  const auto next = net.export_snapshot();
  const SnapshotDelta delta = ModelSnapshot::diff(*base, *next);
  // The head fine-tune touched exactly fc.weight + fc.bias.
  ASSERT_EQ(delta.params.size(), 2u);
  EXPECT_TRUE(delta.bns.empty());

  const auto result = reg.publish_delta("m", delta);
  EXPECT_TRUE(result.accepted);
  EXPECT_TRUE(result.was_delta);
  EXPECT_EQ(result.tensors_shipped, 2u);
  EXPECT_GT(result.tensors_total, result.tensors_shipped);
  EXPECT_EQ(result.bytes_shipped, delta.payload_bytes());
  EXPECT_LT(result.bytes_shipped, result.bytes_total);

  // The assembled active image equals the full next image bitwise, under
  // a fresh version (assembly mints its own id).
  const auto active = reg.active("m");
  ASSERT_NE(active, nullptr);
  EXPECT_EQ(active->version(), result.version);
  EXPECT_NE(active->version(), next->version());
  EXPECT_TRUE(active->is_delta());
  EXPECT_EQ(active->delta_base(), base->version());
  ASSERT_EQ(active->params().size(), next->params().size());
  for (std::size_t i = 0; i < next->params().size(); ++i) {
    EXPECT_EQ(active->params()[i].values, next->params()[i].values)
        << next->params()[i].name;
  }
  EXPECT_EQ(active->changed_tensor_count(), 2u);
  EXPECT_EQ(active->changed_payload_bytes(), delta.payload_bytes());
}

TEST(SnapshotRegistry, DeltaAgainstEvictedBaseThrows) {
  SnapshotRegistry::Config cfg;
  cfg.retention = 1;
  SnapshotRegistry reg(cfg);
  models::Network net = make_net(4);
  const auto v1 = net.export_snapshot();
  ASSERT_TRUE(reg.publish("m", v1).accepted);
  perturb_fc(net, 0.1f);
  const auto v2 = net.export_snapshot();
  const SnapshotDelta stale = ModelSnapshot::diff(*v1, *v2);
  ASSERT_TRUE(reg.publish("m", v2).accepted);  // retention 1 evicts v1
  EXPECT_EQ(reg.find("m", v1->version()), nullptr);
  EXPECT_THROW(reg.publish_delta("m", stale), odenet::Error);
}

TEST(SnapshotRegistry, RollbackReactivatesARetainedVersion) {
  SnapshotRegistry reg;
  models::Network net = make_net(5);
  const auto v1 = net.export_snapshot();
  perturb_fc(net, 0.1f);
  const auto v2 = net.export_snapshot();
  ASSERT_TRUE(reg.publish("m", v1).accepted);
  ASSERT_TRUE(reg.publish("m", v2).accepted);
  EXPECT_EQ(reg.active("m")->version(), v2->version());

  std::vector<std::uint64_t> activations;
  const std::uint64_t token =
      reg.subscribe("m", [&](const std::string& model, ModelSnapshot::Ptr s) {
        EXPECT_EQ(model, "m");
        activations.push_back(s->version());
      });
  // Subscribing with an active version fires immediately.
  ASSERT_EQ(activations.size(), 1u);
  EXPECT_EQ(activations[0], v2->version());

  reg.rollback("m", v1->version());
  EXPECT_EQ(reg.active("m")->version(), v1->version());
  ASSERT_EQ(activations.size(), 2u);
  EXPECT_EQ(activations[1], v1->version());

  // Rolling back to the already-active version is a silent no-op.
  reg.rollback("m", v1->version());
  EXPECT_EQ(activations.size(), 2u);

  // Unknown versions / models throw.
  EXPECT_THROW(reg.rollback("m", 999999), odenet::Error);
  EXPECT_THROW(reg.rollback("ghost", v1->version()), odenet::Error);

  reg.unsubscribe(token);
  reg.rollback("m", v2->version());
  EXPECT_EQ(activations.size(), 2u);  // unsubscribed: no more callbacks
}

TEST(SnapshotRegistry, RetentionEvictsOldestButKeepsPinnedAndActive) {
  SnapshotRegistry::Config cfg;
  cfg.retention = 2;
  SnapshotRegistry reg(cfg);
  models::Network net = make_net(6);

  const auto v1 = net.export_snapshot();
  ASSERT_TRUE(reg.publish("m", v1).accepted);
  reg.pin("m", v1->version());

  std::vector<std::uint64_t> published = {v1->version()};
  for (int i = 0; i < 3; ++i) {
    perturb_fc(net, 0.05f);
    const auto snap = net.export_snapshot();
    published.push_back(snap->version());
    ASSERT_TRUE(reg.publish("m", snap).accepted);
  }

  // The ring targets `retention` entries total; the pinned v1 survives
  // every sweep, so it + the active v4 fill the budget of 2.
  EXPECT_EQ(retained_versions(reg, "m"),
            (std::vector<std::uint64_t>{published[0], published[3]}));
  const auto infos = reg.versions("m");
  EXPECT_TRUE(infos[0].pinned);
  EXPECT_TRUE(infos[1].active);

  // Unpinning makes v1 evictable on the next publish.
  reg.unpin("m", v1->version());
  perturb_fc(net, 0.05f);
  const auto v5 = net.export_snapshot();
  ASSERT_TRUE(reg.publish("m", v5).accepted);
  EXPECT_EQ(retained_versions(reg, "m"),
            (std::vector<std::uint64_t>{published[3], v5->version()}));

  EXPECT_THROW(reg.pin("m", published[1]), odenet::Error);  // evicted
}

TEST(SnapshotRegistry, TrainerPublishesDeltasIntoTheRegistry) {
  SnapshotRegistry reg;
  models::Network net = make_net(7);
  train::TrainerConfig cfg;
  cfg.registry = &reg;
  cfg.registry_model = "trained";
  train::Trainer trainer(net, cfg);

  // First publish ships the full image.
  const auto first = trainer.publish_snapshot();
  EXPECT_TRUE(trainer.last_publish().accepted);
  EXPECT_FALSE(trainer.last_publish().was_delta);
  ASSERT_NE(reg.active("trained"), nullptr);
  EXPECT_EQ(reg.active("trained")->version(), first->version());

  // A head-only change travels as a 2-tensor delta.
  perturb_fc(net, 0.125f);
  (void)trainer.publish_snapshot();
  EXPECT_TRUE(trainer.last_publish().accepted);
  EXPECT_TRUE(trainer.last_publish().was_delta);
  EXPECT_EQ(trainer.last_publish().tensors_shipped, 2u);
  EXPECT_LT(trainer.last_publish().bytes_shipped,
            trainer.last_publish().bytes_total);

  // The assembled registry image matches the live network's weights.
  const auto active = reg.active("trained");
  ASSERT_NE(active, nullptr);
  models::Network check = make_net(8);
  check.apply_snapshot(*active);
  auto live = net.params();
  auto loaded = check.params();
  ASSERT_EQ(live.size(), loaded.size());
  for (std::size_t i = 0; i < live.size(); ++i) {
    for (std::size_t j = 0; j < live[i]->value.numel(); ++j) {
      ASSERT_EQ(live[i]->value.data()[j], loaded[i]->value.data()[j])
          << live[i]->name << "[" << j << "]";
    }
  }

  // At retention 1 another publisher's version evicts the trainer's
  // base, so the trainer's next publish re-ships the full image.
  SnapshotRegistry small_reg(SnapshotRegistry::Config{.retention = 1});
  models::Network net2 = make_net(9);
  train::TrainerConfig cfg2;
  cfg2.registry = &small_reg;
  cfg2.registry_model = "full";
  train::Trainer t2(net2, cfg2);
  const auto base = t2.publish_snapshot();
  ASSERT_TRUE(t2.last_publish().accepted);
  models::Network other = make_net(10);
  ASSERT_TRUE(small_reg.publish("full", other.export_snapshot()).accepted);
  ASSERT_EQ(small_reg.find("full", base->version()), nullptr);
  perturb_fc(net2, 0.125f);
  (void)t2.publish_snapshot();
  EXPECT_TRUE(t2.last_publish().accepted);
  EXPECT_FALSE(t2.last_publish().was_delta);
  EXPECT_EQ(t2.last_publish().tensors_shipped,
            t2.last_publish().tensors_total);
  EXPECT_EQ(t2.last_publish().bytes_shipped, t2.last_publish().bytes_total);
}
