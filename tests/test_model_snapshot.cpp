// models::ModelSnapshot — the versioned weight images behind hot-swap:
// capture/apply round trips, checkpoint (v2) serialization, legacy v1 blob
// rejection, version monotonicity, and spec-mismatch rejection.
#include <gtest/gtest.h>

#include <sstream>

#include "models/network.hpp"
#include "models/snapshot.hpp"
#include "util/rng.hpp"
#include "util/serialize.hpp"

using namespace odenet;
using models::Arch;
using models::ModelSnapshot;

namespace {

models::WidthConfig tiny_width() {
  return {.input_channels = 3, .input_size = 16, .base_channels = 4,
          .num_classes = 5};
}

models::Network make_net(std::uint64_t seed,
                         Arch arch = Arch::kROdeNet3) {
  models::Network net(models::make_spec(arch, 14, tiny_width()));
  util::Rng rng(seed);
  net.init(rng);
  return net;
}

/// Bitwise parameter equality between two networks.
void expect_params_equal(models::Network& a, models::Network& b) {
  auto pa = a.params();
  auto pb = b.params();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    ASSERT_EQ(pa[i]->name, pb[i]->name);
    ASSERT_EQ(pa[i]->value.numel(), pb[i]->value.numel());
    for (std::size_t j = 0; j < pa[i]->value.numel(); ++j) {
      ASSERT_EQ(pa[i]->value.data()[j], pb[i]->value.data()[j])
          << pa[i]->name << "[" << j << "]";
    }
  }
}

core::Tensor random_batch(util::Rng& rng, int n = 2) {
  core::Tensor x({n, 3, 16, 16});
  for (std::size_t i = 0; i < x.numel(); ++i) {
    x.data()[i] = static_cast<float>(rng.normal(0.0, 0.5));
  }
  return x;
}

}  // namespace

TEST(ModelSnapshot, VersionsAreStrictlyMonotonic) {
  models::Network net = make_net(1);
  const auto a = net.export_snapshot();
  const auto b = net.export_snapshot();
  const auto c = ModelSnapshot::capture(net);
  EXPECT_GT(a->version(), 0u);
  EXPECT_GT(b->version(), a->version());
  EXPECT_GT(c->version(), b->version());
}

TEST(ModelSnapshot, CaptureApplyRoundTripIsBitwise) {
  models::Network a = make_net(2);
  models::Network b = make_net(3);  // different init
  const auto snap = a.export_snapshot();
  EXPECT_GT(snap->param_floats(), 0u);
  b.apply_snapshot(*snap);
  expect_params_equal(a, b);

  // Applied weights behave identically, not just compare equal.
  a.set_training(false);
  b.set_training(false);
  util::Rng rng(33);
  core::Tensor x = random_batch(rng);
  core::Tensor la = a.forward(x);
  core::Tensor lb = b.forward(x);
  for (std::size_t i = 0; i < la.numel(); ++i) {
    EXPECT_EQ(la.data()[i], lb.data()[i]) << "logit " << i;
  }
}

TEST(ModelSnapshot, SaveLoadRoundTripKeepsWeightsAndProvenance) {
  models::Network a = make_net(4);
  const auto snap = a.export_snapshot();
  std::stringstream ss;
  snap->save(ss);
  const auto loaded = ModelSnapshot::load(ss);
  // Version ids are process-unique hot-swap tokens: the load gets a FRESH
  // id (ids from other processes could collide), while the id the file
  // was saved under survives as provenance.
  EXPECT_GT(loaded->version(), snap->version());
  EXPECT_EQ(loaded->saved_version(), snap->version());
  EXPECT_EQ(snap->saved_version(), 0u);  // fresh captures have none
  EXPECT_EQ(loaded->spec().arch, Arch::kROdeNet3);
  EXPECT_EQ(loaded->spec().n, 14);
  ASSERT_EQ(loaded->params().size(), snap->params().size());
  for (std::size_t i = 0; i < snap->params().size(); ++i) {
    EXPECT_EQ(loaded->params()[i].name, snap->params()[i].name);
    EXPECT_EQ(loaded->params()[i].values, snap->params()[i].values);
  }
  // A capture after loading stays newer than the stored id.
  EXPECT_GT(a.export_snapshot()->version(), loaded->version());
}

TEST(ModelSnapshot, NetworkCheckpointWrappersRoundTrip) {
  models::Network a = make_net(5);
  models::Network b = make_net(6);
  std::stringstream ss;
  a.save_weights(ss);
  b.load_weights(ss);
  expect_params_equal(a, b);
}

TEST(ModelSnapshot, LegacyV1BlobIsRejected) {
  models::Network a = make_net(7);
  const auto snap = a.export_snapshot();
  // The retired v1 checkpoint layout, built by hand: v1 header, then
  // params, then BN running statistics — no descriptor, no version id.
  std::stringstream ss;
  util::BinaryWriter w(ss);
  w.write_u32(util::kWeightsMagic);
  w.write_u32(1);
  w.write_u64(snap->params().size());
  for (const auto& p : snap->params()) {
    w.write_string(p.name);
    w.write_floats(p.values);
  }
  w.write_u64(snap->bn_stats().size());
  for (const auto& bn : snap->bn_stats()) {
    w.write_floats(bn.mean);
    w.write_floats(bn.var);
  }

  EXPECT_THROW(ModelSnapshot::load(ss), odenet::Error);
}

TEST(ModelSnapshot, SpecMismatchIsRejected) {
  models::Network ode = make_net(9, Arch::kROdeNet3);
  models::Network resnet = make_net(10, Arch::kResNet);
  const auto snap = ode.export_snapshot();
  EXPECT_THROW(snap->check_compatible(resnet.spec()), odenet::Error);
  EXPECT_THROW(resnet.apply_snapshot(*snap), odenet::Error);

  // Same architecture, different width: also rejected.
  models::WidthConfig wide = tiny_width();
  wide.base_channels = 8;
  models::Network wider(models::make_spec(Arch::kROdeNet3, 14, wide));
  EXPECT_THROW(wider.apply_snapshot(*snap), odenet::Error);

  // The matching network passes.
  EXPECT_NO_THROW(snap->check_compatible(ode.spec()));
}

TEST(ModelSnapshot, TruncatedStreamFailsLoudly) {
  models::Network a = make_net(11);
  std::stringstream ss;
  a.save_weights(ss);
  const std::string blob = ss.str();
  std::stringstream truncated(blob.substr(0, blob.size() / 2));
  EXPECT_THROW((void)ModelSnapshot::load(truncated), odenet::Error);
}

TEST(ModelSnapshot, SharedImageSurvivesSourceMutation) {
  models::Network a = make_net(12);
  const auto snap = a.export_snapshot();
  const std::vector<float> frozen = snap->params()[0].values;
  // Mutate the source network after capture; the snapshot is immutable.
  a.params()[0]->value.fill(123.0f);
  EXPECT_EQ(snap->params()[0].values, frozen);
  // And applying it restores the captured weights.
  a.apply_snapshot(*snap);
  EXPECT_EQ(a.params()[0]->value.data()[0], frozen[0]);
}
