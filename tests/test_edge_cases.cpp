// Edge cases and failure injection across modules.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>

#include "conv_reference.hpp"
#include "core/init.hpp"
#include "data/cifar.hpp"
#include "data/dataloader.hpp"
#include "data/synthetic.hpp"
#include "fpga/bn_engine.hpp"
#include "models/network.hpp"
#include "sched/explorer.hpp"
#include "util/rng.hpp"

using namespace odenet;
namespace ou = odenet::util;

TEST(ConvEdge, OneByOneKernel) {
  // 1x1 convolution is a per-pixel channel mix.
  core::Conv2d conv({.in_channels = 2, .out_channels = 1, .kernel = 1,
                     .stride = 1, .pad = 0});
  conv.weight().value.at(0, 0, 0, 0) = 2.0f;
  conv.weight().value.at(0, 1, 0, 0) = -1.0f;
  core::Tensor x({1, 2, 2, 2});
  x.at(0, 0, 0, 0) = 3.0f;
  x.at(0, 1, 0, 0) = 1.0f;
  core::Tensor y = conv.forward(x);
  EXPECT_EQ(y.shape(), (std::vector<int>{1, 1, 2, 2}));
  EXPECT_FLOAT_EQ(y.at(0, 0, 0, 0), 5.0f);
}

TEST(ConvEdge, FiveByFiveKernelMatchesReference) {
  ou::Rng rng(1);
  core::Conv2d conv({.in_channels = 2, .out_channels = 3, .kernel = 5,
                     .stride = 1, .pad = 2});
  core::init_conv(conv, rng);
  core::Tensor x({1, 2, 7, 7});
  for (std::size_t i = 0; i < x.numel(); ++i) {
    x.data()[i] = static_cast<float>(rng.normal(0, 1));
  }
  core::Tensor a = conv_reference::forward(x, conv.weight().value, 1, 2);
  core::Tensor b = conv.forward(x);
  ASSERT_TRUE(a.same_shape(b));
  for (std::size_t i = 0; i < a.numel(); ++i) {
    EXPECT_NEAR(a.data()[i], b.data()[i], 1e-4f);
  }
}

TEST(BatchNormEdge, ConstantChannelStaysFinite) {
  core::BatchNorm2d bn(1);
  bn.set_training(true);
  core::Tensor x = core::Tensor::full({2, 1, 3, 3}, 5.0f);  // zero variance
  core::Tensor y = bn.forward(x);
  for (std::size_t i = 0; i < y.numel(); ++i) {
    EXPECT_TRUE(std::isfinite(y.data()[i]));
    EXPECT_NEAR(y.data()[i], 0.0f, 1e-3f);  // (x - mean) == 0
  }
  // Backward on the degenerate input is finite too.
  core::Tensor g = core::Tensor::full({2, 1, 3, 3}, 1.0f);
  core::Tensor gin = bn.backward(g);
  for (std::size_t i = 0; i < gin.numel(); ++i) {
    EXPECT_TRUE(std::isfinite(gin.data()[i]));
  }
}

TEST(BnEngineEdge, NonPowerOfTwoPlaneUsesDividerPath) {
  // extent 5 -> 25 elements/channel: the mean/variance divisions take the
  // bit-serial divider path instead of the shift path.
  fpga::BnEngine engine({.channels = 2, .extent = 5});
  core::Tensor gamma = core::Tensor::full({2}, 1.0f);
  core::Tensor beta({2});
  engine.load_params(fixed::quantize(gamma, 20), fixed::quantize(beta, 20));

  ou::Rng rng(3);
  core::Tensor x({1, 2, 5, 5});
  for (std::size_t i = 0; i < x.numel(); ++i) {
    x.data()[i] = static_cast<float>(rng.normal(1.5, 2.0));
  }
  core::BatchNorm2d ref(2);
  ref.set_use_batch_stats_in_eval(true);
  core::Tensor want = ref.forward(x);
  auto got = fixed::dequantize(
      engine.run(fixed::quantize(x.reshaped({2, 5, 5}), 20)));
  for (std::size_t i = 0; i < want.numel(); ++i) {
    EXPECT_NEAR(got.data()[i], want.data()[i], 1e-2f);
  }
}

TEST(DataLoaderEdge, BatchLargerThanDataset) {
  data::SyntheticConfig cfg{.num_classes = 2, .images_per_class = 2};
  data::Dataset ds = data::make_synthetic(cfg);
  data::DataLoader loader(ds, {.batch_size = 100, .shuffle = false});
  EXPECT_EQ(loader.batches_per_epoch(), 1);
  auto b = loader.next();
  EXPECT_EQ(b.size(), 4);
  EXPECT_FALSE(loader.has_next());
}

TEST(CifarEdge, Cifar10LoaderParsesLabelFirstRecords) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "odenet_cifar10_test";
  fs::create_directories(dir);
  const fs::path file = dir / "data_batch_1.bin";
  {
    std::ofstream os(file, std::ios::binary);
    os.put(static_cast<char>(9));  // label
    for (int i = 0; i < 3072; ++i) os.put(static_cast<char>(i % 251));
  }
  data::Dataset ds = data::load_cifar10_file(file.string());
  EXPECT_EQ(ds.size(), 1u);
  EXPECT_EQ(ds.num_classes, 10);
  EXPECT_EQ(ds.labels[0], 9);
  EXPECT_EQ(ds.pixels[5], 5);
  fs::remove_all(dir);
}

TEST(CheckpointEdge, FileRoundTripOnDisk) {
  namespace fs = std::filesystem;
  ou::Rng rng(4);
  models::WidthConfig w{.input_channels = 3, .input_size = 16,
                        .base_channels = 4, .num_classes = 4};
  models::Network a(models::make_spec(models::Arch::kROdeNet3, 14, w));
  a.init(rng);
  const fs::path path = fs::temp_directory_path() / "odenet_ckpt_test.bin";
  {
    std::ofstream os(path, std::ios::binary);
    a.save_weights(os);
  }
  models::Network b(models::make_spec(models::Arch::kROdeNet3, 14, w));
  {
    std::ifstream is(path, std::ios::binary);
    b.load_weights(is);
  }
  core::Tensor x({1, 3, 16, 16});
  for (std::size_t i = 0; i < x.numel(); ++i) {
    x.data()[i] = static_cast<float>(rng.normal(0, 1));
  }
  core::Tensor la = a.forward(x);
  core::Tensor lb = b.forward(x);
  for (std::size_t i = 0; i < la.numel(); ++i) {
    EXPECT_FLOAT_EQ(la.data()[i], lb.data()[i]);
  }
  fs::remove(path);
}

TEST(CheckpointEdge, CorruptedFileThrows) {
  namespace fs = std::filesystem;
  ou::Rng rng(5);
  models::WidthConfig w{.input_channels = 3, .input_size = 16,
                        .base_channels = 4, .num_classes = 4};
  models::Network a(models::make_spec(models::Arch::kResNet, 14, w));
  a.init(rng);
  std::stringstream ss;
  a.save_weights(ss);
  std::string blob = ss.str();
  // Truncate: reader must throw, not return a half-loaded network.
  std::stringstream truncated(blob.substr(0, blob.size() / 2));
  models::Network b(models::make_spec(models::Arch::kResNet, 14, w));
  EXPECT_THROW(b.load_weights(truncated), odenet::Error);
}

TEST(ExplorerEdge, TimingFilterDisabledAdmitsX32) {
  sched::LatencyModel model;
  fpga::ResourceModel resources;
  sched::PartitionExplorer explorer(model, resources);
  sched::ExplorerOptions opts;
  opts.require_timing = false;
  auto all = explorer.enumerate(models::make_spec(models::Arch::kROdeNet3, 56),
                                opts);
  bool saw_x32 = false;
  for (const auto& c : all) {
    if (!c.partition.offloaded.empty() && c.partition.parallelism == 32) {
      saw_x32 = true;
      EXPECT_FALSE(c.timing_met);
    }
  }
  EXPECT_TRUE(saw_x32);
}

TEST(OdeBlockEdge, UnitTimeSpanDiffersFromResNetCompatible) {
  ou::Rng rng(6);
  models::OdeBlock resnet_like({.channels = 3, .executions = 4}, "rc");
  core::init_block(resnet_like.block(), rng);
  resnet_like.block().bn1().set_use_batch_stats_in_eval(true);
  resnet_like.block().bn2().set_use_batch_stats_in_eval(true);

  models::OdeBlock unit({.channels = 3, .executions = 4,
                         .time_span = models::TimeSpan::kUnit}, "u");
  auto src = resnet_like.block().params();
  auto dst = unit.block().params();
  for (std::size_t i = 0; i < src.size(); ++i) dst[i]->value = src[i]->value;
  unit.block().bn1().set_use_batch_stats_in_eval(true);
  unit.block().bn2().set_use_batch_stats_in_eval(true);

  core::Tensor x({1, 3, 5, 5});
  for (std::size_t i = 0; i < x.numel(); ++i) {
    x.data()[i] = static_cast<float>(rng.normal(0, 1));
  }
  core::Tensor a = resnet_like.forward(x);  // h = 1 per step
  core::Tensor b = unit.forward(x);         // h = 1/4 per step
  core::Tensor diff = a;
  diff.axpy(-1.0f, b);
  EXPECT_GT(diff.abs_max(), 1e-3f);
}

TEST(TensorEdge, ZeroSizedDimensions) {
  core::Tensor t({0, 3, 4, 4});
  EXPECT_EQ(t.numel(), 0u);
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.sum(), 0.0f);
}
