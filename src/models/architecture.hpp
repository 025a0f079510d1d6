// Network architecture specifications (paper Tables 2 and 4).
//
// Seven architectures over the same seven stages:
//   conv1 | layer1 | layer2_1 | layer2_2 | layer3_1 | layer3_2 | fc
// differing only in how many block *instances* each stage stacks and how
// many times each instance is *executed* (Table 4). A stage whose single
// instance is executed more than once is an ODEBlock (weight-shared,
// integrated with an ODE solver); stages executed once are plain blocks.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/check.hpp"

namespace odenet::models {

enum class Arch {
  kResNet,
  kOdeNet,
  kROdeNet1,
  kROdeNet2,
  kROdeNet12,
  kROdeNet3,
  kHybrid3,
};

/// All seven architectures, in the paper's Table-4 column order.
const std::vector<Arch>& all_archs();
std::string arch_name(Arch a);

enum class StageId {
  kConv1,
  kLayer1,
  kLayer2_1,
  kLayer2_2,
  kLayer3_1,
  kLayer3_2,
  kFc,
};
std::string stage_name(StageId id);

/// Geometry/width knobs. Paper defaults: CIFAR input (3x32x32), 16 base
/// channels, 100 classes. Tests and the scaled-down training benches shrink
/// these without touching any architecture logic.
struct WidthConfig {
  int input_channels = 3;
  int input_size = 32;
  int base_channels = 16;
  int num_classes = 100;
};

/// One stage of a concrete architecture.
struct StageSpec {
  StageId id{};
  /// Block instances implemented (0 = stage removed).
  int stacked_blocks = 0;
  /// Executions per instance (>1 implies an ODEBlock).
  int executions = 0;
  /// Geometry.
  int in_channels = 0;
  int out_channels = 0;
  int stride = 1;
  /// Input spatial extent seen by this stage.
  int in_size = 0;

  bool is_ode() const { return stacked_blocks == 1 && executions > 1; }
  /// Total block executions contributed to the forward pass.
  int total_executions() const { return stacked_blocks * executions; }
};

struct NetworkSpec {
  Arch arch{};
  int n = 0;  // the "N" in ResNet-N
  WidthConfig width;
  /// The five residual stages in order: layer1, layer2_1, layer2_2,
  /// layer3_1, layer3_2 (removed stages carry stacked_blocks == 0).
  std::vector<StageSpec> stages;

  const StageSpec& stage(StageId id) const;
  /// Sum of block executions over all stages (equal for every architecture
  /// at a given N — the paper's design invariant).
  int total_block_executions() const;
};

/// True when N is a valid depth for this architecture: N ≡ 2 (mod 6) and
/// N ≥ 14 (paper evaluates 20..56); rODENet-1+2 additionally needs its
/// execution split (N-4)/4 and (N-8)/4 to be integral.
bool valid_depth(Arch arch, int n);

/// Builds the Table-4 specification. Throws on invalid depth.
NetworkSpec make_spec(Arch arch, int n, const WidthConfig& width = {});

/// Table-4 cell as the paper prints it: "stacked / executions".
std::string table4_cell(const NetworkSpec& spec, StageId id);

}  // namespace odenet::models
