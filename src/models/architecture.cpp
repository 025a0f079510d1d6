#include "models/architecture.hpp"

#include <sstream>

namespace odenet::models {

const std::vector<Arch>& all_archs() {
  static const std::vector<Arch> archs = {
      Arch::kResNet,   Arch::kOdeNet,   Arch::kROdeNet1, Arch::kROdeNet2,
      Arch::kROdeNet12, Arch::kROdeNet3, Arch::kHybrid3};
  return archs;
}

std::string arch_name(Arch a) {
  switch (a) {
    case Arch::kResNet: return "ResNet";
    case Arch::kOdeNet: return "ODENet";
    case Arch::kROdeNet1: return "rODENet-1";
    case Arch::kROdeNet2: return "rODENet-2";
    case Arch::kROdeNet12: return "rODENet-1+2";
    case Arch::kROdeNet3: return "rODENet-3";
    case Arch::kHybrid3: return "Hybrid-3";
  }
  return "?";
}

std::string stage_name(StageId id) {
  switch (id) {
    case StageId::kConv1: return "conv1";
    case StageId::kLayer1: return "layer1";
    case StageId::kLayer2_1: return "layer2_1";
    case StageId::kLayer2_2: return "layer2_2";
    case StageId::kLayer3_1: return "layer3_1";
    case StageId::kLayer3_2: return "layer3_2";
    case StageId::kFc: return "fc";
  }
  return "?";
}

const StageSpec& NetworkSpec::stage(StageId id) const {
  for (const auto& s : stages) {
    if (s.id == id) return s;
  }
  ODENET_CHECK(false, "stage " << stage_name(id) << " not in spec");
  // Unreachable; silences the compiler.
  return stages.front();
}

int NetworkSpec::total_block_executions() const {
  int total = 0;
  for (const auto& s : stages) total += s.total_executions();
  return total;
}

bool valid_depth(Arch arch, int n) {
  if (n < 14 || (n - 2) % 6 != 0) return false;
  if (arch == Arch::kROdeNet12) {
    return (n - 4) % 4 == 0 && (n - 8) % 4 == 0;
  }
  return true;
}

namespace {

/// Per-stage (stacked, executions) as a function of arch and N — the
/// literal content of Table 4.
struct Counts {
  int stacked;
  int executions;
};

Counts stage_counts(Arch arch, StageId id, int n) {
  const int n1 = (n - 2) / 6;  // ResNet layer1 depth
  const int n23 = (n - 8) / 6; // ResNet layer2_2 / layer3_2 depth
  switch (id) {
    case StageId::kConv1:
    case StageId::kFc:
    case StageId::kLayer2_1:
    case StageId::kLayer3_1:
      return {1, 1};
    case StageId::kLayer1:
      switch (arch) {
        case Arch::kResNet:
        case Arch::kHybrid3: return {n1, 1};
        case Arch::kOdeNet: return {1, n1};
        case Arch::kROdeNet1: return {1, (n - 6) / 2};
        case Arch::kROdeNet2: return {1, 1};
        case Arch::kROdeNet12: return {1, (n - 4) / 4};
        case Arch::kROdeNet3: return {1, 1};
      }
      break;
    case StageId::kLayer2_2:
      switch (arch) {
        case Arch::kResNet:
        case Arch::kHybrid3: return {n23, 1};
        case Arch::kOdeNet: return {1, n23};
        case Arch::kROdeNet1: return {0, 0};
        case Arch::kROdeNet2: return {1, (n - 8) / 2};
        case Arch::kROdeNet12: return {1, (n - 8) / 4};
        case Arch::kROdeNet3: return {0, 0};
      }
      break;
    case StageId::kLayer3_2:
      switch (arch) {
        case Arch::kResNet: return {n23, 1};
        case Arch::kOdeNet: return {1, n23};
        case Arch::kROdeNet1: return {0, 0};
        case Arch::kROdeNet2: return {0, 0};
        case Arch::kROdeNet12: return {0, 0};
        case Arch::kROdeNet3: return {1, (n - 8) / 2};
        case Arch::kHybrid3: return {1, n23};
      }
      break;
  }
  return {0, 0};
}

}  // namespace

NetworkSpec make_spec(Arch arch, int n, const WidthConfig& width) {
  ODENET_CHECK(valid_depth(arch, n),
               "invalid depth N=" << n << " for " << arch_name(arch));
  const int c = width.base_channels;
  const int s = width.input_size;
  ODENET_CHECK(s % 4 == 0, "input size must be divisible by 4");

  NetworkSpec spec;
  spec.arch = arch;
  spec.n = n;
  spec.width = width;

  auto add = [&](StageId id, int in_ch, int out_ch, int stride, int in_size) {
    const Counts k = stage_counts(arch, id, n);
    spec.stages.push_back(StageSpec{.id = id,
                                    .stacked_blocks = k.stacked,
                                    .executions = k.executions,
                                    .in_channels = in_ch,
                                    .out_channels = out_ch,
                                    .stride = stride,
                                    .in_size = in_size});
  };

  add(StageId::kLayer1, c, c, 1, s);
  add(StageId::kLayer2_1, c, 2 * c, 2, s);
  add(StageId::kLayer2_2, 2 * c, 2 * c, 1, s / 2);
  add(StageId::kLayer3_1, 2 * c, 4 * c, 2, s / 2);
  add(StageId::kLayer3_2, 4 * c, 4 * c, 1, s / 4);
  return spec;
}

std::string table4_cell(const NetworkSpec& spec, StageId id) {
  if (id == StageId::kConv1 || id == StageId::kFc) return "1 / 1";
  const StageSpec& s = spec.stage(id);
  std::ostringstream os;
  os << s.stacked_blocks << " / " << s.executions;
  return os.str();
}

}  // namespace odenet::models
