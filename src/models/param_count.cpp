#include "models/param_count.hpp"

#include <sstream>

namespace odenet::models {

std::size_t conv1_param_count(const WidthConfig& w) {
  const std::size_t conv = static_cast<std::size_t>(w.base_channels) *
                           w.input_channels * 9;
  const std::size_t bn = 2 * static_cast<std::size_t>(w.base_channels);
  return conv + bn;
}

std::size_t block_param_count(int in_channels, int out_channels,
                              bool time_channel) {
  const int t = time_channel ? 1 : 0;
  const std::size_t conv1 =
      static_cast<std::size_t>(out_channels) * (in_channels + t) * 9;
  const std::size_t conv2 =
      static_cast<std::size_t>(out_channels) * (out_channels + t) * 9;
  const std::size_t bn = 2 * 2 * static_cast<std::size_t>(out_channels);
  return conv1 + conv2 + bn;
}

std::size_t fc_param_count(const WidthConfig& w) {
  return static_cast<std::size_t>(4 * w.base_channels) * w.num_classes +
         static_cast<std::size_t>(w.num_classes);
}

std::size_t stage_param_count(const StageSpec& spec) {
  if (spec.stacked_blocks == 0) return 0;
  if (spec.is_ode()) {
    return block_param_count(spec.in_channels, spec.out_channels,
                             /*time_channel=*/true);
  }
  std::size_t total = block_param_count(spec.in_channels, spec.out_channels,
                                        /*time_channel=*/false);
  for (int i = 1; i < spec.stacked_blocks; ++i) {
    total += block_param_count(spec.out_channels, spec.out_channels,
                               /*time_channel=*/false);
  }
  return total;
}

std::size_t network_param_count(const NetworkSpec& spec) {
  std::size_t total = conv1_param_count(spec.width) + fc_param_count(spec.width);
  for (const auto& s : spec.stages) total += stage_param_count(s);
  return total;
}

double network_param_bytes(const NetworkSpec& spec) {
  return static_cast<double>(network_param_count(spec)) * 4.0;
}

double network_param_kb(const NetworkSpec& spec) {
  return network_param_bytes(spec) / 1000.0;
}

std::vector<Table2Row> table2_rows(const WidthConfig& w) {
  const int c = w.base_channels;
  const int s = w.input_size;
  auto size_str = [](int extent, int ch) {
    std::ostringstream os;
    os << extent << "x" << extent << ", " << ch << "ch";
    return os.str();
  };
  auto kb = [](std::size_t count) {
    return static_cast<double>(count) * 4.0 / 1000.0;
  };

  std::vector<Table2Row> rows;
  rows.push_back({"conv1", size_str(s, c), "3x3, stride 1",
                  kb(conv1_param_count(w)), "1"});
  rows.push_back({"layer1", size_str(s, c), "[3x3 / 3x3], stride 1",
                  kb(block_param_count(c, c, true)), "(N-2)/6"});
  rows.push_back({"layer2_1", size_str(s / 2, 2 * c), "[3x3 / 3x3], stride 2",
                  kb(block_param_count(c, 2 * c, false)), "1"});
  rows.push_back({"layer2_2", size_str(s / 2, 2 * c), "[3x3 / 3x3], stride 1",
                  kb(block_param_count(2 * c, 2 * c, true)), "(N-8)/6"});
  rows.push_back({"layer3_1", size_str(s / 4, 4 * c), "[3x3 / 3x3], stride 2",
                  kb(block_param_count(2 * c, 4 * c, false)), "1"});
  rows.push_back({"layer3_2", size_str(s / 4, 4 * c), "[3x3 / 3x3], stride 1",
                  kb(block_param_count(4 * c, 4 * c, true)), "(N-8)/6"});
  rows.push_back({"fc", "1x" + std::to_string(w.num_classes),
                  "avg pool, fc, softmax", kb(fc_param_count(w)), "1"});
  return rows;
}

}  // namespace odenet::models
