// Parameter accounting reproducing the paper's Table 2 and Figure 5
// byte-exactly (see DESIGN.md §3.1 for the reverse-engineered rules):
//   * float32 parameters, kB = 1000 bytes,
//   * convolutions bias-free, BN = {gamma, beta} per channel, fc has bias,
//   * ODE-capable (multi-execution stride-1) blocks concatenate the time t
//     as one extra input plane to both 3x3 convolutions.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "models/architecture.hpp"

namespace odenet::models {

/// Scalar parameters of the conv1 stem (3x3 conv + BN).
std::size_t conv1_param_count(const WidthConfig& w);

/// Scalar parameters of one building block.
std::size_t block_param_count(int in_channels, int out_channels,
                              bool time_channel);

/// Scalar parameters of the head (global average pool + fc with bias).
std::size_t fc_param_count(const WidthConfig& w);

/// Scalar parameters of a whole stage (0 when the stage is removed).
std::size_t stage_param_count(const StageSpec& spec);

/// Whole-network totals.
std::size_t network_param_count(const NetworkSpec& spec);
double network_param_bytes(const NetworkSpec& spec);
/// Paper units: kB = 1000 bytes, float32.
double network_param_kb(const NetworkSpec& spec);

/// One row of the paper's Table 2 (network structure of ODENet).
struct Table2Row {
  std::string layer;
  std::string output_size;
  std::string detail;
  double param_kb = 0.0;
  std::string executions;  // symbolic, e.g. "(N-2)/6"
};

/// Table 2 for a given width configuration (paper defaults reproduce the
/// published kB column exactly).
std::vector<Table2Row> table2_rows(const WidthConfig& w = {});

}  // namespace odenet::models
