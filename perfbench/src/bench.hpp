// Shared pieces of the repository benchmark: run accounting, metric maps,
// the percentile rule, the span recorder, and the seeded inputs every
// workload is generated from. See perfbench/README.md for what each
// workload measures and why.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/tensor.hpp"
#include "models/architecture.hpp"
#include "models/snapshot.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// Operations attempted and failed in one run. A failed, refused or wrong
/// output is a failure; the first few reasons are kept for the log.
struct Ledger {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> reasons;
  void ok() { ++attempted; }
  void fail(const std::string& why);
  void merge(const Ledger& other);
};

// ---- the percentile rule ------------------------------------------------

/// Latency samples in ms; failures are +infinity, so they sort last and
/// count as later than every success.
struct Samples {
  std::vector<double> ms;
  void add(double value) { ms.push_back(value); }
  void add_failure();
  /// Nearest-rank percentile (q in (0, 100]); NaN when empty.
  double percentile(double q) const;
  /// Highest percentile on the ladder 50/75/90/95/99/99.9 that leaves at
  /// least 10 samples beyond it; 0 when fewer than 20 samples exist.
  double supported_percentile() const;
  bool supports(double q) const;
  std::size_t count() const { return ms.size(); }
  /// Operations per second of back-to-back operations of `items` each,
  /// these samples being their durations.
  double rate(double items = 1.0) const;
};

/// "p50=… p90=… (n=…, highest supported p…=…)" for the log.
std::string describe(const std::string& label, const Samples& s);

/// Samples stamped with the second of the phase they belong to. The host
/// this benchmark was tuned on flips between a fast and a ~1.6x slower
/// state every second or so, in a proportion that drifts from run to run,
/// so end-to-end figures are a trimmed mean over windows of each window's
/// statistic: a stalled window does not move it, and it follows the share
/// of slow windows smoothly where a median over windows (or over all
/// samples) jumps between the two states.
struct Timeline {
  std::vector<std::pair<double, double>> points;  // (second, value)
  void add(double t, double value) { points.emplace_back(t, value); }
  /// trimmed_mean over the whole windows of `window_s` in [0, span_s) of
  /// stat(window's samples, window seconds); windows without samples are
  /// skipped. NaN when no window has samples.
  template <typename Stat>
  double over_windows(double window_s, double span_s, Stat stat) const;
  Samples all() const;
};

// ---- tracing --------------------------------------------------------------

/// In-memory span recorder, written once at exit as Chrome trace-event
/// JSON. Disabled recorders do nothing; the benchmark's untraced runs use
/// one, so end-to-end metrics never pay for tracing.
class Tracer {
 public:
  explicit Tracer(bool enabled);
  void record(const char* name, const char* cat, Clock::time_point start,
              Clock::time_point end);
  void write_chrome_json(const std::string& path) const;
  std::size_t span_count() const;

 private:
  struct Event {
    const char* name;
    const char* cat;
    std::uint32_t tid;
    double ts_us;
    double dur_us;
  };
  bool enabled_;
  Clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<Event> events_;
};

/// Times fn() and records it as a span; returns the seconds it took.
template <typename Fn>
double timed(Tracer& tracer, const char* name, const char* cat, Fn&& fn) {
  const Clock::time_point start = Clock::now();
  fn();
  const Clock::time_point end = Clock::now();
  tracer.record(name, cat, start, end);
  return seconds_between(start, end);
}

// ---- seeded inputs --------------------------------------------------------

/// Independent sub-seed for one input stream of a run.
std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t stream);

enum : std::uint64_t {
  kWeightsStream = 1,
  kImagesStream = 2,
  kScheduleStream = 3,
  kTenantsStream = 4,
  kTrainDataStream = 5,
  kCalibrationStream = 6,
};

/// rODENet-3-N at the paper's geometry (3x32x32, 16 base channels, 100
/// classes) with seeded weights. BatchNorm running statistics are
/// calibrated by four training-mode forward passes over batches of 8
/// synthetic images: with the init statistics the logits reach ~1e9,
/// which pushes the fixed backend off its int16 path. Batches of 8 keep
/// calibration below the workloads' own peak RSS.
struct Model {
  odenet::models::NetworkSpec spec;
  odenet::models::ModelSnapshot::Ptr snapshot;
};
Model make_model(int n, std::uint64_t seed);

/// `count` images [3,32,32] drawn from the synthetic CIFAR-100 stand-in.
std::vector<odenet::core::Tensor> make_images(int count, std::uint64_t seed);

/// Largest |a[i] - b[i]|, or +inf when the sizes differ.
double max_abs_diff(const odenet::core::Tensor& a, const float* b,
                    std::size_t n);
double max_abs(const odenet::core::Tensor& t);

// ---- process facts -------------------------------------------------------

double peak_rss_mb();
/// Median of a non-empty vector.
double median(std::vector<double> v);
/// Mean of a non-empty vector after dropping a fifth of its values at
/// each end.
double trimmed_mean(std::vector<double> v);

template <typename Stat>
double Timeline::over_windows(double window_s, double span_s, Stat stat) const {
  // A phase shorter than one window is one window.
  window_s = std::min(window_s, span_s);
  const int windows = static_cast<int>(span_s / window_s + 1e-9);
  std::vector<Samples> by_window(static_cast<std::size_t>(std::max(windows, 0)));
  for (const auto& [t, value] : points) {
    const int w = static_cast<int>(t / window_s);
    if (t >= 0.0 && w < windows) by_window[static_cast<std::size_t>(w)].add(value);
  }
  std::vector<double> stats;
  for (const Samples& s : by_window) {
    if (s.count() > 0) stats.push_back(stat(s, window_s));
  }
  return stats.empty() ? std::nan("") : trimmed_mean(stats);
}

}  // namespace perfbench
