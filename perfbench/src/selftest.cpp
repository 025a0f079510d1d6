// Self-tests of the benchmark's own rules: the percentile rule, failures
// as infinite latency, and seed reproducibility of the generated inputs.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>

#include "bench.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

int g_failures = 0;

void expect(bool ok, const char* what) {
  std::printf("# self-test %-58s %s\n", what, ok ? "ok" : "FAIL");
  if (!ok) ++g_failures;
}

Samples ramp(int n) {
  Samples s;
  for (int i = 1; i <= n; ++i) s.add(i);
  return s;
}

/// Parameter values of a snapshot (its version id differs per capture).
std::vector<float> weights(const Model& m) {
  std::vector<float> all;
  for (const auto& t : m.snapshot->params()) {
    all.insert(all.end(), t.values.begin(), t.values.end());
  }
  return all;
}

bool same_images(const std::vector<odenet::core::Tensor>& a,
                 const std::vector<odenet::core::Tensor>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].numel() != b[i].numel() ||
        std::memcmp(a[i].data(), b[i].data(), a[i].numel() * sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

bool same_schedule(const std::vector<Frame>& a, const std::vector<Frame>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].due_s != b[i].due_s || a[i].stream != b[i].stream ||
        a[i].image != b[i].image) {
      return false;
    }
  }
  return true;
}

}  // namespace

int run_self_tests() {
  // Nearest-rank percentiles.
  const Samples hundred = ramp(100);
  expect(hundred.percentile(50) == 50 && hundred.percentile(90) == 90 &&
             hundred.percentile(100) == 100,
         "nearest-rank p50/p90/p100 of 1..100");

  // The highest percentile with at least 10 samples beyond it.
  expect(ramp(19).supported_percentile() == 0, "19 samples support no percentile");
  expect(ramp(20).supported_percentile() == 50, "20 samples support p50");
  expect(ramp(99).supported_percentile() == 75, "99 samples support p75, not p90");
  expect(ramp(100).supported_percentile() == 90, "100 samples support p90");
  expect(ramp(1000).supported_percentile() == 99, "1000 samples support p99");
  expect(ramp(10000).supported_percentile() == 99.9, "10000 samples support p99.9");

  // Failures count as infinitely late.
  Samples some_failed = ramp(95);
  for (int i = 0; i < 5; ++i) some_failed.add_failure();
  expect(std::isfinite(some_failed.percentile(90)) &&
             std::isinf(some_failed.percentile(96)),
         "5% failures: p90 finite, p96 infinite");
  Samples many_failed = ramp(85);
  for (int i = 0; i < 15; ++i) many_failed.add_failure();
  expect(std::isinf(many_failed.percentile(90)), "15% failures make p90 infinite");
  Samples one_failed;
  one_failed.add(1.0);
  one_failed.add_failure();
  expect(std::isinf(one_failed.percentile(100)) && one_failed.percentile(50) == 1.0,
         "a failure sorts after every success");

  // Windowed figures are a 20%-trimmed mean: one stalled window is dropped.
  expect(trimmed_mean({1, 2, 3, 4, 100}) == 3.0 && trimmed_mean({5, 7}) == 6.0,
         "trimmed mean drops a fifth of the windows at each end");
  Timeline windows;
  for (int i = 0; i < 50; ++i) windows.add(0.1 * i, i < 10 ? 1000.0 : 1.0);
  const auto p50 = [](const Samples& s, double) { return s.percentile(50); };
  expect(windows.over_windows(1.0, 5.0, p50) == 1.0,
         "a stalled first window does not move the windowed p50");
  expect(windows.over_windows(10.0, 5.0, p50) == 1.0,
         "a phase shorter than a window is one window");

  // One seed reproduces the schedule, images and weights; another differs.
  expect(same_schedule(make_schedule(7, 300, 48), make_schedule(7, 300, 48)),
         "same seed, same arrival schedule");
  expect(!same_schedule(make_schedule(7, 300, 48), make_schedule(8, 300, 48)),
         "other seed, other arrival schedule");
  const auto sched = make_schedule(7, 300, 48);
  expect(std::fabs(sched[120].due_s - 1.0) < 1e-12 && sched[121].stream == 1,
         "120 frames/s over 4 evenly offset streams");
  expect(same_images(make_images(16, 7), make_images(16, 7)),
         "same seed, same images");
  expect(!same_images(make_images(16, 7), make_images(16, 8)),
         "other seed, other images");
  const std::vector<float> w7 = weights(make_model(14, 7));
  expect(w7 == weights(make_model(14, 7)), "same seed, same weights");
  expect(w7 != weights(make_model(14, 8)), "other seed, other weights");

  std::printf("# self-test: %d failure(s)\n", g_failures);
  return g_failures == 0 ? 0 : 1;
}

}  // namespace perfbench
