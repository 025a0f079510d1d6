#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <limits>
#include <thread>

#include "bench.hpp"
#include "core/gemm_kernels.hpp"
#include "core/im2col.hpp"
#include "data/synthetic.hpp"
#include "models/network.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace odenet;

void Ledger::fail(const std::string& why) {
  ++attempted;
  ++failed;
  if (reasons.size() < 5) reasons.push_back(why);
}

void Ledger::merge(const Ledger& other) {
  attempted += other.attempted;
  failed += other.failed;
  for (const auto& r : other.reasons) {
    if (reasons.size() < 5) reasons.push_back(r);
  }
}

void Samples::add_failure() {
  ms.push_back(std::numeric_limits<double>::infinity());
}

double Samples::percentile(double q) const {
  if (ms.empty()) return std::nan("");
  std::vector<double> sorted = ms;
  std::sort(sorted.begin(), sorted.end());
  const double rank = std::ceil(q / 100.0 * static_cast<double>(sorted.size()));
  const std::size_t index =
      static_cast<std::size_t>(std::max(1.0, rank)) - 1;
  return sorted[std::min(index, sorted.size() - 1)];
}

double Samples::rate(double items) const {
  double total_ms = 0.0;
  for (double v : ms) total_ms += v;
  return 1e3 * items * static_cast<double>(ms.size()) / total_ms;
}

bool Samples::supports(double q) const {
  const double beyond = static_cast<double>(ms.size()) * (1.0 - q / 100.0);
  return beyond + 1e-9 >= 10.0;
}

double Samples::supported_percentile() const {
  double best = 0.0;
  for (double q : {50.0, 75.0, 90.0, 95.0, 99.0, 99.9}) {
    if (supports(q)) best = q;
  }
  return best;
}

std::string describe(const std::string& label, const Samples& s) {
  char buf[256];
  const double top = s.supported_percentile();
  std::snprintf(buf, sizeof(buf),
                "%s: n=%zu p50=%.3f ms p90=%.3f ms%s; highest percentile with "
                ">=10 samples beyond: %s%.4g=%.3f ms",
                label.c_str(), s.count(), s.percentile(50), s.percentile(90),
                s.supports(90) ? "" : " (p90 unsupported)",
                top > 0 ? "p" : "none ", top,
                top > 0 ? s.percentile(top) : 0.0);
  return buf;
}

Samples Timeline::all() const {
  Samples s;
  for (const auto& point : points) s.add(point.second);
  return s;
}

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

void Tracer::record(const char* name, const char* cat, Clock::time_point start,
                    Clock::time_point end) {
  if (!enabled_) return;
  const std::uint32_t tid = static_cast<std::uint32_t>(
      std::hash<std::thread::id>{}(std::this_thread::get_id()) & 0xffff);
  Event e{name, cat, tid,
          std::chrono::duration<double, std::micro>(start - origin_).count(),
          std::chrono::duration<double, std::micro>(end - start).count()};
  std::lock_guard<std::mutex> lock(mutex_);
  events_.push_back(e);
}

std::size_t Tracer::span_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return events_.size();
}

void Tracer::write_chrome_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "perfbench: cannot write trace %s\n", path.c_str());
    return;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  std::fprintf(f, "{\"traceEvents\":[");
  for (std::size_t i = 0; i < events_.size(); ++i) {
    const Event& e = events_[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f}",
                 i == 0 ? "" : ",", e.name, e.cat, e.tid, e.ts_us, e.dur_us);
  }
  std::fprintf(f, "\n],\"displayTimeUnit\":\"ms\"}\n");
  std::fclose(f);
}

std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t stream) {
  // splitmix64 of (seed, stream): unrelated streams for neighbouring seeds.
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + stream * 0xD1B54A32D192ED03ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::vector<core::Tensor> make_images(int count, std::uint64_t seed) {
  data::SyntheticConfig cfg;
  cfg.images_per_class = std::max(1, (count + cfg.num_classes - 1) /
                                         cfg.num_classes);
  cfg.seed = seed;
  const data::Dataset ds = data::make_synthetic(cfg);
  std::vector<std::size_t> order(ds.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  util::Rng rng(seed);
  rng.shuffle(order);
  std::vector<core::Tensor> images;
  images.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) images.push_back(ds.image(order[i]));
  return images;
}

Model make_model(int n, std::uint64_t seed) {
  constexpr int kCalibrationBatches = 4;
  constexpr int kCalibrationBatch = 8;
  Model m;
  m.spec = models::make_spec(models::Arch::kROdeNet3, n);
  models::Network net(m.spec);
  util::Rng rng(sub_seed(seed, kWeightsStream));
  net.init(rng);
  const std::vector<core::Tensor> images =
      make_images(kCalibrationBatches * kCalibrationBatch,
                  sub_seed(seed, kCalibrationStream));
  const std::size_t per_image = images.front().numel();
  net.set_training(true);
  for (int b = 0; b < kCalibrationBatches; ++b) {
    core::Tensor batch({kCalibrationBatch, 3, 32, 32});
    for (int i = 0; i < kCalibrationBatch; ++i) {
      const core::Tensor& img = images[b * kCalibrationBatch + i];
      std::copy(img.data(), img.data() + per_image,
                batch.data() + static_cast<std::size_t>(i) * per_image);
    }
    net.forward(batch);
  }
  net.set_training(false);
  m.snapshot = net.export_snapshot();
  return m;
}

double max_abs_diff(const core::Tensor& a, const float* b, std::size_t n) {
  if (a.numel() != n) return std::numeric_limits<double>::infinity();
  double worst = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double d = std::fabs(static_cast<double>(a.data()[i]) - b[i]);
    if (std::isnan(d)) return std::numeric_limits<double>::infinity();
    worst = std::max(worst, d);
  }
  return worst;
}

double max_abs(const core::Tensor& t) {
  double worst = 0.0;
  for (std::size_t i = 0; i < t.numel(); ++i) {
    worst = std::max(worst, std::fabs(static_cast<double>(t.data()[i])));
  }
  return worst;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double trimmed_mean(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t trim = v.size() / 5;
  double sum = 0.0;
  for (std::size_t i = trim; i < v.size() - trim; ++i) sum += v[i];
  return sum / static_cast<double>(v.size() - 2 * trim);
}

double stage_macs(const models::StageSpec& spec) {
  const double out_hw = static_cast<double>(spec.in_size / spec.stride) *
                        (spec.in_size / spec.stride);
  double macs = 0.0;
  for (int b = 0; b < spec.stacked_blocks; ++b) {
    const int in_channels = b == 0 ? spec.in_channels : spec.out_channels;
    macs += out_hw * spec.out_channels * 9.0 *
            (in_channels + spec.out_channels);
  }
  return macs * spec.executions;
}

Metrics measure_peaks(Tracer& tracer) {
  // One GEMM the size of a large conv: 128 out-channels x 3x3x64 taps x
  // a 32x32 plane. Single worker (the pinned pools), median of 7.
  constexpr int m = 128, k = 576, n = 1024;
  constexpr int reps = 7;
  const double ops = 2.0 * m * k * n;
  util::Rng rng(1);
  std::vector<float> a(static_cast<std::size_t>(m) * k);
  std::vector<float> b(static_cast<std::size_t>(k) * n);
  std::vector<float> c(static_cast<std::size_t>(m) * n);
  for (float& v : a) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  for (float& v : b) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  core::PackedGemmA packed;
  core::pack_gemm_a(a.data(), m, k, packed);
  std::vector<double> f32;
  for (int r = -1; r < reps; ++r) {
    const double s = timed(tracer, "gemm_tiled_pa", "core", [&] {
      core::gemm_tiled_pa(packed, b.data(), c.data(), n, false);
    });
    if (r >= 0) f32.push_back(s);
  }

  std::vector<std::int16_t> a16(a.size()), b16(b.size());
  std::vector<std::int32_t> c32(c.size());
  for (auto& v : a16) v = static_cast<std::int16_t>(rng.uniform_int(255)) - 127;
  for (auto& v : b16) v = static_cast<std::int16_t>(rng.uniform_int(255)) - 127;
  core::PackedGemmA16 packed16;
  core::pack_gemm_a_i16(a16.data(), m, k, packed16);
  std::vector<double> i16;
  for (int r = -1; r < reps; ++r) {
    const double s = timed(tracer, "gemm_i16_tiled_pa", "core", [&] {
      core::gemm_i16_tiled_pa(packed16, b16.data(), c32.data(), n, false);
    });
    if (r >= 0) i16.push_back(s);
  }
  return {{"core.peak_gflops_f32", {ops / median(f32) / 1e9, "GFLOP/s"}},
          {"core.peak_gops_i16", {ops / median(i16) / 1e9, "GOP/s"}}};
}

}  // namespace perfbench
