// perfbench: the repository benchmark.
//
//   perfbench --workload serve|offload|train --seed N --seconds S --trace 0|1
//   perfbench --self-test
//
// --trace 0 runs one workload untraced and prints its end-to-end metrics.
// --trace 1 runs every workload's load with spans around the public calls
// into each layer and prints the per-layer metrics, plus trace.overhead
// (the named workload untraced vs traced, in this process) and
// trace.coverage; spans go to --trace-out as Chrome trace-event JSON.
// The last stdout line is one JSON object: correct, attempted, failed,
// metrics.
#include <malloc.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "bench.hpp"
#include "core/gemm_kernels.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace perfbench {
int run_self_tests();
}

namespace {

using namespace perfbench;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
  bool self_test = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload serve|offload|train "
               "--seed N --seconds S --trace 0|1 [--trace-out PATH]\n"
               "       perfbench --self-test\n",
               why.c_str());
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-test") {
      a.self_test = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty()) usage("bad --seed " + value);
      have_seed = true;
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(a.seconds >= 1.0 && a.seconds <= 600.0)) {
        usage("--seconds must be in [1, 600], got " + value);
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace must be 0 or 1");
      a.trace = value == "1";
    } else if (flag == "--trace-out") {
      a.trace_out = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (!a.self_test) {
    if (a.workload != "serve" && a.workload != "offload" && a.workload != "train") {
      usage("--workload must be serve, offload or train");
    }
    if (!have_seed) usage("--seed is required");
  }
  return a;
}

using WorkloadFn = WorkloadResult (*)(const RunConfig&, Tracer&);

WorkloadFn workload_fn(const std::string& name) {
  if (name == "serve") return run_serve;
  if (name == "offload") return run_offload;
  return run_train;
}

void print_json_number(double v) {
  if (std::isnan(v)) {
    std::printf("null");
  } else if (std::isinf(v)) {
    std::printf(v > 0 ? "1e308" : "-1e308");
  } else {
    std::printf("%.17g", v);
  }
}

bool all_finite(const Metrics& metrics) {
  for (const auto& [name, m] : metrics) {
    if (!std::isfinite(m.value)) return false;
  }
  return true;
}

void print_result(const Ledger& ledger, const Metrics& metrics) {
  for (const auto& r : ledger.reasons) std::printf("# failure: %s\n", r.c_str());
  const bool correct = ledger.failed == 0 && all_finite(metrics);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(ledger.attempted),
              static_cast<unsigned long long>(ledger.failed));
  bool first = true;
  for (const auto& [name, m] : metrics) {
    std::printf("%s\"%s\": {\"value\": ", first ? "" : ", ", name.c_str());
    print_json_number(m.value);
    std::printf(", \"unit\": \"%s\"}", m.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  // Both pools at one worker: the global pool (BatchNorm, core::gemm) is
  // sized once from ODENET_THREADS, and the kernel pool defaults to it.
  // Wider pools made the float engine swing 101-222 img/s in one process.
  setenv("ODENET_THREADS", "1", 1);
  // One malloc arena: with glibc's default of one per thread, which
  // threads happened to allocate first moved serve's peak RSS 40-48 MB.
  mallopt(M_ARENA_MAX, 1);
  const Args args = parse(argc, argv);

  const std::size_t global_pool = odenet::util::ThreadPool::global().worker_count();
  const std::size_t kernel_pool = odenet::core::kernel_pool().worker_count();
  const unsigned nproc = std::thread::hardware_concurrency();
  std::printf("# perfbench {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
              "\"trace\": %d, \"nproc\": %u, \"global_pool\": %zu, "
              "\"kernel_pool\": %zu, \"malloc_arenas\": 1, \"gemm_isa\": \"%s\", "
              "\"client_connections\": 2, \"client_threads\": 3}\n",
              args.self_test ? "self-test" : args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, nproc, global_pool, kernel_pool,
              odenet::core::gemm_isa_name());
  if (global_pool != 1 || kernel_pool != 1) {
    std::fprintf(stderr, "perfbench: thread pools are not pinned to one worker\n");
    return 1;
  }
  if (args.self_test) return perfbench::run_self_tests();

  Tracer off(false);
  const WorkloadFn fn = workload_fn(args.workload);
  RunConfig cfg;
  cfg.seed = args.seed;
  cfg.seconds = args.seconds;

  if (!args.trace) {
    cfg.setup_reps = 7;
    WorkloadResult r = fn(cfg, off);
    r.end_to_end["peak_rss_mb"] = {peak_rss_mb(), "MB"};
    for (const auto& n : r.notes) std::printf("# %s\n", n.c_str());
    print_result(r.ledger, r.end_to_end);
    return 0;
  }

  // Traced: every workload's load runs here, so every per-layer metric is
  // measured in every traced run. The named workload also runs untraced
  // for the same time, right before, as the overhead reference.
  Tracer tracer(true);
  Metrics layers = measure_peaks(tracer);
  cfg.peak_gflops_f32 = layers["core.peak_gflops_f32"].value;
  cfg.peak_gops_i16 = layers["core.peak_gops_i16"].value;
  const struct {
    const char* name;
    double share;
  } plan[] = {{"serve", 0.5}, {"offload", 0.2}, {"train", 0.3}};

  Ledger ledger;
  double reference_ips = 0.0, traced_ips = 0.0, coverage = 0.0;
  for (const auto& step : plan) {
    RunConfig part = cfg;
    part.seconds = std::max(1.0, args.seconds * step.share);
    if (args.workload == step.name) {
      RunConfig ref = part;
      ref.traced = false;
      const WorkloadResult r = workload_fn(step.name)(ref, off);
      ledger.merge(r.ledger);
      reference_ips = r.throughput_ips;
    }
    part.traced = true;
    WorkloadResult r = workload_fn(step.name)(part, tracer);
    ledger.merge(r.ledger);
    for (const auto& n : r.notes) std::printf("# %s\n", n.c_str());
    for (auto& [name, m] : r.layers) layers[name] = m;
    if (args.workload == step.name) {
      traced_ips = r.throughput_ips;
      coverage = r.coverage;
    }
  }
  layers["trace.overhead"] = {reference_ips / traced_ips - 1.0, "frac"};
  layers["trace.coverage"] = {coverage, "frac"};
  if (!args.trace_out.empty()) tracer.write_chrome_json(args.trace_out);

  // trace.overhead compares two runs, so host drift of several percent
  // lands in it; the recorder's own cost per span bounds the real figure.
  Tracer scratch(true);
  constexpr int kProbeSpans = 100000;
  const Clock::time_point t0 = Clock::now();
  for (int i = 0; i < kProbeSpans; ++i) scratch.record("probe", "trace", t0, t0);
  const double ns_per_span = 1e9 * seconds_between(t0, Clock::now()) / kProbeSpans;
  std::printf("# trace: %zu spans at ~%.0f ns each%s%s\n", tracer.span_count(),
              ns_per_span, args.trace_out.empty() ? "" : " -> ",
              args.trace_out.c_str());
  print_result(ledger, layers);
  return 0;
}
