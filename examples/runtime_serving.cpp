// Serving demo: one InferenceEngine fronting two backends — float software
// (the PS path) and the simulated PL accelerator — with routed dispatch,
// priority classes, deadlines, dynamic micro-batching and futures.
//
//   ./runtime_serving [--requests 24] [--max-batch 8]
//
// Requests are routed to the backend with the fewest outstanding
// requests (least-depth placement); priorities cycle low/normal/high, one
// request carries an intentionally hopeless deadline to show the timeout
// path, and the final stats line folds routing counters, per-priority
// latency histograms and the simulated PL cycle counts into the serving
// report.
#include <cstdio>
#include <vector>

#include "runtime/engine.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"

using namespace odenet;

int main(int argc, char** argv) {
  util::CliParser cli("runtime_serving",
                      "Batched async inference over float + FPGA backends");
  cli.add_option("requests", "24", "number of single-image requests");
  cli.add_option("max-batch", "8", "largest micro-batch a worker takes");
  if (!cli.parse(argc, argv)) return 0;

  const int kRequests = cli.get_int("requests");

  // A small rODENet-3 (paper Table 4) so the demo runs in milliseconds.
  models::WidthConfig width{.input_channels = 3, .input_size = 16,
                            .base_channels = 8, .num_classes = 10};
  models::Network net(models::make_spec(models::Arch::kROdeNet3, 14, width));
  util::Rng rng(7);
  net.init(rng);

  runtime::EngineConfig cfg;
  cfg.max_batch = cli.get_int("max-batch");
  runtime::BackendConfig ps;
  ps.backend = core::ExecBackend::kFloat;
  runtime::BackendConfig pl;
  pl.backend = core::ExecBackend::kFpgaSim;  // offloads layer3_2 (the ODE stage)
  cfg.backends = {ps, pl};
  runtime::InferenceEngine engine(net, cfg);

  std::printf("=== %s serving on %zu backends (max_batch=%d) ===\n",
              net.name().c_str(), engine.backend_count(), cfg.max_batch);

  std::vector<std::future<runtime::InferenceResult>> futures;
  futures.reserve(static_cast<std::size_t>(kRequests));
  for (int i = 0; i < kRequests; ++i) {
    core::Tensor image({3, width.input_size, width.input_size});
    for (std::size_t j = 0; j < image.numel(); ++j) {
      image.data()[j] = static_cast<float>(rng.normal(0.0, 0.5));
    }
    runtime::SubmitOptions opts;  // backend left to the router
    opts.priority = static_cast<runtime::Priority>(i % 3);
    if (i == kRequests / 2) {
      // One hopeless deadline to demonstrate rejection: it expires
      // before any worker can pick it up.
      opts.deadline = std::chrono::microseconds(1);
    }
    futures.push_back(engine.submit(std::move(image), opts));
  }

  for (int i = 0; i < kRequests; ++i) {
    try {
      const runtime::InferenceResult r =
          futures[static_cast<std::size_t>(i)].get();
      std::printf("req %2d  %-8s backend=%-8s class=%d batch=%d "
                  "queue=%6.2fms latency=%6.2fms pl_cycles=%llu\n",
                  i, runtime::priority_name(r.priority).c_str(),
                  engine.backend_label(r.backend_index).c_str(), r.predicted,
                  r.batch_size, r.queue_seconds * 1e3, r.total_seconds * 1e3,
                  static_cast<unsigned long long>(r.pl_cycles));
    } catch (const runtime::DeadlineExceeded& e) {
      std::printf("req %2d  REJECTED: %s\n", i, e.what());
    }
  }

  engine.shutdown();
  const runtime::EngineStats stats = engine.stats();
  std::printf("\n%s\n", stats.to_json().c_str());
  return 0;
}
