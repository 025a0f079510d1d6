#include "runtime/stats.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

namespace odenet::runtime {

namespace {

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace

std::size_t latency_bucket(double seconds) {
  const double ms = seconds * 1e3;
  for (std::size_t i = 0; i < kLatencyBucketUpperMs.size(); ++i) {
    if (ms <= kLatencyBucketUpperMs[i]) return i;
  }
  return kLatencyBucketUpperMs.size();  // overflow bucket
}

void PriorityStats::record_latency(double seconds) {
  requests += 1;
  latency_seconds_total += seconds;
  max_latency_seconds = std::max(max_latency_seconds, seconds);
  histogram[latency_bucket(seconds)] += 1;
}

std::string EngineStats::to_json() const {
  std::ostringstream os;
  os << "{\"schema\":" << kStatsSchemaVersion << ",\"requests\":"
     << requests() << ",\"timeouts\":" << timeouts()
     << ",\"rejected\":" << rejected() << ",\"evicted\":" << evicted()
     << ",\"shed\":" << shed()
     << ",\"routed\":" << routed() << ",\"model\":\"" << model
     << "\",\"model_version\":" << model_version
     << ",\"reloads\":" << reloads << ",\"swaps\":" << swaps()
     << ",\"promotions\":" << promotions()
     << ",\"wall_seconds\":" << fmt(wall_seconds)
     << ",\"images_per_sec\":" << fmt(images_per_second())
     << ",\"pl_cycles\":" << pl_cycles() << ",\"backends\":[";
  for (std::size_t i = 0; i < backends.size(); ++i) {
    const BackendStats& b = backends[i];
    if (i > 0) os << ",";
    os << "{\"name\":\"" << b.name << "\",\"backend\":\""
       << core::backend_name(b.backend) << "\",\"requests\":" << b.requests
       << ",\"batches\":" << b.batches << ",\"routed\":" << b.routed
       << ",\"timeouts\":" << b.timeouts
       << ",\"rejected\":" << b.rejected << ",\"evicted\":" << b.evicted
       << ",\"promotions\":" << b.promotions << ",\"swaps\":" << b.swaps
       << ",\"delta_swaps\":" << b.delta_swaps
       << ",\"stages_requantized\":" << b.stages_requantized
       << ",\"stages_skipped\":" << b.stages_skipped
       << ",\"mean_swap_ms\":" << fmt(b.mean_swap_seconds() * 1e3)
       << ",\"max_swap_ms\":" << fmt(b.max_swap_seconds * 1e3)
       << ",\"queue_depth\":" << b.queue_depth
       << ",\"in_flight\":" << b.in_flight
       << ",\"measured_request_ms\":"
       << fmt(b.measured_request_seconds * 1e3)
       << ",\"modeled_request_ms\":" << fmt(b.modeled_request_seconds * 1e3)
       << ",\"arena_capacity_floats\":" << b.arena_capacity_floats
       << ",\"arena_growths\":" << b.arena_growths
       << ",\"mean_batch\":" << fmt(b.mean_batch_size())
       << ",\"busy_seconds\":" << fmt(b.busy_seconds)
       << ",\"mean_queue_ms\":" << fmt(b.mean_queue_seconds() * 1e3)
       << ",\"mean_latency_ms\":" << fmt(b.mean_latency_seconds() * 1e3)
       << ",\"max_latency_ms\":" << fmt(b.max_latency_seconds * 1e3)
       << ",\"pl_cycles\":" << b.pl_cycles << "}";
  }
  os << "],\"priorities\":[";
  // Highest class first, matching the scheduler's pop order.
  bool first = true;
  for (int p = kPriorityLevels - 1; p >= 0; --p) {
    const PriorityStats& ps = priorities[static_cast<std::size_t>(p)];
    if (!first) os << ",";
    first = false;
    os << "{\"priority\":\"" << priority_name(static_cast<Priority>(p))
       << "\",\"requests\":" << ps.requests
       << ",\"timeouts\":" << ps.timeouts
       << ",\"rejected\":" << ps.rejected << ",\"evicted\":" << ps.evicted
       << ",\"mean_latency_ms\":" << fmt(ps.mean_latency_seconds() * 1e3)
       << ",\"max_latency_ms\":" << fmt(ps.max_latency_seconds * 1e3)
       << ",\"hist_le_ms\":[";
    for (std::size_t i = 0; i < kLatencyBucketUpperMs.size(); ++i) {
      if (i > 0) os << ",";
      os << fmt(kLatencyBucketUpperMs[i]);
    }
    os << ",\"+inf\"],\"hist\":[";
    for (std::size_t i = 0; i < ps.histogram.size(); ++i) {
      if (i > 0) os << ",";
      os << ps.histogram[i];
    }
    os << "]}";
  }
  os << "],\"tenants\":[";
  for (std::size_t i = 0; i < tenants.size(); ++i) {
    const TenantCounters& t = tenants[i];
    if (i > 0) os << ",";
    os << "{\"name\":\"" << (t.name.empty() ? "default" : t.name)
       << "\",\"weight\":" << fmt(t.weight) << ",\"quota\":" << t.quota
       << ",\"queued\":" << t.queued << ",\"completed\":" << t.completed
       << ",\"quota_rejected\":" << t.quota_rejected << "}";
  }
  os << "]}";
  return os.str();
}

}  // namespace odenet::runtime
