#include "runtime/router.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace odenet::runtime {

std::string route_policy_name(RoutePolicy policy) {
  switch (policy) {
    case RoutePolicy::kStatic: return "static";
    case RoutePolicy::kRoundRobin: return "round_robin";
    case RoutePolicy::kLeastDepth: return "least_depth";
    case RoutePolicy::kModeledLatency: return "modeled_latency";
    case RoutePolicy::kMeasuredLatency: return "measured_latency";
  }
  return "unknown";
}

RoutePolicy route_policy_from_name(const std::string& name) {
  for (RoutePolicy policy : all_route_policies()) {
    if (route_policy_name(policy) == name) return policy;
  }
  ODENET_CHECK(false, "unknown routing policy \""
                          << name
                          << "\" (want static, round_robin, least_depth, "
                             "modeled_latency or measured_latency)");
  return RoutePolicy::kStatic;  // unreachable
}

const std::vector<RoutePolicy>& all_route_policies() {
  static const std::vector<RoutePolicy> kAll = {
      RoutePolicy::kStatic, RoutePolicy::kRoundRobin,
      RoutePolicy::kLeastDepth, RoutePolicy::kModeledLatency,
      RoutePolicy::kMeasuredLatency};
  return kAll;
}

Router::Router(RoutePolicy policy, std::size_t static_index,
               double hysteresis)
    : policy_(policy), static_index_(static_index), hysteresis_(hysteresis) {
  ODENET_CHECK(hysteresis >= 0.0,
               "router hysteresis must be >= 0, got " << hysteresis);
}

double measured_cost_seconds(double measured, double modeled,
                             double cheapest_warm) {
  if (measured > 0.0) return measured;
  return cheapest_warm > 0.0 ? std::min(modeled, cheapest_warm) : modeled;
}

std::vector<double> Router::costs(const std::vector<BackendLoad>& loads,
                                  bool measured) {
  double cheapest_warm = 0.0;
  for (const auto& l : loads) {
    const double m = l.measured_request_seconds;
    if (m > 0.0 && (cheapest_warm == 0.0 || m < cheapest_warm)) {
      cheapest_warm = m;
    }
  }
  std::vector<double> cost(loads.size());
  for (std::size_t i = 0; i < loads.size(); ++i) {
    const BackendLoad& l = loads[i];
    const double outstanding = static_cast<double>(l.queue_depth) +
                               static_cast<double>(l.in_flight) + 1.0;
    cost[i] = outstanding *
              (measured ? measured_cost_seconds(l.measured_request_seconds,
                                                l.modeled_request_seconds,
                                                cheapest_warm)
                        : l.modeled_request_seconds);
  }
  return cost;
}

std::vector<std::size_t> Router::cost_order(
    const std::vector<BackendLoad>& loads) const {
  ODENET_CHECK(!loads.empty(), "router needs at least one backend load");
  const std::vector<double> cost =
      costs(loads, policy_ == RoutePolicy::kMeasuredLatency);
  std::vector<std::size_t> order(loads.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&cost](std::size_t a, std::size_t b) {
                     return cost[a] < cost[b];
                   });
  return order;
}

std::size_t Router::route(const std::vector<BackendLoad>& loads) {
  ODENET_CHECK(!loads.empty(), "router needs at least one backend load");
  switch (policy_) {
    case RoutePolicy::kStatic:
      ODENET_CHECK(static_index_ < loads.size(),
                   "static route index " << static_index_
                                         << " out of range (have "
                                         << loads.size() << " backends)");
      return static_index_;
    case RoutePolicy::kRoundRobin:
      return static_cast<std::size_t>(
          round_robin_.fetch_add(1, std::memory_order_relaxed) %
          loads.size());
    case RoutePolicy::kLeastDepth: {
      std::size_t best = 0;
      std::size_t best_outstanding =
          loads[0].queue_depth + static_cast<std::size_t>(loads[0].in_flight);
      for (std::size_t i = 1; i < loads.size(); ++i) {
        const std::size_t outstanding =
            loads[i].queue_depth + static_cast<std::size_t>(loads[i].in_flight);
        if (outstanding < best_outstanding) {
          best = i;
          best_outstanding = outstanding;
        }
      }
      return best;
    }
    case RoutePolicy::kModeledLatency:
    case RoutePolicy::kMeasuredLatency: {
      const bool measured = policy_ == RoutePolicy::kMeasuredLatency;
      const std::vector<double> cost = costs(loads, measured);
      // min_element keeps the first minimum: ties go to the lowest index.
      const auto best = static_cast<std::size_t>(
          std::min_element(cost.begin(), cost.end()) - cost.begin());
      if (!measured) return best;
      // Hysteresis: EWMA estimates jitter batch to batch; flapping
      // between near-tied backends churns their queues for no win. Keep
      // the previous pick while it stays within the band of the best.
      const std::size_t anchor = anchor_.load(std::memory_order_relaxed);
      if (hysteresis_ > 0.0 && anchor != kNoAnchor &&
          anchor < loads.size() && anchor != best &&
          cost[anchor] <= cost[best] * (1.0 + hysteresis_)) {
        return anchor;
      }
      anchor_.store(best, std::memory_order_relaxed);
      return best;
    }
  }
  return 0;  // unreachable
}

}  // namespace odenet::runtime
