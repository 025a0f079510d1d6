#include "runtime/router.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace odenet::runtime {

double measured_cost_seconds(double measured, double modeled,
                             double cheapest_warm) {
  if (measured > 0.0) return measured;
  return cheapest_warm > 0.0 ? std::min(modeled, cheapest_warm) : modeled;
}

std::size_t least_depth(const std::vector<BackendLoad>& loads) {
  ODENET_CHECK(!loads.empty(), "router needs at least one backend load");
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

std::vector<std::size_t> cost_order(const std::vector<BackendLoad>& loads) {
  ODENET_CHECK(!loads.empty(), "router needs at least one backend load");
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
    cost[i] = outstanding * measured_cost_seconds(l.measured_request_seconds,
                                                  l.modeled_request_seconds,
                                                  cheapest_warm);
  }
  std::vector<std::size_t> order(loads.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&cost](std::size_t a, std::size_t b) {
                     return cost[a] < cost[b];
                   });
  return order;
}

}  // namespace odenet::runtime
