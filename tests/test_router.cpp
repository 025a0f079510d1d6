// Unit tests for the placement rules: least_depth() and cost_order()
// against fake backend-load snapshots (no engine, no threads).
#include <gtest/gtest.h>

#include <vector>

#include "runtime/router.hpp"
#include "util/check.hpp"

using namespace odenet;
using runtime::BackendLoad;
using runtime::cost_order;
using runtime::least_depth;

namespace {

BackendLoad load(std::size_t depth, int in_flight = 0,
                 double modeled_seconds = 1e-3) {
  BackendLoad l;
  l.queue_depth = depth;
  l.in_flight = in_flight;
  l.modeled_request_seconds = modeled_seconds;
  return l;
}

BackendLoad measured_load(std::size_t depth, double modeled_seconds,
                          double measured_seconds) {
  BackendLoad l;
  l.queue_depth = depth;
  l.modeled_request_seconds = modeled_seconds;
  l.measured_request_seconds = measured_seconds;
  return l;
}

}  // namespace

TEST(Router, EmptySnapshotThrows) {
  EXPECT_THROW(least_depth({}), odenet::Error);
  EXPECT_THROW(cost_order({}), odenet::Error);
}

// ---- least_depth (the engine's placement) ------------------------------

TEST(Router, LeastDepthPicksShallowestQueue) {
  EXPECT_EQ(least_depth({load(5), load(3), load(1)}), 2u);
  EXPECT_EQ(least_depth({load(0), load(3), load(1)}), 0u);
}

TEST(Router, LeastDepthCountsInFlightWork) {
  // Backend 0 has an empty queue but 6 requests being served; backend 1
  // has 2 queued and nothing running — 2 outstanding beats 6.
  EXPECT_EQ(least_depth({load(0, /*in_flight=*/6), load(2, 0)}), 1u);
}

TEST(Router, LeastDepthTieBreaksToLowestIndexDeterministically) {
  const std::vector<BackendLoad> loads = {load(2, 1), load(1, 2), load(3, 0)};
  for (int i = 0; i < 5; ++i) EXPECT_EQ(least_depth(loads), 0u);
}

// ---- cost_order (the cluster spill order) ------------------------------

TEST(Router, CostOrderPicksModelFasterBackendWhileCold) {
  // No measurements yet (EWMA cold reports 0): the analytical model must
  // drive placement — backend 1 is modeled faster.
  const std::vector<BackendLoad> loads = {measured_load(0, 10e-3, 0.0),
                                          measured_load(0, 2e-3, 0.0)};
  EXPECT_EQ(cost_order(loads)[0], 1u);
}

TEST(Router, CostOrderTrustsMeasurementOverModelWhenWarm) {
  // The model thinks backend 0 is fast, but the measured service time
  // says it is actually 4x slower than backend 1 (host contention the
  // model cannot see). The measurement must win.
  const std::vector<BackendLoad> loads = {measured_load(0, 2e-3, 8e-3),
                                          measured_load(0, 10e-3, 2e-3)};
  EXPECT_EQ(cost_order(loads)[0], 1u);
}

TEST(Router, CostOrderMixesWarmAndColdBackends) {
  // Backend 0 is warm at 6 ms; backend 1 is cold but modeled at 2 ms —
  // the cold backend still attracts traffic through its model estimate.
  EXPECT_EQ(cost_order({measured_load(0, 1e-3, 6e-3),
                        measured_load(0, 2e-3, 0.0)})[0],
            1u);
}

// Cold-start regression: the model prices a Cortex-A9, so a cold backend
// modeled far slower than this host's warm measurements used to lose
// every placement and never warm. Its model is capped at the cheapest
// warm measurement, so it attracts the traffic that warms it.
TEST(Router, ColdBackendIsPricedAtCheapestWarmMeasurement) {
  // b0 warm: (2+1) x 5 ms = 15 ms. b1 cold: (0+1) x min(500 ms, 5 ms).
  const std::vector<BackendLoad> loads = {measured_load(2, 1e-3, 5e-3),
                                          measured_load(0, 500e-3, 0.0)};
  EXPECT_EQ(cost_order(loads), (std::vector<std::size_t>{1, 0}));
}

TEST(Router, CostOrderCountsQueuePressure) {
  // Equal measured service times: queue pressure decides, like
  // least-depth.
  EXPECT_EQ(cost_order({measured_load(4, 1e-3, 3e-3),
                        measured_load(1, 1e-3, 3e-3)})[0],
            1u);
}

TEST(Router, CostOrderSpillsToSlowBackendUnderQueuePressure) {
  // All cold, so the models price the work: a slow backend at 10 ms and
  // a fast one at 2 ms. With 9 outstanding (queued or in flight) the fast
  // backend finishes one more request at (9+1) x 2 ms = 20 ms, behind the
  // idle slow one's 10 ms.
  EXPECT_EQ(cost_order({load(0, 0, 10e-3), load(9, 0, 2e-3)}),
            (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(cost_order({load(0, 0, 10e-3), load(4, 5, 2e-3)}),
            (std::vector<std::size_t>{0, 1}));
  // At 3 outstanding the fast backend still wins: (3+1) x 2 ms = 8 ms.
  EXPECT_EQ(cost_order({load(0, 0, 10e-3), load(3, 0, 2e-3)}),
            (std::vector<std::size_t>{1, 0}));
}

TEST(Router, CostOrderRanksByEstimatedCompletionCheapestFirst) {
  // Costs: b0 (2+1)*4ms = 12ms, b1 (0+1)*2ms = 2ms, b2 (5+1)*1ms = 6ms.
  const std::vector<BackendLoad> loads = {measured_load(2, 1e-3, 4e-3),
                                          measured_load(0, 1e-3, 2e-3),
                                          measured_load(5, 1e-3, 1e-3)};
  EXPECT_EQ(cost_order(loads), (std::vector<std::size_t>{1, 2, 0}));
}

TEST(Router, CostOrderTieBreaksToLowestIndex) {
  const std::vector<BackendLoad> equal = {measured_load(1, 1e-3, 3e-3),
                                          measured_load(1, 1e-3, 3e-3),
                                          measured_load(1, 1e-3, 3e-3)};
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(cost_order(equal), (std::vector<std::size_t>{0, 1, 2}));
  }
}

TEST(Router, CostOrderFallsBackToModelWhileCold) {
  // All cold: the analytical model must drive the order.
  const std::vector<BackendLoad> loads = {measured_load(0, 10e-3, 0.0),
                                          measured_load(0, 2e-3, 0.0),
                                          measured_load(0, 5e-3, 0.0)};
  EXPECT_EQ(cost_order(loads), (std::vector<std::size_t>{1, 2, 0}));
}
