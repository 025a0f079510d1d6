// Unit tests for the load-aware backend Router: each policy against a fake
// backend-load snapshot (no engine, no threads).
#include <gtest/gtest.h>

#include <vector>

#include "runtime/router.hpp"
#include "util/check.hpp"

using namespace odenet;
using runtime::BackendLoad;
using runtime::RoutePolicy;
using runtime::Router;

namespace {

BackendLoad load(std::size_t depth, int in_flight = 0,
                 double modeled_seconds = 1e-3) {
  BackendLoad l;
  l.queue_depth = depth;
  l.in_flight = in_flight;
  l.modeled_request_seconds = modeled_seconds;
  return l;
}

}  // namespace

TEST(Router, StaticAlwaysReturnsConfiguredIndex) {
  Router router(RoutePolicy::kStatic, 1);
  const std::vector<BackendLoad> loads = {load(0), load(9), load(2)};
  for (int i = 0; i < 5; ++i) EXPECT_EQ(router.route(loads), 1u);
}

TEST(Router, StaticIndexOutOfRangeThrows) {
  Router router(RoutePolicy::kStatic, 3);
  const std::vector<BackendLoad> loads = {load(0), load(0)};
  EXPECT_THROW(router.route(loads), odenet::Error);
}

TEST(Router, EmptySnapshotThrows) {
  Router router(RoutePolicy::kLeastDepth);
  EXPECT_THROW(router.route({}), odenet::Error);
}

TEST(Router, RoundRobinIsFair) {
  Router router(RoutePolicy::kRoundRobin);
  // Loads are skewed, but round-robin ignores them and cycles.
  const std::vector<BackendLoad> loads = {load(50), load(0), load(3)};
  std::vector<int> hits(3, 0);
  for (int i = 0; i < 9; ++i) {
    const std::size_t picked = router.route(loads);
    EXPECT_EQ(picked, static_cast<std::size_t>(i % 3));
    hits[picked] += 1;
  }
  EXPECT_EQ(hits, (std::vector<int>{3, 3, 3}));
}

TEST(Router, LeastDepthPicksShallowestQueue) {
  Router router(RoutePolicy::kLeastDepth);
  EXPECT_EQ(router.route({load(5), load(3), load(1)}), 2u);
  EXPECT_EQ(router.route({load(0), load(3), load(1)}), 0u);
}

TEST(Router, LeastDepthCountsInFlightWork) {
  Router router(RoutePolicy::kLeastDepth);
  // Backend 0 has an empty queue but 6 requests being served; backend 1
  // has 2 queued and nothing running — 2 outstanding beats 6.
  EXPECT_EQ(router.route({load(0, /*in_flight=*/6), load(2, 0)}), 1u);
}

TEST(Router, LeastDepthTieBreaksToLowestIndexDeterministically) {
  Router router(RoutePolicy::kLeastDepth);
  const std::vector<BackendLoad> loads = {load(2, 1), load(1, 2), load(3, 0)};
  for (int i = 0; i < 5; ++i) EXPECT_EQ(router.route(loads), 0u);
}

TEST(Router, ModeledLatencyPrefersFasterBackendWhenIdle) {
  Router router(RoutePolicy::kModeledLatency);
  // An idle PS software backend at 10 ms/request versus an idle PL-offload
  // backend at 2 ms/request: small batches go to the faster engine.
  const std::vector<BackendLoad> loads = {load(0, 0, 10e-3),
                                          load(0, 0, 2e-3)};
  EXPECT_EQ(router.route(loads), 1u);
}

TEST(Router, ModeledLatencySpillsToSlowBackendUnderQueuePressure) {
  Router router(RoutePolicy::kModeledLatency);
  // Fast backend with 9 outstanding: (9+1)*2 ms = 20 ms estimated; the
  // idle slow backend finishes in 10 ms — spill.
  EXPECT_EQ(router.route({load(0, 0, 10e-3), load(9, 0, 2e-3)}), 0u);
  // At 3 outstanding the fast backend still wins: (3+1)*2 ms = 8 ms.
  EXPECT_EQ(router.route({load(0, 0, 10e-3), load(3, 0, 2e-3)}), 1u);
}

TEST(Router, ModeledLatencyTieBreaksToLowestIndexDeterministically) {
  Router router(RoutePolicy::kModeledLatency);
  const std::vector<BackendLoad> loads = {load(1, 0, 4e-3), load(1, 0, 4e-3)};
  for (int i = 0; i < 5; ++i) EXPECT_EQ(router.route(loads), 0u);
}

TEST(Router, ModeledLatencyWithEqualModelsDegeneratesToLeastDepth) {
  Router router(RoutePolicy::kModeledLatency);
  EXPECT_EQ(router.route({load(4, 0, 3e-3), load(1, 1, 3e-3)}), 1u);
}

TEST(Router, PolicyNamesRoundTrip) {
  for (RoutePolicy policy : runtime::all_route_policies()) {
    EXPECT_EQ(runtime::route_policy_from_name(route_policy_name(policy)),
              policy);
  }
  EXPECT_THROW(runtime::route_policy_from_name("speculative"),
               odenet::Error);
}

// ---- measured-latency policy ------------------------------------------

namespace {

BackendLoad measured_load(std::size_t depth, double modeled_seconds,
                          double measured_seconds) {
  BackendLoad l;
  l.queue_depth = depth;
  l.modeled_request_seconds = modeled_seconds;
  l.measured_request_seconds = measured_seconds;
  return l;
}

}  // namespace

TEST(Router, MeasuredLatencyFallsBackToModelWhileCold) {
  Router router(RoutePolicy::kMeasuredLatency);
  // No measurements yet (EWMA cold reports 0): the analytical model must
  // drive placement — backend 1 is modeled faster.
  const std::vector<BackendLoad> loads = {measured_load(0, 10e-3, 0.0),
                                          measured_load(0, 2e-3, 0.0)};
  EXPECT_EQ(router.route(loads), 1u);
}

TEST(Router, MeasuredLatencyTrustsMeasurementOverModelWhenWarm) {
  Router router(RoutePolicy::kMeasuredLatency, 0, /*hysteresis=*/0.0);
  // The model thinks backend 0 is fast, but the measured service time
  // says it is actually 4x slower than backend 1 (host contention the
  // model cannot see). The measurement must win.
  const std::vector<BackendLoad> loads = {measured_load(0, 2e-3, 8e-3),
                                          measured_load(0, 10e-3, 2e-3)};
  EXPECT_EQ(router.route(loads), 1u);
}

TEST(Router, MeasuredLatencyMixesWarmAndColdBackends) {
  Router router(RoutePolicy::kMeasuredLatency, 0, /*hysteresis=*/0.0);
  // Backend 0 is warm at 6 ms; backend 1 is cold but modeled at 2 ms —
  // the cold backend still attracts traffic through its model estimate.
  EXPECT_EQ(router.route({measured_load(0, 1e-3, 6e-3),
                          measured_load(0, 2e-3, 0.0)}),
            1u);
}

// Cold-start regression: the model prices a Cortex-A9, so a cold backend
// modeled far slower than this host's warm measurements used to lose
// every placement and never warm. Its model is capped at the cheapest
// warm measurement, so it attracts the traffic that warms it.
TEST(Router, ColdBackendIsPricedAtCheapestWarmMeasurement) {
  Router router(RoutePolicy::kMeasuredLatency, 0, /*hysteresis=*/0.0);
  // b0 warm: (2+1) x 5 ms = 15 ms. b1 cold: (0+1) x min(500 ms, 5 ms).
  const std::vector<BackendLoad> loads = {measured_load(2, 1e-3, 5e-3),
                                          measured_load(0, 500e-3, 0.0)};
  EXPECT_EQ(router.route(loads), 1u);
  EXPECT_EQ(router.cost_order(loads), (std::vector<std::size_t>{1, 0}));
}

TEST(Router, MeasuredLatencyHysteresisStopsFlapping) {
  Router router(RoutePolicy::kMeasuredLatency, 0, /*hysteresis=*/0.15);
  // First route anchors on backend 0 (clearly best).
  EXPECT_EQ(router.route({measured_load(0, 1e-3, 2e-3),
                          measured_load(0, 1e-3, 4e-3)}),
            0u);
  // Jitter makes backend 1 marginally better (within the 15% band): the
  // anchor holds, placement does not flap.
  EXPECT_EQ(router.route({measured_load(0, 1e-3, 2.0e-3),
                          measured_load(0, 1e-3, 1.9e-3)}),
            0u);
  // A decisive gap (anchor cost > best x 1.15) must still switch.
  EXPECT_EQ(router.route({measured_load(0, 1e-3, 4e-3),
                          measured_load(0, 1e-3, 2e-3)}),
            1u);
  // And the anchor moves with the switch.
  EXPECT_EQ(router.route({measured_load(0, 1e-3, 2.1e-3),
                          measured_load(0, 1e-3, 2.0e-3)}),
            1u);
}

TEST(Router, MeasuredLatencyZeroHysteresisTakesEveryArgmin) {
  Router router(RoutePolicy::kMeasuredLatency, 0, /*hysteresis=*/0.0);
  EXPECT_EQ(router.route({measured_load(0, 1e-3, 2.0e-3),
                          measured_load(0, 1e-3, 1.9e-3)}),
            1u);
  EXPECT_EQ(router.route({measured_load(0, 1e-3, 1.8e-3),
                          measured_load(0, 1e-3, 1.9e-3)}),
            0u);
}

TEST(Router, MeasuredLatencyCountsQueuePressure) {
  Router router(RoutePolicy::kMeasuredLatency, 0, /*hysteresis=*/0.0);
  // Equal measured service times: queue pressure decides, like
  // least-depth.
  EXPECT_EQ(router.route({measured_load(4, 1e-3, 3e-3),
                          measured_load(1, 1e-3, 3e-3)}),
            1u);
}

TEST(Router, NegativeHysteresisThrows) {
  EXPECT_THROW(Router(RoutePolicy::kMeasuredLatency, 0, -0.1),
               odenet::Error);
}

// Regression for the reload() bug: InferenceEngine::reload() resets every
// backend's ServiceTimeEwma but used to leave the hysteresis anchor in
// place, so the pre-publish pick kept attracting traffic through the
// anti-flap band even though the measurements that justified it were just
// discarded. reset_anchor() must make the next route a fresh argmin.
TEST(Router, ResetAnchorClearsHysteresisStickiness) {
  Router router(RoutePolicy::kMeasuredLatency, 0, /*hysteresis=*/0.15);
  // Anchor on backend 0.
  EXPECT_EQ(router.route({measured_load(0, 1e-3, 2.0e-3),
                          measured_load(0, 1e-3, 4.0e-3)}),
            0u);
  // Backend 1 is now marginally better — within the band, the anchor
  // holds (this is the stickiness reset_anchor must clear).
  const std::vector<BackendLoad> post_swap = {measured_load(0, 1e-3, 2.0e-3),
                                              measured_load(0, 1e-3, 1.9e-3)};
  EXPECT_EQ(router.route(post_swap), 0u);
  // After a weight swap the engine resets the EWMAs and the anchor: the
  // SAME snapshot must now route to the plain argmin, backend 1.
  router.reset_anchor();
  EXPECT_EQ(router.route(post_swap), 1u);
}

// ---- cost_order (the cluster spill order) ------------------------------

TEST(Router, CostOrderRanksByEstimatedCompletionCheapestFirst) {
  Router router(RoutePolicy::kMeasuredLatency, 0, /*hysteresis=*/0.0);
  // Costs: b0 (2+1)*4ms = 12ms, b1 (0+1)*2ms = 2ms, b2 (5+1)*1ms = 6ms.
  const std::vector<BackendLoad> loads = {measured_load(2, 1e-3, 4e-3),
                                          measured_load(0, 1e-3, 2e-3),
                                          measured_load(5, 1e-3, 1e-3)};
  EXPECT_EQ(router.cost_order(loads),
            (std::vector<std::size_t>{1, 2, 0}));
}

TEST(Router, CostOrderTieBreaksToLowestIndexAndIgnoresAnchor) {
  Router router(RoutePolicy::kMeasuredLatency, 0, /*hysteresis=*/0.15);
  // Anchor the route() state on backend 2 (clearly best)...
  EXPECT_EQ(router.route({measured_load(0, 1e-3, 9e-3),
                          measured_load(0, 1e-3, 9e-3),
                          measured_load(0, 1e-3, 1e-3)}),
            2u);
  // ...then ask for a spill order over an all-equal snapshot: pure
  // snapshot function, ties to the lowest index, no anchor bias.
  const std::vector<BackendLoad> equal = {measured_load(1, 1e-3, 3e-3),
                                          measured_load(1, 1e-3, 3e-3),
                                          measured_load(1, 1e-3, 3e-3)};
  EXPECT_EQ(router.cost_order(equal),
            (std::vector<std::size_t>{0, 1, 2}));
  // And consulting it did not move the anchor.
  EXPECT_EQ(router.route({measured_load(0, 1e-3, 3.0e-3),
                          measured_load(0, 1e-3, 3.0e-3),
                          measured_load(0, 1e-3, 2.9e-3)}),
            2u);
}

TEST(Router, CostOrderFallsBackToModelWhileCold) {
  Router router(RoutePolicy::kMeasuredLatency);
  // All cold: the analytical model must drive the order.
  const std::vector<BackendLoad> loads = {measured_load(0, 10e-3, 0.0),
                                          measured_load(0, 2e-3, 0.0),
                                          measured_load(0, 5e-3, 0.0)};
  EXPECT_EQ(router.cost_order(loads),
            (std::vector<std::size_t>{1, 2, 0}));
  EXPECT_THROW(router.cost_order({}), odenet::Error);
}
