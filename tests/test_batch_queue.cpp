// Direct unit tests for the priority/deadline-aware micro-batching queue
// (runtime::BatchQueue): work-conserving dispatch, close semantics,
// priority ordering, aging, expired-deadline rejection, bounded-depth
// admission control (QueueFull rejection and higher-priority eviction),
// and per-tenant quotas with weighted-fair pops.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "runtime/batch_queue.hpp"
#include "util/stopwatch.hpp"

using namespace odenet;
using runtime::BatchQueue;
using runtime::Clock;
using runtime::DeadlineExceeded;
using runtime::PendingRequest;
using runtime::PushOutcome;
using runtime::Priority;
using runtime::QueueFull;

namespace {

/// A request tagged through its 1-element image tensor so pop order is
/// observable.
PendingRequest make_request(float tag,
                            Priority priority = Priority::kNormal) {
  PendingRequest req;
  req.image = core::Tensor({1});
  req.image.data()[0] = tag;
  req.cls.priority = priority;
  return req;
}

float tag_of(const PendingRequest& req) { return req.image.data()[0]; }

}  // namespace

// Work-conserving dispatch: a pop is an idle worker asking for work, so
// a lone request on an idle queue starts at once as a batch of one —
// nothing waits for company that may never arrive.
TEST(BatchQueue, LoneRequestPopsAtOnceAsBatchOfOne) {
  BatchQueue queue(8);
  ASSERT_EQ(queue.push(make_request(1.0f)), PushOutcome::kAccepted);

  util::Stopwatch watch;
  std::vector<PendingRequest> batch;
  ASSERT_TRUE(queue.pop_batch(batch));
  // Generous slack for a loaded runner; the pop itself never sleeps.
  EXPECT_LT(watch.seconds(), 5.0);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_FLOAT_EQ(tag_of(batch[0]), 1.0f);
  EXPECT_EQ(queue.size(), 0u);
}

// A pop takes min(size, max_batch) requests, highest lane first and
// back-filling with lower lanes; the next pop gets the rest.
TEST(BatchQueue, PopTakesUpToMaxBatchInPriorityOrderThenTheRest) {
  BatchQueue queue(4);
  ASSERT_EQ(queue.push(make_request(1.0f, Priority::kLow)),
            PushOutcome::kAccepted);
  ASSERT_EQ(queue.push(make_request(2.0f, Priority::kNormal)),
            PushOutcome::kAccepted);
  ASSERT_EQ(queue.push(make_request(3.0f, Priority::kHigh)),
            PushOutcome::kAccepted);
  ASSERT_EQ(queue.push(make_request(4.0f, Priority::kLow)),
            PushOutcome::kAccepted);
  ASSERT_EQ(queue.push(make_request(5.0f, Priority::kHigh)),
            PushOutcome::kAccepted);
  ASSERT_EQ(queue.push(make_request(6.0f, Priority::kNormal)),
            PushOutcome::kAccepted);

  std::vector<PendingRequest> batch;
  ASSERT_TRUE(queue.pop_batch(batch));
  ASSERT_EQ(batch.size(), 4u);
  EXPECT_FLOAT_EQ(tag_of(batch[0]), 3.0f);  // high, FIFO
  EXPECT_FLOAT_EQ(tag_of(batch[1]), 5.0f);
  EXPECT_FLOAT_EQ(tag_of(batch[2]), 2.0f);  // normal back-fills
  EXPECT_FLOAT_EQ(tag_of(batch[3]), 6.0f);
  EXPECT_EQ(queue.size(), 2u);

  ASSERT_TRUE(queue.pop_batch(batch));
  ASSERT_EQ(batch.size(), 2u);  // the rest, without waiting for more
  EXPECT_FLOAT_EQ(tag_of(batch[0]), 1.0f);
  EXPECT_FLOAT_EQ(tag_of(batch[1]), 4.0f);
  EXPECT_EQ(queue.size(), 0u);
}

TEST(BatchQueue, BurstFillsMaxBatchImmediately) {
  BatchQueue queue(4);
  for (int i = 0; i < 8; ++i) {
    ASSERT_EQ(queue.push(make_request(static_cast<float>(i))), PushOutcome::kAccepted);
  }

  util::Stopwatch watch;
  std::vector<PendingRequest> batch;
  ASSERT_TRUE(queue.pop_batch(batch));
  EXPECT_EQ(batch.size(), 4u);
  ASSERT_TRUE(queue.pop_batch(batch));
  EXPECT_EQ(batch.size(), 4u);
  EXPECT_LT(watch.seconds(), 5.0);
  EXPECT_EQ(queue.size(), 0u);
}

TEST(BatchQueue, CloseWhileWorkerWaitsDrainsWithoutDeadlineWait) {
  BatchQueue queue(64);
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(queue.push(make_request(static_cast<float>(i))), PushOutcome::kAccepted);
  }

  // The popper takes the three queued requests at once, then parks on
  // the empty queue; close() must wake it with the exit signal.
  std::vector<PendingRequest> batch;
  bool popped = false;
  bool exited = false;
  std::thread worker([&] {
    popped = queue.pop_batch(batch);
    std::vector<PendingRequest> rest;
    exited = !queue.pop_batch(rest);  // closed and drained
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  util::Stopwatch watch;
  queue.close();
  worker.join();
  EXPECT_LT(watch.seconds(), 5.0);

  EXPECT_TRUE(popped);
  EXPECT_TRUE(exited);
  EXPECT_EQ(batch.size(), 3u);
  EXPECT_EQ(queue.push(make_request(9.0f)), PushOutcome::kClosed);  // closed refuses new work
}

TEST(BatchQueue, PopsHighestPriorityFirstFifoWithinClass) {
  BatchQueue queue(2);
  ASSERT_EQ(queue.push(make_request(10.0f, Priority::kLow)), PushOutcome::kAccepted);
  ASSERT_EQ(queue.push(make_request(11.0f, Priority::kLow)), PushOutcome::kAccepted);
  ASSERT_EQ(queue.push(make_request(20.0f, Priority::kHigh)), PushOutcome::kAccepted);
  ASSERT_EQ(queue.push(make_request(30.0f, Priority::kNormal)), PushOutcome::kAccepted);
  queue.close();  // the last pop below then reports closed-and-drained

  std::vector<PendingRequest> batch;
  ASSERT_TRUE(queue.pop_batch(batch));
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_FLOAT_EQ(tag_of(batch[0]), 20.0f);  // high first
  EXPECT_FLOAT_EQ(tag_of(batch[1]), 30.0f);  // then normal

  ASSERT_TRUE(queue.pop_batch(batch));
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_FLOAT_EQ(tag_of(batch[0]), 10.0f);  // low, FIFO within class
  EXPECT_FLOAT_EQ(tag_of(batch[1]), 11.0f);

  EXPECT_FALSE(queue.pop_batch(batch));
}

// Anti-starvation aging: a low request older than promote_after climbs
// one class per pop scan, so it overtakes high-priority arrivals that land
// after its promotion instead of waiting forever behind them.
TEST(BatchQueue, AgedRequestIsPromotedPastLaterHighArrivals) {
  BatchQueue queue(1, /*promote_after=*/std::chrono::milliseconds(1));
  ASSERT_EQ(queue.push(make_request(1.0f, Priority::kLow)), PushOutcome::kAccepted);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));  // > 1 ms
  ASSERT_EQ(queue.push(make_request(2.0f, Priority::kHigh)), PushOutcome::kAccepted);
  ASSERT_EQ(queue.push(make_request(3.0f, Priority::kHigh)), PushOutcome::kAccepted);

  std::vector<PendingRequest> batch;
  // Pop 1: the scan lifts the aged low request into the normal lane (one
  // class per scan); the batch still takes the queued high work first.
  ASSERT_TRUE(queue.pop_batch(batch));
  EXPECT_FLOAT_EQ(tag_of(batch[0]), 2.0f);
  // Pop 2: second scan lifts it normal -> high, at the TAIL of the high
  // lane — behind 3.0, which was already waiting.
  ASSERT_TRUE(queue.pop_batch(batch));
  EXPECT_FLOAT_EQ(tag_of(batch[0]), 3.0f);
  // New high traffic now queues BEHIND the promoted request.
  ASSERT_EQ(queue.push(make_request(4.0f, Priority::kHigh)), PushOutcome::kAccepted);
  ASSERT_TRUE(queue.pop_batch(batch));
  EXPECT_FLOAT_EQ(tag_of(batch[0]), 1.0f);
  // Promotion re-orders scheduling but never re-labels the request.
  EXPECT_EQ(batch[0].cls.priority, Priority::kLow);
  ASSERT_TRUE(queue.pop_batch(batch));
  EXPECT_FLOAT_EQ(tag_of(batch[0]), 4.0f);

  EXPECT_EQ(queue.promotion_total(), 2u);  // low->normal, normal->high
  EXPECT_EQ(queue.timeout_total(), 0u);
}

// Promotion waits for the configured duration: a low request younger
// than promote_after stays in its lane, and climbs once it is older.
TEST(BatchQueue, PromotionFiresOnlyAfterPromoteAfter) {
  const auto promote_after = std::chrono::milliseconds(100);
  BatchQueue queue(1, promote_after);
  const auto before_push = Clock::now();
  ASSERT_EQ(queue.push(make_request(1.0f, Priority::kLow)),
            PushOutcome::kAccepted);
  const auto after_push = Clock::now();
  ASSERT_EQ(queue.push(make_request(2.0f, Priority::kHigh)),
            PushOutcome::kAccepted);

  std::vector<PendingRequest> batch;
  ASSERT_TRUE(queue.pop_batch(batch));
  EXPECT_FLOAT_EQ(tag_of(batch[0]), 2.0f);
  // Checked only when the pop surely ran inside the window, so a stalled
  // runner cannot turn a correct promotion into a failure.
  if (Clock::now() - before_push < promote_after) {
    EXPECT_EQ(queue.promotion_total(), 0u);
  }

  std::this_thread::sleep_until(after_push + promote_after);
  ASSERT_EQ(queue.push(make_request(3.0f, Priority::kHigh)),
            PushOutcome::kAccepted);
  ASSERT_TRUE(queue.pop_batch(batch));
  // The aged low request climbed low -> normal in this scan; the high
  // arrival still goes first.
  EXPECT_FLOAT_EQ(tag_of(batch[0]), 3.0f);
  EXPECT_EQ(queue.promotion_total(), 1u);
  ASSERT_TRUE(queue.pop_batch(batch));
  EXPECT_FLOAT_EQ(tag_of(batch[0]), 1.0f);
  EXPECT_EQ(batch[0].cls.priority, Priority::kLow);  // never re-labeled
}

TEST(BatchQueue, PromotionDisabledByDefault) {
  BatchQueue queue(1);
  ASSERT_EQ(queue.push(make_request(1.0f, Priority::kLow)), PushOutcome::kAccepted);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ASSERT_EQ(queue.push(make_request(2.0f, Priority::kHigh)), PushOutcome::kAccepted);

  std::vector<PendingRequest> batch;
  ASSERT_TRUE(queue.pop_batch(batch));
  EXPECT_FLOAT_EQ(tag_of(batch[0]), 2.0f);  // strict priority, no aging
  ASSERT_TRUE(queue.pop_batch(batch));
  EXPECT_FLOAT_EQ(tag_of(batch[0]), 1.0f);
  EXPECT_EQ(queue.promotion_total(), 0u);
}

TEST(BatchQueue, ExpiredDeadlineIsRejectedNotServed) {
  BatchQueue queue(4);
  PendingRequest doomed = make_request(1.0f, Priority::kLow);
  doomed.cls.deadline = Clock::now() + std::chrono::microseconds(500);
  std::future<runtime::InferenceResult> doomed_future =
      doomed.promise.get_future();
  ASSERT_EQ(queue.push(std::move(doomed)), PushOutcome::kAccepted);
  ASSERT_EQ(queue.push(make_request(2.0f)), PushOutcome::kAccepted);  // no deadline
  std::this_thread::sleep_for(std::chrono::milliseconds(5));

  std::vector<PendingRequest> batch;
  ASSERT_TRUE(queue.pop_batch(batch));
  // Only the live request rides; the expired one never occupies a slot.
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_FLOAT_EQ(tag_of(batch[0]), 2.0f);
  EXPECT_THROW(doomed_future.get(), DeadlineExceeded);
  EXPECT_EQ(queue.timeout_count(Priority::kLow), 1u);
  EXPECT_EQ(queue.timeout_count(Priority::kNormal), 0u);
  EXPECT_EQ(queue.timeout_total(), 1u);
}

// ---- admission control / load shedding --------------------------------

TEST(BatchQueue, DepthBoundRejectsArrivalFailFast) {
  BatchQueue queue(8, {}, /*max_queue_depth=*/2);
  ASSERT_EQ(queue.push(make_request(1.0f)), PushOutcome::kAccepted);
  ASSERT_EQ(queue.push(make_request(2.0f)), PushOutcome::kAccepted);

  PendingRequest doomed = make_request(3.0f);
  auto doomed_future = doomed.promise.get_future();
  util::Stopwatch watch;
  EXPECT_EQ(queue.push(std::move(doomed)), PushOutcome::kRejected);
  // Fail-fast: the future already carries QueueFull, no waiting involved.
  EXPECT_THROW(doomed_future.get(), QueueFull);
  EXPECT_LT(watch.seconds(), 5.0);

  EXPECT_EQ(queue.size(), 2u);  // the waiters are untouched
  EXPECT_EQ(queue.rejected_count(Priority::kNormal), 1u);
  EXPECT_EQ(queue.rejected_total(), 1u);
  EXPECT_EQ(queue.evicted_total(), 0u);
  EXPECT_EQ(queue.timeout_total(), 0u);

  // Shedding is about ARRIVALS, not queued work: both waiters drain fine.
  std::vector<PendingRequest> batch;
  queue.close();
  ASSERT_TRUE(queue.pop_batch(batch));
  EXPECT_EQ(batch.size(), 2u);
}

TEST(BatchQueue, HighPriorityEvictsOldestLowInsteadOfBeingRejected) {
  BatchQueue queue(8, {}, /*max_queue_depth=*/2);
  PendingRequest victim = make_request(1.0f, Priority::kLow);
  auto victim_future = victim.promise.get_future();
  ASSERT_EQ(queue.push(std::move(victim)), PushOutcome::kAccepted);
  ASSERT_EQ(queue.push(make_request(2.0f, Priority::kLow)),
            PushOutcome::kAccepted);

  // The queue is full, but a high arrival must never be rejected while a
  // lower class has evictable waiters: the OLDEST low request is shed.
  ASSERT_EQ(queue.push(make_request(3.0f, Priority::kHigh)),
            PushOutcome::kAccepted);
  EXPECT_THROW(victim_future.get(), QueueFull);
  EXPECT_EQ(queue.size(), 2u);  // still at the bound
  EXPECT_EQ(queue.evicted_count(Priority::kLow), 1u);
  EXPECT_EQ(queue.evicted_total(), 1u);
  EXPECT_EQ(queue.rejected_total(), 0u);

  std::vector<PendingRequest> batch;
  queue.close();
  ASSERT_TRUE(queue.pop_batch(batch));
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_FLOAT_EQ(tag_of(batch[0]), 3.0f);  // the admitted high arrival
  EXPECT_FLOAT_EQ(tag_of(batch[1]), 2.0f);  // the surviving low waiter
}

TEST(BatchQueue, EvictionTakesTheLowestClassFirst) {
  BatchQueue queue(8, {}, /*max_queue_depth=*/3);
  PendingRequest low = make_request(1.0f, Priority::kLow);
  auto low_future = low.promise.get_future();
  ASSERT_EQ(queue.push(std::move(low)), PushOutcome::kAccepted);
  PendingRequest normal = make_request(2.0f, Priority::kNormal);
  auto normal_future = normal.promise.get_future();
  ASSERT_EQ(queue.push(std::move(normal)), PushOutcome::kAccepted);
  ASSERT_EQ(queue.push(make_request(3.0f, Priority::kHigh)),
            PushOutcome::kAccepted);

  // A high arrival evicts from the LOWEST class with waiters: low first.
  ASSERT_EQ(queue.push(make_request(4.0f, Priority::kHigh)),
            PushOutcome::kAccepted);
  EXPECT_THROW(low_future.get(), QueueFull);
  EXPECT_EQ(queue.evicted_count(Priority::kLow), 1u);

  // With the low lane empty, the next high arrival evicts the normal.
  ASSERT_EQ(queue.push(make_request(5.0f, Priority::kHigh)),
            PushOutcome::kAccepted);
  EXPECT_THROW(normal_future.get(), QueueFull);
  EXPECT_EQ(queue.evicted_count(Priority::kNormal), 1u);

  // Only high waiters remain: a further high arrival has nothing to
  // evict (never evicts its own class) and is itself rejected.
  PendingRequest doomed = make_request(6.0f, Priority::kHigh);
  auto doomed_future = doomed.promise.get_future();
  EXPECT_EQ(queue.push(std::move(doomed)), PushOutcome::kRejected);
  EXPECT_THROW(doomed_future.get(), QueueFull);
  EXPECT_EQ(queue.rejected_count(Priority::kHigh), 1u);
  EXPECT_EQ(queue.evicted_total(), 2u);
  EXPECT_EQ(queue.size(), 3u);
}

TEST(BatchQueue, LowArrivalNeverEvicts) {
  // A low arrival has no lower class to shed: rejected outright.
  BatchQueue queue(8, {}, /*max_queue_depth=*/1);
  ASSERT_EQ(queue.push(make_request(1.0f, Priority::kLow)),
            PushOutcome::kAccepted);
  EXPECT_EQ(queue.push(make_request(2.0f, Priority::kLow)),
            PushOutcome::kRejected);
  EXPECT_EQ(queue.rejected_count(Priority::kLow), 1u);
  EXPECT_EQ(queue.evicted_total(), 0u);
}

TEST(BatchQueue, NonEvictableWaiterIsSkippedByEviction) {
  BatchQueue queue(8, {}, /*max_queue_depth=*/2);
  PendingRequest pinned = make_request(1.0f, Priority::kLow);
  pinned.cls.evictable = false;
  ASSERT_EQ(queue.push(std::move(pinned)), PushOutcome::kAccepted);
  PendingRequest soft = make_request(2.0f, Priority::kLow);
  auto soft_future = soft.promise.get_future();
  ASSERT_EQ(queue.push(std::move(soft)), PushOutcome::kAccepted);

  // The older waiter is non-evictable: the NEWER evictable one is shed.
  ASSERT_EQ(queue.push(make_request(3.0f, Priority::kHigh)),
            PushOutcome::kAccepted);
  EXPECT_THROW(soft_future.get(), QueueFull);

  // Only the non-evictable low remains below high: the next high arrival
  // finds nothing to evict and is rejected.
  EXPECT_EQ(queue.push(make_request(4.0f, Priority::kHigh)),
            PushOutcome::kRejected);
  EXPECT_EQ(queue.evicted_count(Priority::kLow), 1u);
  EXPECT_EQ(queue.rejected_count(Priority::kHigh), 1u);
}

TEST(BatchQueue, ExpiredRequestsDoNotHoldSlotsAgainstArrivals) {
  BatchQueue queue(8, {}, /*max_queue_depth=*/1);
  PendingRequest stale = make_request(1.0f);
  stale.cls.deadline = Clock::now() + std::chrono::milliseconds(2);
  auto stale_future = stale.promise.get_future();
  ASSERT_EQ(queue.push(std::move(stale)), PushOutcome::kAccepted);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));

  // The queue is "full" of dead work only: push must reap, then admit.
  ASSERT_EQ(queue.push(make_request(2.0f)), PushOutcome::kAccepted);
  EXPECT_THROW(stale_future.get(), DeadlineExceeded);
  EXPECT_EQ(queue.size(), 1u);
  EXPECT_EQ(queue.timeout_total(), 1u);
  EXPECT_EQ(queue.rejected_total(), 0u);
}

// ---- try_push (the cluster spill probe) --------------------------------

TEST(BatchQueue, TryPushRejectLeavesRequestIntactForSpill) {
  BatchQueue queue(8, {}, /*max_queue_depth=*/1);
  ASSERT_EQ(queue.push(make_request(1.0f)), PushOutcome::kAccepted);

  // The probe bounces off the full queue WITHOUT failing the promise —
  // the caller keeps the request and may offer it to another queue.
  PendingRequest probe = make_request(2.0f);
  auto probe_future = probe.promise.get_future();
  EXPECT_EQ(queue.try_push(probe), PushOutcome::kRejected);
  EXPECT_FLOAT_EQ(tag_of(probe), 2.0f);  // image still owned by the caller
  EXPECT_EQ(probe_future.wait_for(std::chrono::seconds(0)),
            std::future_status::timeout);  // promise untouched
  EXPECT_EQ(queue.rejected_total(), 0u);   // a probe is not a shed

  // The same request then lands in a second queue normally.
  BatchQueue other(8, {}, /*max_queue_depth=*/1);
  EXPECT_EQ(other.try_push(probe), PushOutcome::kAccepted);
  other.close();
  std::vector<PendingRequest> batch;
  ASSERT_TRUE(other.pop_batch(batch));
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_FLOAT_EQ(tag_of(batch[0]), 2.0f);
}

TEST(BatchQueue, TryPushStillAdmitsByEvictingLowerClass) {
  // The probe shares submit()'s admission control: a high-priority
  // arrival on a full queue still evicts the oldest evictable lower-class
  // waiter instead of bouncing.
  BatchQueue queue(8, {}, /*max_queue_depth=*/1);
  PendingRequest victim = make_request(1.0f, Priority::kLow);
  auto victim_future = victim.promise.get_future();
  ASSERT_EQ(queue.push(std::move(victim)), PushOutcome::kAccepted);

  PendingRequest urgent = make_request(2.0f, Priority::kHigh);
  EXPECT_EQ(queue.try_push(urgent), PushOutcome::kAccepted);
  EXPECT_THROW(victim_future.get(), QueueFull);
  EXPECT_EQ(queue.evicted_total(), 1u);
  EXPECT_EQ(queue.size(), 1u);
}

// ---- per-tenant quotas + weighted-fair pick ----------------------------

namespace {

PendingRequest tenant_request(runtime::TenantId tenant, float tag,
                              Priority priority = Priority::kNormal) {
  PendingRequest req = make_request(tag, priority);
  req.cls.tenant = tenant;
  return req;
}

}  // namespace

TEST(BatchQueue, TenantQuotaShedsAtAcceptAndFreesOnPop) {
  runtime::TenantTable tenants;
  const auto a = tenants.configure("a", {1.0, 2});
  BatchQueue queue(1, {}, {}, &tenants);

  ASSERT_EQ(queue.push(tenant_request(a, 1.0f)), PushOutcome::kAccepted);
  ASSERT_EQ(queue.push(tenant_request(a, 2.0f)), PushOutcome::kAccepted);
  EXPECT_EQ(tenants.queued(a), 2u);

  // Third arrival is at the quota: failed with QueueFull and counted both
  // as a queue rejection and on the tenant's ledger.
  PendingRequest over = tenant_request(a, 3.0f);
  auto over_future = over.promise.get_future();
  EXPECT_EQ(queue.push(std::move(over)), PushOutcome::kRejected);
  EXPECT_THROW(over_future.get(), QueueFull);
  EXPECT_EQ(queue.rejected_total(), 1u);
  EXPECT_EQ(tenants.quota_rejected_total(), 1u);

  // Popping releases the charge: the tenant can queue again.
  std::vector<PendingRequest> batch;
  ASSERT_TRUE(queue.pop_batch(batch));
  EXPECT_EQ(tenants.queued(a), 1u);
  EXPECT_EQ(queue.push(tenant_request(a, 4.0f)), PushOutcome::kAccepted);
}

TEST(BatchQueue, QuotaRejectionNeverEvictsANeighbor) {
  runtime::TenantTable tenants;
  const auto a = tenants.configure("a", {1.0, 1});
  const auto b = tenants.intern("b");
  BatchQueue queue(8, {}, /*max_queue_depth=*/3, &tenants);

  ASSERT_EQ(queue.push(tenant_request(a, 1.0f)), PushOutcome::kAccepted);
  ASSERT_EQ(queue.push(tenant_request(b, 2.0f, Priority::kLow)),
            PushOutcome::kAccepted);
  ASSERT_EQ(queue.push(tenant_request(b, 3.0f, Priority::kLow)),
            PushOutcome::kAccepted);

  // Tenant a is at ITS quota: even a high-priority arrival is shed
  // outright — b's evictable low waiters are not touched.
  PendingRequest urgent = tenant_request(a, 4.0f, Priority::kHigh);
  auto urgent_future = urgent.promise.get_future();
  EXPECT_EQ(queue.push(std::move(urgent)), PushOutcome::kRejected);
  EXPECT_THROW(urgent_future.get(), QueueFull);
  EXPECT_EQ(queue.evicted_total(), 0u);
  EXPECT_EQ(queue.size(), 3u);
}

TEST(BatchQueue, TryPushProbeChargesQuotaOnlyOnAccept) {
  // The spill-probe honesty fix: a probe that bounces leaves no charge
  // behind, a probe that lands charges the tenant at THIS queue.
  runtime::TenantTable tenants;
  const auto a = tenants.configure("a", {1.0, 1});
  BatchQueue full(8, {}, /*max_queue_depth=*/1, &tenants);
  BatchQueue sibling(8, {}, /*max_queue_depth=*/1, &tenants);
  ASSERT_EQ(full.push(make_request(1.0f)), PushOutcome::kAccepted);

  PendingRequest probe = tenant_request(a, 2.0f);
  EXPECT_EQ(full.try_push(probe), PushOutcome::kRejected);  // depth bound
  EXPECT_EQ(tenants.queued(a), 0u);  // bounced probe left no charge
  EXPECT_EQ(sibling.try_push(probe), PushOutcome::kAccepted);
  EXPECT_EQ(tenants.queued(a), 1u);  // charged where it actually queues

  // At quota now: a further probe is refused WITHOUT failing the promise
  // (the cluster may still find headroom under another tenant).
  PendingRequest second = tenant_request(a, 3.0f);
  auto second_future = second.promise.get_future();
  EXPECT_EQ(sibling.try_push(second), PushOutcome::kRejected);
  EXPECT_EQ(second_future.wait_for(std::chrono::seconds(0)),
            std::future_status::timeout);
  EXPECT_EQ(tenants.quota_rejected_total(), 1u);
}

TEST(BatchQueue, EvictionAndExpiryReleaseTheTenantCharge) {
  runtime::TenantTable tenants;
  const auto a = tenants.configure("a", {1.0, 1});
  BatchQueue queue(8, {}, /*max_queue_depth=*/1, &tenants);

  PendingRequest victim = tenant_request(a, 1.0f, Priority::kLow);
  auto victim_future = victim.promise.get_future();
  ASSERT_EQ(queue.push(std::move(victim)), PushOutcome::kAccepted);
  EXPECT_EQ(tenants.queued(a), 1u);

  // A high arrival evicts a's waiter; the charge is released with it.
  ASSERT_EQ(queue.push(make_request(2.0f, Priority::kHigh)),
            PushOutcome::kAccepted);
  EXPECT_THROW(victim_future.get(), QueueFull);
  EXPECT_EQ(tenants.queued(a), 0u);

  // Deadline reaping releases the charge too.
  std::vector<PendingRequest> batch;
  ASSERT_TRUE(queue.pop_batch(batch));  // drain the high request
  PendingRequest doomed = tenant_request(a, 3.0f);
  doomed.cls.deadline = Clock::now() + std::chrono::microseconds(200);
  auto doomed_future = doomed.promise.get_future();
  ASSERT_EQ(queue.push(std::move(doomed)), PushOutcome::kAccepted);
  std::this_thread::sleep_for(std::chrono::milliseconds(3));
  queue.close();
  queue.pop_batch(batch);  // reaps the expired request
  EXPECT_THROW(doomed_future.get(), DeadlineExceeded);
  EXPECT_EQ(tenants.queued(a), 0u);
}

TEST(BatchQueue, PopsAreWeightedFairAmongTenantsInOneLane) {
  runtime::TenantTable tenants;
  const auto a = tenants.configure("a", {1.0, 0});
  const auto b = tenants.configure("b", {2.0, 0});
  BatchQueue queue(1, {}, {}, &tenants);

  // All of a's work arrives BEFORE any of b's; FIFO alone would serve
  // a,a,a,b,b,b. Stride scheduling interleaves by weight instead.
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(queue.push(tenant_request(a, 10.0f + i)),
              PushOutcome::kAccepted);
  }
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(queue.push(tenant_request(b, 20.0f + i)),
              PushOutcome::kAccepted);
  }

  std::vector<runtime::TenantId> order;
  std::vector<PendingRequest> batch;
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(queue.pop_batch(batch));
    ASSERT_EQ(batch.size(), 1u);
    order.push_back(batch[0].cls.tenant);
  }
  // Deterministic stride trace (w_a=1, w_b=2): a then b,b then a, ...
  const std::vector<runtime::TenantId> expected = {a, b, b, a, b, a};
  EXPECT_EQ(order, expected);
  // Within each tenant the order stays FIFO.
  EXPECT_EQ(queue.timeout_total(), 0u);
}

TEST(BatchQueue, WeightedFairPickStaysInsideThePriorityLane) {
  // Priority still dominates: a high request of a LIGHT tenant goes
  // before queued normal work of the heavy tenant.
  runtime::TenantTable tenants;
  const auto a = tenants.configure("a", {100.0, 0});
  const auto b = tenants.configure("b", {0.5, 0});
  BatchQueue queue(1, {}, {}, &tenants);

  ASSERT_EQ(queue.push(tenant_request(a, 1.0f, Priority::kNormal)),
            PushOutcome::kAccepted);
  ASSERT_EQ(queue.push(tenant_request(b, 2.0f, Priority::kHigh)),
            PushOutcome::kAccepted);

  std::vector<PendingRequest> batch;
  ASSERT_TRUE(queue.pop_batch(batch));
  EXPECT_FLOAT_EQ(tag_of(batch[0]), 2.0f);  // high lane first, weight moot
  ASSERT_TRUE(queue.pop_batch(batch));
  EXPECT_FLOAT_EQ(tag_of(batch[0]), 1.0f);
}
