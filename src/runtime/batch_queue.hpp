// Micro-batching request queue with priority classes, deadlines and
// bounded-depth admission control.
//
// Producers push single-image requests; one or more backend workers pop
// *batches*. Dispatch is work-conserving: a worker that calls pop_batch()
// is idle by construction, so the call returns as soon as anything is
// queued, taking up to max_batch requests. It blocks only while the
// queue is empty: a lone request on an idle backend starts at once, and
// under load batches still fill because requests pile up while the
// workers compute. close() wakes everyone; pending requests are still
// drained (pop keeps returning batches until the queue is empty).
//
// Scheduling:
//  - Three Priority classes; a popped batch takes high before normal
//    before low, FIFO within each class, and back-fills its remaining
//    slots with lower-class work.
//  - Aging/promotion (the starvation bound): with promote_after > 0, a
//    request queued longer than promote_after is promoted one priority
//    class in pop order (it physically moves to the tail of the next
//    lane up, so it goes ahead of every *future* higher-priority arrival
//    but behind the ones already waiting). A request that keeps waiting
//    keeps climbing (one class per pop scan once past the threshold), so
//    sustained high-priority saturation delays lower classes by roughly
//    promote_after per class instead of forever. Promotion changes
//    scheduling only — the request completes (and is accounted) under
//    its original class. promote_after == 0 disables aging.
//  - Per-request deadlines (RequestClass::deadline): a request still
//    queued when its deadline passes is removed, its promise failed with
//    DeadlineExceeded, and a per-priority timeout counter bumped — it
//    never occupies a batch slot. Expired requests are reaped on every
//    pop, and on every push to a bounded queue; a worker parks only on
//    an empty queue, so nothing waits for a reaper while one is idle.
//
// Admission control / load shedding: with max_queue_depth > 0 the queue
// fails fast under overload instead of letting depth (and queueing
// delay) grow unboundedly. A push that finds the queue at its
// bound either EVICTS the oldest waiter of the lowest scheduling lane
// strictly below the arrival (when one exists and is evictable — the
// victim's promise fails with QueueFull, the arrival is admitted) or
// REJECTS the arrival itself with QueueFull. With a TenantTable wired,
// quota shedding happens first: an arrival whose tenant is at its quota
// is rejected outright, before any eviction — running over one's own
// quota must not cost a neighbor its slot — and accepted requests are
// charged to their tenant's ledger under the same lock that admits
// them, then uncharged when they leave (popped, reaped, evicted). Pops
// are weighted-fair among the tenants waiting within each priority
// lane. The ordering guarantee: an
// arrival is never rejected for the total bound while a strictly lower
// SCHEDULING LANE holds an evictable waiter. Lanes, not original
// classes, on purpose: a request that aging already promoted out of a
// lane stops being an eviction candidate for the classes it climbed
// past — eviction composes with the starvation bound instead of
// undoing it. Rejections and evictions are counted per ORIGINAL priority
// class.
#pragma once

#include <array>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <vector>

#include "runtime/request.hpp"
#include "runtime/tenant.hpp"

namespace odenet::runtime {

/// What push() did with the request.
enum class PushOutcome {
  /// Enqueued; the promise will be fulfilled by a worker (or the reaper).
  kAccepted,
  /// Shed by admission control; the promise has already been failed with
  /// QueueFull and the rejection counted.
  kRejected,
  /// The queue was closed; the caller still owns the promise.
  kClosed,
};

class BatchQueue {
 public:
  /// promote_after: aging threshold (see the header comment); zero
  /// disables promotion.
  /// max_queue_depth: total queued requests across all classes (see the
  /// header comment); 0 = unbounded, never sheds.
  /// tenants (not owned, may be null): enables per-tenant quota charging
  /// at queue-accept and weighted-fair pop order within each priority
  /// lane — see runtime/tenant.hpp. Null keeps tenant-blind behavior.
  explicit BatchQueue(int max_batch,
                      std::chrono::microseconds promote_after = {},
                      std::size_t max_queue_depth = 0,
                      TenantTable* tenants = nullptr);

  /// Enqueues one request, applying admission control (see the header
  /// comment). On kRejected the queue has already failed the
  /// request's promise with QueueFull; on kClosed the caller still owns
  /// the promise.
  PushOutcome push(PendingRequest&& req);

  /// Spill probe: same admission control as push() — including eviction
  /// of a lower-lane waiter, which ADMITS the arrival — but on kRejected
  /// the request is left intact (promise unfailed, image still owned by
  /// the caller) and NOT counted against this queue's rejected ledger,
  /// so a cluster-level router can offer it to the next-best shard
  /// before anyone fails it. kAccepted consumes the request exactly like
  /// push(); kClosed leaves it with the caller.
  PushOutcome try_push(PendingRequest& req);

  /// Blocks while the queue is empty, then moves up to max_batch
  /// requests into `out` (cleared first), highest priority first. Returns
  /// false only when the queue is closed *and* empty — the worker-loop
  /// exit signal. Expired requests encountered along the way are failed
  /// with DeadlineExceeded, never returned.
  bool pop_batch(std::vector<PendingRequest>& out);

  /// Closes the queue for new work and wakes all waiters.
  void close();

  bool closed() const;
  std::size_t size() const;

  /// Requests rejected with DeadlineExceeded, cumulative (keyed by the
  /// request's original priority class, even after promotion).
  std::uint64_t timeout_count(Priority p) const;
  std::uint64_t timeout_total() const;

  /// Arrivals shed at push time with QueueFull (by original class).
  std::uint64_t rejected_count(Priority p) const;
  std::uint64_t rejected_total() const;

  /// Queued waiters evicted with QueueFull to admit a higher-priority
  /// arrival (by the VICTIM's original class).
  std::uint64_t evicted_count(Priority p) const;
  std::uint64_t evicted_total() const;

  /// Anti-starvation promotions performed, cumulative (a request promoted
  /// twice — low to normal to high — counts twice).
  std::uint64_t promotion_total() const;

 private:
  /// Admission control for one arrival landing in `lane`. Returns true
  /// when the request may enqueue (possibly after evicting a lower-class
  /// waiter). On false the request was rejected: with fail_on_reject the
  /// promise is failed with QueueFull and the rejection counted; without
  /// it (the try_push spill probe) the request is left untouched so the
  /// caller can offer it elsewhere. Caller holds mutex_.
  bool admit_locked(PendingRequest& req, std::size_t lane,
                    bool fail_on_reject);
  /// Shared body of push()/try_push(). Caller owns the request; it is
  /// consumed only on kAccepted (and failed on kRejected only when
  /// fail_on_reject is set).
  PushOutcome push_impl(PendingRequest& req, bool fail_on_reject);
  /// Fails and removes every request whose deadline has passed. Promises
  /// are completed under the lock — std::promise::set_exception only
  /// stores and wakes, it runs no user code. Caller holds mutex_.
  void reap_expired_locked(Clock::time_point now);
  /// Moves requests queued longer than promote_after one lane up (no-op
  /// when aging is disabled). Caller holds mutex_.
  void promote_aged_locked(Clock::time_point now);

  const int max_batch_;
  /// Aging threshold: promote after this long queued. 0 = off.
  const std::chrono::microseconds promote_after_;
  /// Total depth bound; 0 = unbounded.
  const std::size_t max_queue_depth_;
  /// Shared per-tenant ledger + fair scheduler; null = tenant-blind.
  TenantTable* const tenants_;

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  /// One FIFO lane per priority class, indexed by Priority.
  std::array<std::deque<PendingRequest>, kPriorityLevels> lanes_;
  std::size_t size_ = 0;
  std::array<std::uint64_t, kPriorityLevels> timeouts_{};
  std::array<std::uint64_t, kPriorityLevels> rejected_{};
  std::array<std::uint64_t, kPriorityLevels> evicted_{};
  std::uint64_t promotions_ = 0;
  bool closed_ = false;
};

}  // namespace odenet::runtime
