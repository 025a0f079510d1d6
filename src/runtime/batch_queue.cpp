#include "runtime/batch_queue.hpp"

#include <algorithm>
#include <sstream>

#include "util/check.hpp"

namespace odenet::runtime {

namespace {

std::size_t lane_index(Priority p) {
  const int i = static_cast<int>(p);
  ODENET_CHECK(i >= 0 && i < kPriorityLevels,
               "invalid priority value " << i);
  return static_cast<std::size_t>(i);
}

}  // namespace

BatchQueue::BatchQueue(int max_batch, std::chrono::microseconds promote_after,
                       std::size_t max_queue_depth, TenantTable* tenants)
    : max_batch_(max_batch),
      promote_after_(promote_after),
      max_queue_depth_(max_queue_depth),
      tenants_(tenants) {
  ODENET_CHECK(max_batch >= 1, "batch queue needs max_batch >= 1, got "
                                   << max_batch);
  ODENET_CHECK(promote_after >= std::chrono::microseconds::zero(),
               "promote_after must be >= 0, got " << promote_after.count()
                                                  << " us");
}

bool BatchQueue::admit_locked(PendingRequest& req, std::size_t lane,
                              bool fail_on_reject) {
  if (max_queue_depth_ == 0 || size_ < max_queue_depth_) return true;
  // Total bound hit. Ordering guarantee: before rejecting the arrival,
  // look for an evictable waiter in a STRICTLY lower scheduling lane —
  // lowest lane first, oldest (front-most) evictable waiter within it.
  // A waiter that aging promoted out of these lanes is deliberately out
  // of reach (see the header comment).
  for (std::size_t victim_lane = 0; victim_lane < lane; ++victim_lane) {
    auto& vl = lanes_[victim_lane];
    for (auto it = vl.begin(); it != vl.end(); ++it) {
      if (!it->cls.evictable) continue;
      evicted_[lane_index(it->cls.priority)] += 1;
      --size_;
      if (tenants_ != nullptr) tenants_->uncharge(it->cls.tenant);
      std::ostringstream os;
      os << "queue full: " << priority_name(it->cls.priority)
         << "-priority request evicted after "
         << std::chrono::duration<double, std::milli>(Clock::now() -
                                                      it->enqueued_at)
                .count()
         << " ms queued to admit a " << priority_name(req.cls.priority)
         << "-priority arrival (depth bound " << max_queue_depth_ << ")";
      it->promise.set_exception(std::make_exception_ptr(QueueFull(os.str())));
      vl.erase(it);
      return true;
    }
  }
  if (!fail_on_reject) return false;  // spill probe: leave req intact
  rejected_[lane] += 1;
  std::ostringstream os;
  os << "queue full: depth bound " << max_queue_depth_
     << " reached, no lower-priority waiter to evict for a "
     << priority_name(req.cls.priority) << "-priority arrival";
  req.promise.set_exception(std::make_exception_ptr(QueueFull(os.str())));
  return false;
}

PushOutcome BatchQueue::push_impl(PendingRequest& req, bool fail_on_reject) {
  const std::size_t lane = lane_index(req.cls.priority);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (closed_) return PushOutcome::kClosed;
    if (max_queue_depth_ > 0 || tenants_ != nullptr) {
      // Expired requests must not hold slots (or tenant quota) against
      // live arrivals: a queue "full" of dead work would shed traffic it
      // could serve.
      reap_expired_locked(Clock::now());
    }
    // Tenant quota first, and charged at queue-accept under this mutex —
    // push() and the try_push() spill probe land here alike, so a
    // request spilled in from another shard is counted against its
    // tenant exactly where it queues (the PR-8 spill path used to skip
    // submit-time accounting entirely). Quota shedding never evicts: a
    // tenant over ITS bound is not entitled to a neighbor's slot.
    bool charged = false;
    if (tenants_ != nullptr) {
      if (!tenants_->try_charge(req.cls.tenant)) {
        if (!fail_on_reject) return PushOutcome::kRejected;
        rejected_[lane] += 1;
        std::ostringstream os;
        os << "queue full: tenant '" << tenants_->name(req.cls.tenant)
           << "' is at its quota with " << tenants_->queued(req.cls.tenant)
           << " requests queued";
        req.promise.set_exception(
            std::make_exception_ptr(QueueFull(os.str())));
        return PushOutcome::kRejected;
      }
      charged = true;
    }
    if (!admit_locked(req, lane, fail_on_reject)) {
      if (charged) tenants_->uncharge(req.cls.tenant);
      return PushOutcome::kRejected;
    }
    req.enqueued_at = Clock::now();
    lanes_[lane].push_back(std::move(req));
    ++size_;
  }
  cv_.notify_one();
  return PushOutcome::kAccepted;
}

PushOutcome BatchQueue::push(PendingRequest&& req) {
  return push_impl(req, /*fail_on_reject=*/true);
}

PushOutcome BatchQueue::try_push(PendingRequest& req) {
  return push_impl(req, /*fail_on_reject=*/false);
}

void BatchQueue::reap_expired_locked(Clock::time_point now) {
  for (int p = 0; p < kPriorityLevels; ++p) {
    auto& lane = lanes_[static_cast<std::size_t>(p)];
    for (auto it = lane.begin(); it != lane.end();) {
      if (it->cls.deadline > now) {
        ++it;
        continue;
      }
      // Keyed by the ORIGINAL class: promotion moves a request between
      // lanes but never re-labels it.
      timeouts_[lane_index(it->cls.priority)] += 1;
      --size_;
      if (tenants_ != nullptr) tenants_->uncharge(it->cls.tenant);
      std::ostringstream os;
      os << "request deadline exceeded after "
         << std::chrono::duration<double, std::milli>(now - it->enqueued_at)
                .count()
         << " ms in queue (priority " << priority_name(it->cls.priority)
         << ")";
      it->promise.set_exception(
          std::make_exception_ptr(DeadlineExceeded(os.str())));
      it = lane.erase(it);
    }
  }
}

void BatchQueue::promote_aged_locked(Clock::time_point now) {
  if (promote_after_ <= std::chrono::microseconds::zero()) return;
  // Higher source lane first, so a request promoted low->normal is not
  // re-promoted normal->high within the same scan (it can climb again on a
  // later pop while it keeps waiting).
  for (int p = kPriorityLevels - 2; p >= 0; --p) {
    auto& lane = lanes_[static_cast<std::size_t>(p)];
    auto& up = lanes_[static_cast<std::size_t>(p + 1)];
    for (auto it = lane.begin(); it != lane.end();) {
      if (now - it->enqueued_at < promote_after_) {
        ++it;
        continue;
      }
      // Tail of the next lane up: ahead of every future arrival of that
      // class, behind the ones already waiting; relative order among
      // promoted requests is preserved.
      up.push_back(std::move(*it));
      it = lane.erase(it);
      ++promotions_;
    }
  }
}

bool BatchQueue::pop_batch(std::vector<PendingRequest>& out) {
  out.clear();
  std::unique_lock<std::mutex> lock(mutex_);
  // Work-conserving: the caller is an idle worker, so it takes whatever
  // is queued now and parks only while there is nothing to take.
  do {
    cv_.wait(lock, [&] { return closed_ || size_ > 0; });
    const auto now = Clock::now();
    reap_expired_locked(now);
    promote_aged_locked(now);
    if (size_ == 0 && closed_) return false;  // closed and drained
  } while (size_ == 0);  // everything pending had expired
  const std::size_t n =
      std::min<std::size_t>(size_, static_cast<std::size_t>(max_batch_));
  out.reserve(n);
  // Highest lane first, back-filling with lower lanes; within a lane,
  // FIFO when tenant-blind and weighted-fair among waiting tenants (FIFO
  // per tenant) otherwise — so priority still dominates and fairness only
  // decides among equals.
  std::vector<TenantId> cands;
  for (auto lane = lanes_.rbegin(); lane != lanes_.rend() && out.size() < n;
       ++lane) {
    while (!lane->empty() && out.size() < n) {
      auto it = lane->begin();
      if (tenants_ != nullptr) {
        cands.clear();
        for (const auto& r : *lane) {
          if (std::find(cands.begin(), cands.end(), r.cls.tenant) ==
              cands.end()) {
            cands.push_back(r.cls.tenant);
          }
        }
        // pick() charges virtual time even for a lone candidate —
        // service consumed alone still counts when contention returns.
        const TenantId winner = tenants_->pick(cands);
        it = std::find_if(lane->begin(), lane->end(),
                          [winner](const PendingRequest& r) {
                            return r.cls.tenant == winner;
                          });
        tenants_->uncharge(winner);
      }
      out.push_back(std::move(*it));
      lane->erase(it);
    }
  }
  size_ -= out.size();
  if (size_ > 0) cv_.notify_one();  // burst larger than one batch
  return true;
}

void BatchQueue::close() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
  }
  cv_.notify_all();
}

bool BatchQueue::closed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return closed_;
}

std::size_t BatchQueue::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return size_;
}

std::uint64_t BatchQueue::timeout_count(Priority p) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return timeouts_[lane_index(p)];
}

std::uint64_t BatchQueue::timeout_total() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t total = 0;
  for (const auto t : timeouts_) total += t;
  return total;
}

std::uint64_t BatchQueue::rejected_count(Priority p) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return rejected_[lane_index(p)];
}

std::uint64_t BatchQueue::rejected_total() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t total = 0;
  for (const auto r : rejected_) total += r;
  return total;
}

std::uint64_t BatchQueue::evicted_count(Priority p) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return evicted_[lane_index(p)];
}

std::uint64_t BatchQueue::evicted_total() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t total = 0;
  for (const auto e : evicted_) total += e;
  return total;
}

std::uint64_t BatchQueue::promotion_total() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return promotions_;
}

}  // namespace odenet::runtime
