// Sharded multi-engine serving: N InferenceEngine shards behind
// tenant-aware consistent-hash placement with spill-then-shed.
//
// Today's scaling ceiling is one engine; this layer is the next axis the
// ROADMAP names (open item 1, the iks_simulator shape): host-side
// placement across N accelerator shards, each a full InferenceEngine
// with its own snapshot version and backend mix — a canary shard can
// serve v+1 while the fleet serves v, and a shard can be a pure-float
// board next to a PL-offload one.
//
// Placement (ClusterRouter):
//  - Tenant-aware consistent hashing. Each shard owns kVirtualNodes
//    points on a 64-bit hash ring; a tenant's home shard is the ring
//    successor of its hash. Deterministic across cluster instances with
//    the same shard names, and adding/removing a shard only remaps the
//    tenants whose arcs it owned — the property that keeps per-tenant
//    state (warm caches, fairness ledgers) from churning fleet-wide on
//    topology changes.
//  - Failure-aware: a non-admitting shard (drained, failed, or
//    operator-cordoned via set_admitting) is skipped by walking the ring
//    to the next admitting successor — the classic consistent-hash
//    failover, still deterministic.
//  - Spill-then-shed (the carried PR 5 follow-up): when the home shard's
//    bounded queues are full, the request is offered to the remaining
//    admitting shards in runtime::cost_order() — cheapest estimated
//    completion first, from each shard's measured-EWMA service time
//    (the capped model while cold) — via InferenceEngine::try_submit,
//    which leaves the request intact on a full queue instead of failing
//    it. Every admitting shard is a candidate (ClusterConfig::spill
//    turns spilling off). Only when every candidate is full does the
//    cluster shed, and the caller sees one QueueFull through the
//    future, exactly like a single overloaded engine.
//
// EngineCluster owns the shards and the stats ledger (placed /
// spilled_in per shard, spilled / shed / no_admitting totals). The
// socket front-end (cluster/frontend.hpp) exposes submit() over a
// length-prefixed binary protocol; bench/bench_cluster.cpp drives the
// whole stack with trace-driven open-loop load.
#pragma once

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "runtime/engine.hpp"

namespace odenet::cluster {

/// Returned as the shard index when no shard accepted a request.
inline constexpr std::size_t kNoShard = static_cast<std::size_t>(-1);

/// Ring points per shard. More points smooth the per-shard arc share at
/// O(shards x kVirtualNodes) ring size.
inline constexpr int kVirtualNodes = 64;

/// One shard of the cluster: its own snapshot (distinct versions across
/// shards are allowed — canaries, staged rollouts) and engine config
/// (distinct backend mixes allowed).
struct ShardSpec {
  models::ModelSnapshot::Ptr snapshot;
  runtime::EngineConfig engine;
  /// Ring identity; defaults to "shard<index>". Placement is a pure
  /// function of the shard names, so keeping names stable across
  /// restarts keeps tenants on their shards.
  std::string name;
};

struct ClusterConfig {
  /// Master switch for spill-then-shed; off = shed immediately when the
  /// home shard is full (the pre-spill behavior, kept for A/B). On, every
  /// admitting shard is a spill candidate.
  bool spill = true;
};

/// Pure placement logic, separated from engine ownership so tests can
/// drive it with fake loads. Thread-safe: all state is immutable after
/// construction.
class ClusterRouter {
 public:
  /// shards: one name per shard, index-aligned with the loads and
  /// admitting vectors later passed to plan().
  explicit ClusterRouter(const std::vector<std::string>& shards);

  std::size_t shard_count() const { return shard_count_; }

  /// Home shard of a tenant: ring successor of hash64(tenant).
  std::size_t primary(const std::string& tenant) const;
  /// Home shard among admitting shards only — walks the ring past
  /// non-admitting owners (deterministic failover). kNoShard when no
  /// shard admits.
  std::size_t primary(const std::string& tenant,
                      const std::vector<bool>& admitting) const;

  /// Placement plan for one request: the admitting home shard first,
  /// then every other admitting shard in runtime::cost_order()
  /// (cheapest estimated completion first) — the spill-then-shed probe
  /// sequence. Empty when no shard admits.
  std::vector<std::size_t> plan(const std::string& tenant,
                                const std::vector<runtime::BackendLoad>& loads,
                                const std::vector<bool>& admitting) const;

  /// FNV-1a 64-bit — the ring's and the tenants' hash. Stable across
  /// platforms and processes (placement must not depend on libstdc++'s
  /// per-process std::hash seed).
  static std::uint64_t hash64(const std::string& key);

 private:
  struct Point {
    std::uint64_t hash;
    std::size_t shard;
  };
  std::size_t shard_count_;
  std::vector<Point> ring_;  // sorted by (hash, shard)
};

struct ShardStats {
  std::string name;
  /// Requests admitted here as the tenant's home shard.
  std::uint64_t placed = 0;
  /// Requests admitted here after spilling off a full home shard.
  std::uint64_t spilled_in = 0;
  runtime::EngineStats engine;
};

struct ClusterStats {
  std::vector<ShardStats> shards;
  std::uint64_t submitted = 0;
  /// Requests served by a non-home shard (sum of spilled_in).
  std::uint64_t spilled = 0;
  /// Requests shed cluster-wide: every candidate shard was full.
  std::uint64_t shed = 0;
  /// Requests refused because no shard was admitting.
  std::uint64_t no_admitting = 0;
  /// One machine-readable JSON line (no trailing newline).
  std::string to_json() const;
};

class EngineCluster {
 public:
  explicit EngineCluster(std::vector<ShardSpec> shards,
                         ClusterConfig cfg = {});
  ~EngineCluster();

  EngineCluster(const EngineCluster&) = delete;
  EngineCluster& operator=(const EngineCluster&) = delete;

  /// Places one image (home shard of opts.tenant, then spill candidates
  /// in cost order) and returns the serving future. When every candidate
  /// is full the future fails with QueueFull; when no shard is admitting
  /// it fails with QueueFull naming the cordon. shard_out (optional)
  /// receives the index of the shard that accepted, or kNoShard.
  /// opts.backend still pins a backend WITHIN whichever shard accepts;
  /// opts.model/model_version name the registry model the request must
  /// be served from (checked by the shard engine).
  std::future<runtime::InferenceResult> submit(
      core::Tensor image, runtime::SubmitOptions opts = {},
      std::size_t* shard_out = nullptr);

  std::size_t shard_count() const { return shards_.size(); }
  runtime::InferenceEngine& shard(std::size_t index);
  const std::string& shard_name(std::size_t index) const;
  /// The tenant's home shard, ignoring admission state (placement
  /// determinism is a function of the ring only).
  std::size_t primary_shard(const std::string& tenant) const;

  /// Cordons / re-admits a shard. A non-admitting shard receives no new
  /// placements (ring walks past it, spill skips it) but keeps serving
  /// what it already queued — the drain half of shard failure handling.
  void set_admitting(std::size_t index, bool admitting);
  bool admitting(std::size_t index) const;

  const ClusterConfig& config() const { return cfg_; }
  ClusterStats stats() const;

  /// Stops every shard engine (drains queues, joins workers).
  /// Idempotent; the destructor calls it. Stop the socket front-end
  /// first — submits after shutdown throw, like InferenceEngine's.
  void shutdown();

 private:
  struct Shard {
    std::string name;
    std::unique_ptr<runtime::InferenceEngine> engine;
    std::atomic<bool> admitting{true};
    std::atomic<std::uint64_t> placed{0};
    std::atomic<std::uint64_t> spilled_in{0};
  };

  ClusterConfig cfg_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::unique_ptr<ClusterRouter> router_;
  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> spilled_{0};
  std::atomic<std::uint64_t> shed_{0};
  std::atomic<std::uint64_t> no_admitting_{0};
};

}  // namespace odenet::cluster
