#include "cluster/cluster.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "util/check.hpp"

namespace odenet::cluster {

// ---------------------------------------------------------------------------
// ClusterRouter

ClusterRouter::ClusterRouter(const std::vector<std::string>& shards)
    : shard_count_(shards.size()) {
  ODENET_CHECK(!shards.empty(), "cluster needs at least one shard");
  for (std::size_t s = 0; s < shards.size(); ++s) {
    ODENET_CHECK(!shards[s].empty(), "shard " << s << " has no name");
    for (int v = 0; v < kVirtualNodes; ++v) {
      // "name#v" gives each virtual node its own stable ring position.
      ring_.push_back({hash64(shards[s] + "#" + std::to_string(v)), s});
    }
  }
  // Sort by (hash, shard) so hash collisions between different shards'
  // points still order deterministically.
  std::sort(ring_.begin(), ring_.end(), [](const Point& a, const Point& b) {
    return a.hash != b.hash ? a.hash < b.hash : a.shard < b.shard;
  });
}

std::uint64_t ClusterRouter::hash64(const std::string& key) {
  // FNV-1a, 64-bit...
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : key) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  // ...then a murmur3-style finalizer. Raw FNV has almost no avalanche
  // on short, similar keys ("shard0#0" vs "shard1#0" differ in a narrow
  // band of bits), which leaves each shard's virtual nodes clumped in
  // one contiguous ring arc — the opposite of what virtual nodes are
  // for. The mix spreads them uniformly while staying deterministic.
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return h;
}

std::size_t ClusterRouter::primary(const std::string& tenant) const {
  const std::vector<bool> all(shard_count_, true);
  return primary(tenant, all);
}

std::size_t ClusterRouter::primary(const std::string& tenant,
                                   const std::vector<bool>& admitting) const {
  ODENET_CHECK(admitting.size() == shard_count_,
               "admitting vector has " << admitting.size() << " entries for "
                                       << shard_count_ << " shards");
  const std::uint64_t h = hash64(tenant);
  // Ring successor of h, wrapping; then walk past non-admitting owners.
  auto it = std::lower_bound(
      ring_.begin(), ring_.end(), h,
      [](const Point& p, std::uint64_t value) { return p.hash < value; });
  const std::size_t start =
      it == ring_.end() ? 0 : static_cast<std::size_t>(it - ring_.begin());
  for (std::size_t step = 0; step < ring_.size(); ++step) {
    const Point& p = ring_[(start + step) % ring_.size()];
    if (admitting[p.shard]) {
      return p.shard;
    }
  }
  return kNoShard;
}

std::vector<std::size_t> ClusterRouter::plan(
    const std::string& tenant, const std::vector<runtime::BackendLoad>& loads,
    const std::vector<bool>& admitting) const {
  ODENET_CHECK(loads.size() == shard_count_,
               "load snapshot has " << loads.size() << " entries for "
                                    << shard_count_ << " shards");
  const std::size_t home = primary(tenant, admitting);
  if (home == kNoShard) {
    return {};
  }
  std::vector<std::size_t> out;
  out.reserve(shard_count_);
  out.push_back(home);
  // Spill candidates: every other admitting shard, cheapest estimated
  // completion first (runtime::cost_order() over the engine-level
  // aggregate loads).
  for (std::size_t s : runtime::cost_order(loads)) {
    if (s != home && admitting[s]) {
      out.push_back(s);
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// ClusterStats

std::string ClusterStats::to_json() const {
  std::ostringstream os;
  os << "{\"schema\":" << runtime::kStatsSchemaVersion
     << ",\"submitted\":" << submitted << ",\"spilled\":" << spilled
     << ",\"shed\":" << shed << ",\"no_admitting\":" << no_admitting
     << ",\"shards\":[";
  for (std::size_t i = 0; i < shards.size(); ++i) {
    if (i > 0) os << ",";
    os << "{\"name\":\"" << shards[i].name << "\",\"placed\":"
       << shards[i].placed << ",\"spilled_in\":" << shards[i].spilled_in
       << ",\"engine\":" << shards[i].engine.to_json() << "}";
  }
  os << "]}";
  return os.str();
}

// ---------------------------------------------------------------------------
// EngineCluster

EngineCluster::EngineCluster(std::vector<ShardSpec> specs, ClusterConfig cfg)
    : cfg_(cfg) {
  ODENET_CHECK(!specs.empty(), "cluster needs at least one shard");
  std::vector<std::string> ring_shards;
  ring_shards.reserve(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    auto shard = std::make_unique<Shard>();
    shard->name = specs[i].name.empty() ? "shard" + std::to_string(i)
                                        : specs[i].name;
    shard->engine = std::make_unique<runtime::InferenceEngine>(
        std::move(specs[i].snapshot), specs[i].engine);
    ring_shards.push_back(shard->name);
    shards_.push_back(std::move(shard));
  }
  // Duplicate names would alias ring arcs (two shards, one identity).
  for (std::size_t i = 0; i < ring_shards.size(); ++i) {
    for (std::size_t j = i + 1; j < ring_shards.size(); ++j) {
      ODENET_CHECK(ring_shards[i] != ring_shards[j],
                   "duplicate shard name '" << ring_shards[i] << "'");
    }
  }
  router_ = std::make_unique<ClusterRouter>(ring_shards);
}

EngineCluster::~EngineCluster() { shutdown(); }

std::future<runtime::InferenceResult> EngineCluster::submit(
    core::Tensor image, runtime::SubmitOptions opts,
    std::size_t* shard_out) {
  const std::string& tenant = opts.tenant;
  submitted_.fetch_add(1, std::memory_order_relaxed);
  if (shard_out != nullptr) {
    *shard_out = kNoShard;
  }

  std::vector<runtime::BackendLoad> loads(shards_.size());
  std::vector<bool> admitting(shards_.size());
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    loads[i] = shards_[i]->engine->aggregate_load();
    admitting[i] = shards_[i]->admitting.load(std::memory_order_relaxed);
  }

  std::vector<std::size_t> plan = router_->plan(tenant, loads, admitting);
  if (plan.empty()) {
    no_admitting_.fetch_add(1, std::memory_order_relaxed);
    std::promise<runtime::InferenceResult> promise;
    promise.set_exception(std::make_exception_ptr(runtime::QueueFull(
        "cluster: no admitting shard for tenant '" + tenant + "'")));
    return promise.get_future();
  }
  // spill=false keeps only the home shard.
  if (!cfg_.spill) plan.resize(1);

  std::future<runtime::InferenceResult> future;
  for (std::size_t k = 0; k < plan.size(); ++k) {
    Shard& shard = *shards_[plan[k]];
    if (shard.engine->try_submit(image, opts, future)) {
      if (k == 0) {
        shard.placed.fetch_add(1, std::memory_order_relaxed);
      } else {
        shard.spilled_in.fetch_add(1, std::memory_order_relaxed);
        spilled_.fetch_add(1, std::memory_order_relaxed);
      }
      if (shard_out != nullptr) {
        *shard_out = plan[k];
      }
      return future;
    }
  }

  shed_.fetch_add(1, std::memory_order_relaxed);
  std::promise<runtime::InferenceResult> promise;
  promise.set_exception(std::make_exception_ptr(runtime::QueueFull(
      "cluster: all " + std::to_string(plan.size()) +
      " candidate shard(s) full for tenant '" + tenant + "'")));
  return promise.get_future();
}

runtime::InferenceEngine& EngineCluster::shard(std::size_t index) {
  ODENET_CHECK(index < shards_.size(),
               "shard index " << index << " out of range (cluster has "
                              << shards_.size() << ")");
  return *shards_[index]->engine;
}

const std::string& EngineCluster::shard_name(std::size_t index) const {
  ODENET_CHECK(index < shards_.size(),
               "shard index " << index << " out of range (cluster has "
                              << shards_.size() << ")");
  return shards_[index]->name;
}

std::size_t EngineCluster::primary_shard(const std::string& tenant) const {
  return router_->primary(tenant);
}

void EngineCluster::set_admitting(std::size_t index, bool admitting) {
  ODENET_CHECK(index < shards_.size(),
               "shard index " << index << " out of range (cluster has "
                              << shards_.size() << ")");
  shards_[index]->admitting.store(admitting, std::memory_order_relaxed);
}

bool EngineCluster::admitting(std::size_t index) const {
  ODENET_CHECK(index < shards_.size(),
               "shard index " << index << " out of range (cluster has "
                              << shards_.size() << ")");
  return shards_[index]->admitting.load(std::memory_order_relaxed);
}

ClusterStats EngineCluster::stats() const {
  ClusterStats out;
  out.submitted = submitted_.load(std::memory_order_relaxed);
  out.spilled = spilled_.load(std::memory_order_relaxed);
  out.shed = shed_.load(std::memory_order_relaxed);
  out.no_admitting = no_admitting_.load(std::memory_order_relaxed);
  out.shards.reserve(shards_.size());
  for (const auto& shard : shards_) {
    ShardStats s;
    s.name = shard->name;
    s.placed = shard->placed.load(std::memory_order_relaxed);
    s.spilled_in = shard->spilled_in.load(std::memory_order_relaxed);
    s.engine = shard->engine->stats();
    out.shards.push_back(std::move(s));
  }
  return out;
}

void EngineCluster::shutdown() {
  for (auto& shard : shards_) {
    shard->engine->shutdown();
  }
}

}  // namespace odenet::cluster
