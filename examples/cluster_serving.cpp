// Sharded cluster serving end to end: bring up N engine shards behind
// the consistent-hash cluster router, start the TCP front-end, and push
// a small multi-tenant workload through a real socket — requests are
// placed on each tenant's home shard, overflow spills to the
// cheapest sibling, and the per-shard ledger shows where everything
// landed. Cordons one shard mid-run to show live failover.
//
//   ./cluster_serving --shards=3 --requests=48 --tenants=12
#include <cstdio>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/frontend.hpp"
#include "models/network.hpp"
#include "models/snapshot.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"

using namespace odenet;

int main(int argc, char** argv) {
  util::CliParser cli("cluster_serving",
                      "Serve a multi-tenant workload across engine shards "
                      "through the socket front-end");
  cli.add_option("shards", "3", "engine shards in the cluster");
  cli.add_option("requests", "48", "requests to push through the socket");
  cli.add_option("tenants", "12", "distinct tenants (placement keys)");
  if (!cli.parse(argc, argv)) return 0;

  const int n_shards = cli.get_int("shards");
  const int n_requests = cli.get_int("requests");
  const int n_tenants = cli.get_int("tenants");

  // Small network so the example runs in moments; every shard serves the
  // same published snapshot (a real deployment may mix versions).
  models::WidthConfig width{.input_channels = 3, .input_size = 16,
                            .base_channels = 4, .num_classes = 10};
  models::Network net(models::make_spec(models::Arch::kROdeNet3, 14, width));
  util::Rng rng(1);
  net.init(rng);
  auto snapshot = models::ModelSnapshot::capture(net);

  std::vector<cluster::ShardSpec> shards;
  for (int i = 0; i < n_shards; ++i) {
    cluster::ShardSpec spec;
    spec.snapshot = snapshot;
    spec.engine.max_batch = 8;
    shards.push_back(std::move(spec));
  }
  cluster::EngineCluster cluster(std::move(shards));

  std::printf("placement (consistent hash, %d virtual nodes per shard):\n",
              cluster::kVirtualNodes);
  for (int t = 0; t < n_tenants; ++t) {
    const std::string tenant = "tenant-" + std::to_string(t);
    std::printf("  %-10s -> %s\n", tenant.c_str(),
                cluster.shard_name(cluster.primary_shard(tenant)).c_str());
  }

  cluster::SocketFrontend frontend(cluster);
  frontend.start();
  std::printf("\nfront-end listening on 127.0.0.1:%u\n", frontend.port());

  cluster::FrontendClient client("127.0.0.1", frontend.port());
  int ok = 0, shed = 0;
  std::vector<std::uint64_t> by_shard(static_cast<std::size_t>(n_shards), 0);
  for (int i = 0; i < n_requests; ++i) {
    // Cordon the last shard halfway through: its tenants fail over to
    // ring successors with no client-visible change.
    if (i == n_requests / 2 && n_shards > 1) {
      cluster.set_admitting(static_cast<std::size_t>(n_shards - 1), false);
      std::printf("\n-- cordoned %s mid-run --\n",
                  cluster.shard_name(static_cast<std::size_t>(n_shards - 1))
                      .c_str());
    }
    cluster::WireRequest req;
    req.id = static_cast<std::uint64_t>(i);
    req.tenant = "tenant-" + std::to_string(i % n_tenants);
    req.channels = 3;
    req.height = req.width = static_cast<std::uint16_t>(width.input_size);
    req.pixels.resize(static_cast<std::size_t>(3) * width.input_size *
                      width.input_size);
    for (float& p : req.pixels) {
      p = static_cast<float>(rng.normal(0.0, 0.5));
    }
    client.send(req);
    const cluster::WireResponse res = client.recv();
    if (res.status == cluster::ResponseStatus::kOk) {
      ok += 1;
      if (res.shard < by_shard.size()) by_shard[res.shard] += 1;
    } else {
      shed += 1;
    }
  }

  std::printf("\n%d ok, %d shed\n", ok, shed);
  const cluster::ClusterStats stats = cluster.stats();
  for (std::size_t s = 0; s < stats.shards.size(); ++s) {
    std::printf("  %-8s served %4llu  (placed %llu home, %llu spilled in)%s\n",
                stats.shards[s].name.c_str(),
                static_cast<unsigned long long>(by_shard[s]),
                static_cast<unsigned long long>(stats.shards[s].placed),
                static_cast<unsigned long long>(stats.shards[s].spilled_in),
                cluster.admitting(s) ? "" : "  [cordoned]");
  }
  std::printf("cluster ledger: %s\n", stats.to_json().c_str());

  frontend.stop();
  cluster.shutdown();
  return 0;
}
