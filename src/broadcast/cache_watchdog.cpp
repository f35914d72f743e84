#include "broadcast/cache_watchdog.hpp"

#include <memory>
#include <vector>

#include "broadcast/relay_skyline.hpp"
#include "core/skyline_dc.hpp"

namespace mldcs::bcast {

obs::ConsistencyWatchdog make_cache_watchdog(
    const ShardedSkylineCache& cache,
    obs::ConsistencyWatchdog::Config config) {
  // One shared scratch set per watchdog: checks are serial and rare
  // (samples per period), so a single workspace amortizes across them.
  struct Scratch {
    core::SkylineWorkspace ws;
    std::vector<geom::Disk> disks;
    std::vector<core::Arc> arcs;
    std::vector<std::size_t> sky_set;
    std::vector<net::NodeId> relay_ids;
  };
  auto scratch = std::make_shared<Scratch>();

  const net::ShardedEngine& engine = cache.engine();
  auto reference = [&engine, scratch](std::uint32_t u) {
    Scratch& s = *scratch;
    // The owner shard's region graph holds u's complete 1-hop set, so the
    // from-scratch recompute sees exactly what a whole-plane graph would.
    const net::DynamicDiskGraph& g = engine.shard_graph(engine.owner_of(u));
    detail::relay_forwarding_set(g, u, s.ws, s.disks, s.arcs, s.sky_set,
                                 s.relay_ids);
    return s.relay_ids;
  };
  auto cached = [&cache](std::uint32_t u) {
    const auto set = cache.forwarding_set(u);
    return std::vector<std::uint32_t>(set.begin(), set.end());
  };
  return {engine.size(), std::move(reference), std::move(cached), config};
}

}  // namespace mldcs::bcast
