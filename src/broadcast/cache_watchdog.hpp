#pragma once

/// \file cache_watchdog.hpp
/// Binds the generic obs::ConsistencyWatchdog to a ShardedSkylineCache:
/// the reference function recomputes one relay's skyline forwarding set
/// from scratch (relay_skyline.hpp — the same inner loop the cache itself
/// runs), the cached function reads the owner shard's slotted store.  Any
/// divergence means the dirty rule, the slot patching, the halo, or the
/// store itself broke.
///
/// Usage (one line per mobility step):
///
///   auto wd = bcast::make_cache_watchdog(cache, {.period=16, .samples=8});
///   ...
///   cache.step(positions, moved);
///   wd.on_step(cache.last_update_event());
///   ...
///   if (!wd.clean()) alarm(wd.last_mismatched_relays());

#include "broadcast/sharded_cache.hpp"
#include "obs/watchdog.hpp"

namespace mldcs::bcast {

/// A watchdog auditing `cache` (which must outlive it).  Each sampled
/// relay is recomputed from scratch on its owner shard's region graph
/// (whose owned adjacency equals the whole-plane one — the halo guarantee
/// the watchdog then re-proves every period) and compared against the
/// owner's slotted store.  Call `on_step(cache.last_update_event())` once
/// per step, after it.
[[nodiscard]] obs::ConsistencyWatchdog make_cache_watchdog(
    const ShardedSkylineCache& cache,
    obs::ConsistencyWatchdog::Config config = {});

}  // namespace mldcs::bcast
