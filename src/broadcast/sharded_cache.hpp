#pragma once

/// \file sharded_cache.hpp
/// Sharded incremental MLDCS forwarding sets: one serial `ShardCache` per
/// engine shard, recomputed inside the engine's per-step barrier.
///
/// This is the repository's one incremental maintenance path.  Each
/// `net::ShardedEngine` tile gets its own cache — private slotted arc
/// store, private workspace, private dirty set — maintaining forwarding
/// sets for exactly the relays the tile owns:
///
///   dirty(w)  iff  w's 1-hop neighbor set changed (w is an endpoint of a
///                  flipped edge), or w itself moved, or a current
///                  neighbor of w did.
///
/// Because an owned relay's adjacency in its shard's region graph is
/// identical to the whole-plane adjacency (sorted global NodeIds — the
/// halo guarantee), the per-relay inner loop (relay_skyline.hpp) produces
/// byte-identical sets, so `ShardedSkylineCache::forwarding_set(u)` —
/// which reads the owner shard's store — equals a from-scratch
/// `DiskGraph::build` + `compute_all_skylines` after every step, at every
/// shard count.  A relay that crosses a tile border moved, so its new
/// owner always recomputes it on arrival.
///
/// Recomputed sets are patched into the slotted store: every relay owns a
/// stable slot with some slack, so a set that still fits is written in
/// place and clean relays cost zero.  Slots that outgrow their slack are
/// re-appended; once more than half the store is dead it is repacked.
///
/// Concurrency contract: `ShardCache::update` runs on the engine's worker
/// threads, one shard per call, with **zero cross-shard locking** — it is
/// `MLDCS_NO_LOCK` and therefore touches no telemetry registry, no trace
/// spans, no event log (all of which are lock-light but not lock-free to
/// first-register).  Every counter it keeps is a plain member; the
/// composite aggregates them and reports after the barrier, on the caller
/// thread, including the `cache.*` store series.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/annotations.hpp"
#include "core/arc.hpp"
#include "core/skyline_dc.hpp"
#include "geometry/disk.hpp"
#include "net/dynamic_disk_graph.hpp"
#include "net/node.hpp"
#include "net/sharded_engine.hpp"
#include "obs/event_log.hpp"

namespace mldcs::bcast {

/// One shard's forwarding-set cache: serial dirty-relay maintenance over a
/// region graph, restricted to the relays this shard owns.  Slot
/// indexing is by global NodeId (dense arrays of the full deployment size),
/// so lookups need no id translation.
class ShardCache {
 public:
  /// Full initial sweep over the relays `owner_of` assigns to `shard`.
  /// `g` (the shard's region graph) and the `owner_of` span (the engine's
  /// live owner map) must outlive the cache.
  ShardCache(const net::DynamicDiskGraph& g, std::uint32_t shard,
             std::span<const std::uint32_t> owner_of);

  /// Recompute the owned relays dirtied by this shard's `delta` (already
  /// applied to the graph).  Serial, shard-local, lock-free; steady-state
  /// allocation-free outside member-scratch growth.
  MLDCS_HOT_PATH MLDCS_NO_LOCK void update(
      const net::DynamicDiskGraph::StepDelta& delta);

  /// The cached forwarding set of relay `u`, sorted ascending.  Valid only
  /// while this shard owns `u` (the composite routes queries to owners).
  [[nodiscard]] std::span<const net::NodeId> forwarding_set(
      net::NodeId u) const noexcept {
    const Slot& s = slots_[u];
    return {ids_.data() + s.begin, ids_.data() + s.begin + s.len};
  }

  [[nodiscard]] std::uint32_t arc_count(net::NodeId u) const noexcept {
    return arc_counts_[u];
  }

  /// Owned relays recomputed by the most recent update (sorted ascending).
  [[nodiscard]] std::span<const net::NodeId> last_dirty() const noexcept {
    return dirty_;
  }

  [[nodiscard]] std::uint64_t recompute_count() const noexcept {
    return recomputes_;
  }
  [[nodiscard]] std::uint64_t compaction_count() const noexcept {
    return compactions_;
  }
  [[nodiscard]] std::uint64_t update_count() const noexcept {
    return updates_;
  }
  /// Slots that outgrew their slack and were re-appended.
  [[nodiscard]] std::uint64_t slot_overflow_count() const noexcept {
    return slot_overflows_;
  }
  /// Slotted store size: live + slack + dead entries.
  [[nodiscard]] std::size_t store_size() const noexcept { return ids_.size(); }
  /// Sum of slot lengths (owned forwarding-set cardinality).
  [[nodiscard]] std::size_t live_ids() const noexcept { return live_ids_; }
  /// Abandoned (outgrown) slot capacity awaiting compaction.
  [[nodiscard]] std::size_t dead_ids() const noexcept { return dead_ids_; }

  /// Deliberately corrupt relay `u`'s slot (watchdog tests only).
  void corrupt_slot_for_testing(net::NodeId u);

 private:
  struct Slot {
    std::uint32_t begin = 0;
    std::uint32_t len = 0;
    std::uint32_t cap = 0;
  };

  /// Slot capacity policy: enough slack that typical set-size jitter under
  /// motion stays in place.
  [[nodiscard]] static std::uint32_t cap_for(std::size_t len) noexcept {
    return static_cast<std::uint32_t>(len + len / 4 + 2);
  }

  [[nodiscard]] bool owned(net::NodeId u) const noexcept {
    return owner_of_[u] == shard_;
  }
  MLDCS_ALLOC_OK void full_sweep();
  MLDCS_HOT_PATH MLDCS_NO_LOCK void recompute_marked();
  MLDCS_HOT_PATH MLDCS_NO_LOCK void store(net::NodeId u,
                                          std::span<const net::NodeId> set);
  MLDCS_ALLOC_OK void compact();

  const net::DynamicDiskGraph* g_;
  std::uint32_t shard_;
  std::span<const std::uint32_t> owner_of_;

  std::vector<Slot> slots_;
  std::vector<net::NodeId> ids_;
  std::vector<std::uint32_t> arc_counts_;
  std::size_t live_ids_ = 0;  ///< sum of slot lengths (store accounting)
  std::size_t dead_ids_ = 0;  ///< abandoned (outgrown) slot capacity

  std::vector<net::NodeId> dirty_;
  std::vector<std::uint8_t> in_dirty_;

  /// Serial per-shard recompute scratch (the shard *is* the worker).
  core::SkylineWorkspace ws_;
  std::vector<geom::Disk> disks_;
  std::vector<core::Arc> arcs_;
  std::vector<std::size_t> sky_set_;
  std::vector<net::NodeId> relay_ids_;

  std::uint64_t recomputes_ = 0;
  std::uint64_t compactions_ = 0;
  std::uint64_t slot_overflows_ = 0;
  std::uint64_t updates_ = 0;
};

/// Whole-deployment forwarding sets over a ShardedEngine: one ShardCache
/// per shard, updated inside the engine's step barrier via the shard hook,
/// queried by owner routing; one kCacheUpdate event per step.
class ShardedSkylineCache {
 public:
  /// Builds every shard's cache (initial sweeps run in parallel on the
  /// engine's pool) and installs the engine's shard hook.  The engine must
  /// outlive this cache, which must be the engine's only hook client.
  explicit ShardedSkylineCache(net::ShardedEngine& engine);
  ~ShardedSkylineCache();

  ShardedSkylineCache(const ShardedSkylineCache&) = delete;
  ShardedSkylineCache& operator=(const ShardedSkylineCache&) = delete;

  /// One fused mobility step: engine ownership commit, parallel per-shard
  /// graph apply + dirty recompute (one barrier), then position commit and
  /// step-level reporting.  Arguments as in ShardedEngine::step.
  MLDCS_HOT_PATH void step(std::span<const net::Node> current,
                           std::span<const net::NodeId> moved_hint);

  [[nodiscard]] std::size_t size() const noexcept { return engine_->size(); }

  /// The cached forwarding set of relay `u` (owner shard's store).
  [[nodiscard]] std::span<const net::NodeId> forwarding_set(
      net::NodeId u) const noexcept {
    return shards_[engine_->owner_of(u)]->forwarding_set(u);
  }
  [[nodiscard]] std::uint32_t arc_count(net::NodeId u) const noexcept {
    return shards_[engine_->owner_of(u)]->arc_count(u);
  }

  /// Total forwarding-set cardinality over all relays (owner-routed scan).
  [[nodiscard]] std::size_t total_forwarders() const;

  /// Owned relays recomputed in the most recent step, across all shards.
  [[nodiscard]] std::uint64_t last_dirty_count() const noexcept {
    return last_dirty_count_;
  }
  [[nodiscard]] std::uint64_t recompute_count() const noexcept;
  /// Store repacks across all shards.
  [[nodiscard]] std::uint64_t compaction_count() const noexcept;
  /// Slotted store size summed over shards.
  [[nodiscard]] std::size_t store_size() const noexcept;
  [[nodiscard]] std::uint64_t update_count() const noexcept {
    return updates_;
  }

  /// Flight-recorder id of the most recent step's kCacheUpdate event
  /// (parented to the engine's kShardExchange).
  [[nodiscard]] std::uint64_t last_update_event() const noexcept {
    return last_update_event_;
  }

  [[nodiscard]] const net::ShardedEngine& engine() const noexcept {
    return *engine_;
  }
  [[nodiscard]] ShardCache& shard(std::size_t s) noexcept {
    return *shards_[s];
  }
  [[nodiscard]] const ShardCache& shard(std::size_t s) const noexcept {
    return *shards_[s];
  }

  /// Corrupt relay `u`'s slot in its owner shard (watchdog tests only).
  void corrupt_slot_for_testing(net::NodeId u) {
    shards_[engine_->owner_of(u)]->corrupt_slot_for_testing(u);
  }

 private:
  net::ShardedEngine* engine_;
  std::vector<std::unique_ptr<ShardCache>> shards_;
  std::uint64_t updates_ = 0;
  std::uint64_t last_dirty_count_ = 0;
  std::uint64_t last_update_event_ = obs::kNoEvent;
  /// Shard overflow / compaction totals already added to the cache.*
  /// counters (the counters advance by the difference each step).
  std::uint64_t reported_overflows_ = 0;
  std::uint64_t reported_compactions_ = 0;
};

}  // namespace mldcs::bcast
