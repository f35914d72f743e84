#include "broadcast/sharded_cache.hpp"

#include <algorithm>

#include "broadcast/relay_skyline.hpp"
#include "obs/event_log.hpp"
#include "obs/profiler.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"

namespace mldcs::bcast {

namespace {

/// Maintenance telemetry (docs/OBSERVABILITY.md): per-step dirty-relay
/// distribution, slot overflow / compaction churn, and the live/dead shape
/// of the slotted stores.  Reported by the composite after the barrier, on
/// the caller thread (shard updates themselves are lock-free and touch no
/// registry).
struct ShardedCacheTelemetry {
  obs::Counter& updates = obs::registry().counter("cache.updates");
  obs::Counter& dirty_relays = obs::registry().counter("cache.dirty_relays");
  obs::Counter& slot_overflows =
      obs::registry().counter("cache.slot_overflows");
  obs::Counter& compactions = obs::registry().counter("cache.compactions");
  obs::Histogram& dirty_per_step =
      obs::registry().histogram("cache.dirty_relays_per_step");
  obs::Histogram& dirty_per_shard =
      obs::registry().histogram("cache.dirty_relays_per_shard");
  obs::Gauge& store_size = obs::registry().gauge("cache.store_size");
  obs::Gauge& live_ids = obs::registry().gauge("cache.live_ids");
  obs::Gauge& dead_permille = obs::registry().gauge("cache.dead_permille");
};

ShardedCacheTelemetry& sharded_cache_telemetry() {
  static ShardedCacheTelemetry t;
  return t;
}

}  // namespace

ShardCache::ShardCache(const net::DynamicDiskGraph& g, std::uint32_t shard,
                       std::span<const std::uint32_t> owner_of)
    : g_(&g), shard_(shard), owner_of_(owner_of) {
  const std::size_t n = g.size();
  slots_.resize(n);
  arc_counts_.assign(n, 0);
  in_dirty_.assign(n, 0);
  full_sweep();
}

MLDCS_ALLOC_OK void ShardCache::full_sweep() {
  // The initial everything-dirty build is cache recompute too; update()
  // tags the incremental path, this tags the bootstrap.
  const obs::PhaseScope phase(obs::Phase::kCacheRecompute);
  const std::size_t n = g_->size();
  dirty_.clear();
  for (std::size_t i = 0; i < n; ++i) {
    const net::NodeId u = static_cast<net::NodeId>(i);
    if (owned(u)) dirty_.push_back(u);
  }
  recompute_marked();
  recomputes_ = 0;  // lifetime counter excludes the initial sweep
  dirty_.clear();
}

MLDCS_HOT_PATH MLDCS_NO_LOCK void ShardCache::update(
    const net::DynamicDiskGraph::StepDelta& delta) {
  const obs::PhaseScope phase(obs::Phase::kCacheRecompute);
  const net::DynamicDiskGraph& g = *g_;
  dirty_.clear();
  const auto mark = [this](net::NodeId w) {
    // Ownership filter: the dirty rule runs over the full region (halo
    // movers dirty owned neighbors) but only owned relays are recomputed —
    // every other resident is some neighbor shard's problem.
    if (owner_of_[w] != shard_ || in_dirty_[w] != 0) return;
    in_dirty_[w] = 1;
    dirty_.push_back(w);
  };

  for (const net::NodeId u : delta.moved) {
    // delta.moved holds only real position changes.  Evicted movers fall
    // through harmlessly — they own nothing here and their post-apply
    // neighbor list is empty (the removals are in link_changed).
    mark(u);
    for (const net::NodeId v : g.neighbors(u)) mark(v);
  }
  // A flipped edge changes both endpoints' local disk sets.
  for (const net::NodeId w : delta.link_changed) mark(w);
  std::sort(dirty_.begin(), dirty_.end());
  for (const net::NodeId w : dirty_) in_dirty_[w] = 0;

  recomputes_ += dirty_.size();
  recompute_marked();
  ++updates_;
}

MLDCS_HOT_PATH MLDCS_NO_LOCK void ShardCache::recompute_marked() {
  const net::DynamicDiskGraph& g = *g_;
  // Serial and in ascending relay order: the store layout is deterministic
  // in the dirty sequence alone, independent of shard count or thread
  // placement (the shard itself is the unit of parallelism).
  for (const net::NodeId u : dirty_) {
    arc_counts_[u] =
        detail::relay_forwarding_set(g, u, ws_, disks_, arcs_, sky_set_,
                                     relay_ids_);
    store(u, relay_ids_);
  }
  if (dead_ids_ > 0 && 2 * dead_ids_ > ids_.size()) compact();
}

MLDCS_HOT_PATH MLDCS_NO_LOCK void ShardCache::store(
    net::NodeId u, std::span<const net::NodeId> set) {
  Slot& s = slots_[u];
  live_ids_ += set.size();
  live_ids_ -= s.len;
  if (set.size() <= s.cap) {
    std::copy(set.begin(), set.end(), ids_.begin() + s.begin);
    s.len = static_cast<std::uint32_t>(set.size());
    return;
  }
  // Outgrown: abandon the old slot and append a fresh one with new slack.
  // cap == 0 means the slot was never assigned (initial sweep), not an
  // overflow worth counting.
  // mldcs-analyze:allow(hot-no-alloc): member store growth, amortized
  if (s.cap != 0) ++slot_overflows_;
  dead_ids_ += s.cap;
  s.begin = static_cast<std::uint32_t>(ids_.size());
  s.len = static_cast<std::uint32_t>(set.size());
  s.cap = cap_for(set.size());
  ids_.resize(ids_.size() + s.cap);
  std::copy(set.begin(), set.end(), ids_.begin() + s.begin);
}

void ShardCache::corrupt_slot_for_testing(net::NodeId u) {
  Slot& s = slots_[u];
  if (s.len > 0) {
    --s.len;
    --live_ids_;
    return;
  }
  const net::NodeId bogus = u == 0 ? 1 : 0;
  store(u, {&bogus, 1});
}

MLDCS_ALLOC_OK void ShardCache::compact() {
  ++compactions_;
  std::vector<net::NodeId> packed;
  packed.reserve(live_ids_ + live_ids_ / 4 + 2 * slots_.size());
  for (Slot& s : slots_) {
    const std::uint32_t begin = static_cast<std::uint32_t>(packed.size());
    packed.insert(packed.end(), ids_.begin() + s.begin,
                  ids_.begin() + s.begin + s.len);
    const std::uint32_t cap = cap_for(s.len);
    packed.resize(packed.size() + (cap - s.len));
    s.begin = begin;
    s.cap = cap;
  }
  ids_ = std::move(packed);
  dead_ids_ = 0;
}

ShardedSkylineCache::ShardedSkylineCache(net::ShardedEngine& engine)
    : engine_(&engine) {
  // Eager registration (the PR 4 thread-pool fix): materialize the cache.*
  // series now, so a /snapshot.json taken before the first step already
  // carries them instead of waiting for the first recompute to land.
  sharded_cache_telemetry();
  const std::size_t shards = engine.shard_count();
  shards_.resize(shards);
  engine.pool().parallel_for(shards, [&](std::size_t s) {
    shards_[s] = std::make_unique<ShardCache>(
        engine_->shard_graph(s), static_cast<std::uint32_t>(s),
        engine_->owner_map());
  });
  engine.set_shard_hook([this](std::size_t s) {
    shards_[s]->update(engine_->shard_delta(s));
    // Feed the observer load table (introspection /shards, blackbox
    // heartbeats) — one relaxed store into shard s's own slot.
    engine_->publish_shard_dirty(s, shards_[s]->last_dirty().size());
  });
}

ShardedSkylineCache::~ShardedSkylineCache() {
  engine_->set_shard_hook(nullptr);
}

MLDCS_HOT_PATH void ShardedSkylineCache::step(
    std::span<const net::Node> current,
    std::span<const net::NodeId> moved_hint) {
  const obs::TraceSpan span("cache.sharded_step");
  engine_->step(current, moved_hint);  // shard hook recomputes dirty relays

  ++updates_;
  last_dirty_count_ = 0;
  for (const auto& sh : shards_) {
    last_dirty_count_ += sh->last_dirty().size();
  }
  last_update_event_ = obs::emit_event(
      obs::EventType::kCacheUpdate,
      static_cast<std::uint32_t>(last_dirty_count_), obs::kNoNode,
      engine_->last_event(), updates_);

  ShardedCacheTelemetry& t = sharded_cache_telemetry();
  t.updates.add();
  t.dirty_relays.add(last_dirty_count_);
  t.dirty_per_step.record(last_dirty_count_);
  std::uint64_t overflows = 0;
  std::uint64_t compactions = 0;
  std::size_t store = 0;
  std::size_t live = 0;
  std::size_t dead = 0;
  for (const auto& sh : shards_) {
    t.dirty_per_shard.record(sh->last_dirty().size());
    overflows += sh->slot_overflow_count();
    compactions += sh->compaction_count();
    store += sh->store_size();
    live += sh->live_ids();
    dead += sh->dead_ids();
  }
  t.slot_overflows.add(overflows - reported_overflows_);
  t.compactions.add(compactions - reported_compactions_);
  reported_overflows_ = overflows;
  reported_compactions_ = compactions;
  t.store_size.set(static_cast<std::int64_t>(store));
  t.live_ids.set(static_cast<std::int64_t>(live));
  t.dead_permille.set(
      store == 0 ? 0 : static_cast<std::int64_t>(1000 * dead / store));
}

std::size_t ShardedSkylineCache::total_forwarders() const {
  std::size_t total = 0;
  for (std::size_t i = 0; i < engine_->size(); ++i) {
    total += forwarding_set(static_cast<net::NodeId>(i)).size();
  }
  return total;
}

std::uint64_t ShardedSkylineCache::recompute_count() const noexcept {
  std::uint64_t total = 0;
  for (const auto& sh : shards_) total += sh->recompute_count();
  return total;
}

std::uint64_t ShardedSkylineCache::compaction_count() const noexcept {
  std::uint64_t total = 0;
  for (const auto& sh : shards_) total += sh->compaction_count();
  return total;
}

std::size_t ShardedSkylineCache::store_size() const noexcept {
  std::size_t total = 0;
  for (const auto& sh : shards_) total += sh->store_size();
  return total;
}

}  // namespace mldcs::bcast
