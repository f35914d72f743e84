#pragma once

/// \file dynamic_disk_graph.hpp
/// Incrementally maintained disk graph for mobile networks.
///
/// `DiskGraph::build` rebuilds the spatial grid and the whole CSR adjacency
/// from scratch — the right tool for one-shot deployments, but an O(network)
/// cost per beacon period under mobility even when only a handful of nodes
/// moved.  `DynamicDiskGraph` keeps the same bidirectional-link topology
/// (Section 3.1: u ~ v iff ||u - v|| <= min(r_u, r_v)) in *mutable* form:
///
///  - a bucketed uniform grid whose cells are updated only for nodes whose
///    cell actually changed,
///  - per-node sorted adjacency lists patched by edge diffs: each moved
///    node's neighbor list is recomputed from the grid, and only the
///    added/removed edges touch the (unmoved) other endpoints.
///
/// Every `apply` returns a `StepDelta` naming the moved nodes and the
/// endpoints of flipped edges — exactly the information a cached-skyline
/// layer (bcast::ShardCache) needs to recompute only dirty relays.
///
/// **Interest region.**  The graph keeps every node *slot* (ids stay
/// global) but only nodes inside its interest rectangle are *resident* —
/// bucketed in the grid with maintained adjacency.  The rectangle defaults
/// to the whole plane, where every node is resident and the adjacency is
/// always identical to what `DiskGraph::build` would produce on the
/// current positions (differential-tested in
/// tests/net/dynamic_disk_graph_test.cpp).  `apply` classifies each hinted
/// mover by (was resident, new position in region): stay → ordinary move,
/// enter → insertion (adjacency grown from empty via the same edge diff),
/// leave → eviction (adjacency diffed to empty, bucket slot dropped), and
/// movers that never touch the region are ignored.  Non-resident nodes
/// have empty neighbor lists and may hold stale positions; residents'
/// adjacency — restricted to resident endpoints — is exact.  When the
/// interest rectangle is a tile dilated by the deployment's maximum
/// radius, every node inside the tile has its complete 1-hop set resident
/// (a link spans at most max radius), which is the halo-correctness
/// guarantee net::ShardedEngine and the sharded skyline cache are built
/// on.  Graphs step concurrently (one per shard), so `apply` touches no
/// global telemetry and emits no events; the engine reports for all of
/// them.

#include <cstdint>
#include <span>
#include <vector>

#include "core/annotations.hpp"
#include "geometry/bbox.hpp"
#include "net/disk_graph.hpp"
#include "net/node.hpp"

namespace mldcs::net {

/// Mutable disk graph: positions may change step to step; radii and the
/// node set are fixed at construction (the mobility model of Section 5.1.1
/// moves nodes but never re-provisions antennas).
class DynamicDiskGraph {
 public:
  /// What changed in one `apply` call.
  struct StepDelta {
    /// Nodes whose position changed (ascending).
    std::vector<NodeId> moved;
    /// Endpoints of every added or removed edge (ascending, unique).
    std::vector<NodeId> link_changed;
    std::size_t edges_added = 0;
    std::size_t edges_removed = 0;

    [[nodiscard]] bool empty() const noexcept {
      return moved.empty() && link_changed.empty();
    }
  };

  /// Build the initial topology over the nodes inside `interest` (default:
  /// the whole plane).  Every node keeps a slot — ids are reassigned to
  /// indices into the full deployment, as in `DiskGraph::build` — and grid
  /// geometry (cell size, extent) is computed from the full deployment, so
  /// shard grids agree with a whole-plane one.  See the file comment.
  explicit DynamicDiskGraph(std::vector<Node> nodes,
                            const geom::BBox& interest = geom::BBox::plane());

  [[nodiscard]] const geom::BBox& interest() const noexcept {
    return interest_;
  }

  /// True if `id` is currently inside this graph's interest region.
  /// Non-resident nodes have empty neighbor lists and possibly stale
  /// positions.
  [[nodiscard]] bool resident(NodeId id) const noexcept {
    return resident_[id] != 0;
  }
  [[nodiscard]] std::size_t resident_count() const noexcept {
    return resident_count_;
  }

  [[nodiscard]] std::span<const Node> nodes() const noexcept { return nodes_; }
  [[nodiscard]] std::size_t size() const noexcept { return nodes_.size(); }
  [[nodiscard]] const Node& node(NodeId id) const noexcept {
    return nodes_[id];
  }

  /// 1-hop neighbors of `id`, sorted ascending.
  [[nodiscard]] std::span<const NodeId> neighbors(NodeId id) const noexcept {
    return adjacency_[id];
  }

  [[nodiscard]] std::size_t degree(NodeId id) const noexcept {
    return adjacency_[id].size();
  }

  /// True if u and v are adjacent (binary search; u != v assumed).
  [[nodiscard]] bool linked(NodeId u, NodeId v) const noexcept;

  [[nodiscard]] std::size_t edge_count() const noexcept { return edges_; }

  [[nodiscard]] double average_degree() const noexcept {
    return nodes_.empty() ? 0.0
                          : 2.0 * static_cast<double>(edges_) /
                                static_cast<double>(nodes_.size());
  }

  /// Move nodes to the positions in `current` (same size and order as
  /// `nodes()`; radii must be unchanged).  Each mover is first classified
  /// against the interest rectangle (move / insert / evict / ignore); movers
  /// that stay resident are re-bucketed if their grid cell changed, their
  /// adjacency lists are recomputed from the grid, and the resulting edge
  /// diffs are patched into the unmoved endpoints' lists.  Returns the
  /// delta of this step: `delta.moved` lists only the movers that touched
  /// the region, and evicted nodes appear in `moved` with their links torn
  /// down in `link_changed`.  The reference stays valid until the next
  /// `apply`.
  MLDCS_HOT_PATH const StepDelta& apply(std::span<const Node> current);

  /// Same, with the moved set supplied by the caller (e.g.
  /// `MobileNetwork::moved_last_step()`), skipping the O(n) change scan.
  /// Ids not in `moved_hint` must be unchanged in `current`; hinted ids
  /// whose position did not change, or whose old and new positions are
  /// both outside the region, are dropped from the delta.
  MLDCS_HOT_PATH const StepDelta& apply(
      std::span<const Node> current, std::span<const NodeId> moved_hint);

  /// The most recent `apply`'s delta (an empty delta before the first
  /// apply).  Same lifetime rule as the `apply` return value.
  [[nodiscard]] const StepDelta& last_delta() const noexcept { return delta_; }

 private:
  MLDCS_HOT_PATH const StepDelta& apply_moved(std::span<const Node> current);
  MLDCS_HOT_PATH void classify_movers(std::span<const Node> current);
  [[nodiscard]] std::size_t cell_of(geom::Vec2 p) const noexcept;
  void query_candidates(geom::Vec2 p, double range,
                        std::vector<NodeId>& out) const;
  void rebucket(NodeId u, geom::Vec2 new_pos);

  std::vector<Node> nodes_;
  std::vector<std::vector<NodeId>> adjacency_;  ///< sorted per node
  std::size_t edges_ = 0;

  geom::BBox interest_;
  std::vector<std::uint8_t> resident_;
  std::size_t resident_count_ = 0;

  // Bucketed grid (same geometry as SpatialGrid: cell side = max radius,
  // fixed origin/extent from the initial deployment, out-of-range positions
  // clamped into the border cells).
  double cell_ = 1.0;
  double min_x_ = 0.0;
  double min_y_ = 0.0;
  std::int64_t nx_ = 1;
  std::int64_t ny_ = 1;
  std::vector<std::vector<NodeId>> buckets_;
  std::vector<std::uint32_t> bucket_of_;  ///< node -> bucket index

  // Step scratch, reused across apply() calls.
  StepDelta delta_;
  std::vector<NodeId> scratch_candidates_;
  std::vector<NodeId> scratch_adj_;
  /// Membership mask for delta_.moved: 0 = unmoved, 1 = moved (or inserted
  /// into the region), 2 = evicted from the region (new adjacency forced
  /// empty in phase 2).
  std::vector<std::uint8_t> in_moved_;
};

}  // namespace mldcs::net
