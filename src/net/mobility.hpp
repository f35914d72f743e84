#pragma once

/// \file mobility.hpp
/// Random-waypoint mobility — the standard ad hoc network mobility model.
///
/// Each node picks a uniform waypoint in the deployment square and a
/// uniform speed in [v_min, v_max], walks straight toward the waypoint,
/// pauses there for `pause` time units, then repeats.  The paper's
/// Section 5.1.1 argues the skyline scheme's 1-hop-only information ages
/// better under mobility; this model (plus the HELLO cost accounting)
/// makes that argument quantitative in `mobility_maintenance` and the
/// `abl_network_storm` bench.

#include <span>
#include <vector>

#include "net/disk_graph.hpp"
#include "net/node.hpp"
#include "net/topology.hpp"
#include "sim/rng.hpp"

namespace mldcs::net {

/// Random-waypoint parameters.
struct WaypointParams {
  double v_min = 0.05;  ///< minimum speed (units per time step)
  double v_max = 0.5;   ///< maximum speed
  double pause = 2.0;   ///< pause duration at each waypoint (time steps)

  /// 0 = classic random waypoint (next target uniform over the square).
  /// > 0 = bounded-leg variant: the next target is drawn within this
  /// distance of the current position (clamped to the square) — the
  /// quasi-static regime of sensor deployments that mostly sit still and
  /// occasionally relocate, where incremental topology maintenance pays
  /// off most (see bench/perf_suite.cpp's mobility_steady_state section).
  double max_leg = 0.0;

  /// Start each node with a residual pause ~ U(0, pause) instead of
  /// mid-leg, desynchronizing waypoint arrivals so the network begins near
  /// the mobility process's steady state (classic RWP warm-up fix).  Off
  /// by default to keep existing seeded runs bit-identical.
  bool steady_state_init = false;
};

/// Mobility state of one node.
struct WaypointState {
  geom::Vec2 target;     ///< current waypoint
  double speed = 0.0;    ///< current leg's speed
  double pause_left = 0; ///< remaining pause time (0 while moving)
};

/// A deployment whose nodes move by random waypoint inside the square.
/// Deterministic given (DeploymentParams, WaypointParams, seed stream).
class MobileNetwork {
 public:
  /// Deploy as in Chapter 5 (node 0 = source at the center) and initialize
  /// every node's first waypoint/speed from `rng`.
  MobileNetwork(const DeploymentParams& deploy, const WaypointParams& move,
                sim::Xoshiro256& rng);

  /// Advance all nodes by `dt` time units (straight-line motion toward the
  /// waypoint, waypoint re-draw on arrival after the pause).
  void step(double dt, sim::Xoshiro256& rng);

  /// Ids of nodes whose position changed in the last step() call, ascending
  /// (paused nodes don't appear) — the moved-set hint for
  /// ShardedEngine::step.  Empty before the first step.
  [[nodiscard]] std::span<const NodeId> moved_last_step() const noexcept {
    return moved_;
  }

  /// Node positions/radii right now (ids = indices).
  [[nodiscard]] const std::vector<Node>& nodes() const noexcept {
    return nodes_;
  }

  /// Build the disk graph of the current snapshot.
  [[nodiscard]] DiskGraph snapshot() const { return DiskGraph::build(nodes_); }

  /// Total distance travelled by all nodes so far (mobility intensity).
  [[nodiscard]] double total_distance() const noexcept { return travelled_; }

  [[nodiscard]] const WaypointParams& params() const noexcept { return move_; }
  [[nodiscard]] double side() const noexcept { return side_; }

 private:
  void redraw_waypoint(std::size_t i, sim::Xoshiro256& rng);

  std::vector<Node> nodes_;
  std::vector<WaypointState> states_;
  std::vector<NodeId> moved_;  ///< nodes that moved in the last step
  WaypointParams move_;
  double side_;
  double travelled_ = 0.0;
};

}  // namespace mldcs::net
