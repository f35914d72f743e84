#pragma once

/// \file relay_skyline.hpp
/// The shared inner loop of batched MLDCS computation: one relay's skyline
/// forwarding set straight from adjacency, using caller-owned scratch.
///
/// Both whole-network engines — the one-shot `compute_all_skylines` and the
/// incremental `ShardCache` — run exactly this per relay, so the
/// bit-identical guarantee between them reduces to sharing this function.
/// Templated on the graph type (`net::DiskGraph` and `net::DynamicDiskGraph`
/// expose the same node()/neighbors() surface).

#include <cstdint>
#include <vector>

#include "core/annotations.hpp"
#include "core/arc.hpp"
#include "core/skyline_dc.hpp"
#include "geometry/disk.hpp"
#include "net/node.hpp"

namespace mldcs::bcast::detail {

/// Compute relay `id`'s skyline forwarding set into `out_ids` (cleared
/// first; sorted ascending) and return the skyline arc count.  `disks`,
/// `arcs`, `sky_set` and `ws` are reusable scratch — one set per worker
/// makes a whole sweep allocation-free in steady state.
template <typename Graph>
MLDCS_HOT_PATH MLDCS_NO_LOCK std::uint32_t relay_forwarding_set(
    const Graph& g, net::NodeId id, core::SkylineWorkspace& ws,
    std::vector<geom::Disk>& disks, std::vector<core::Arc>& arcs,
    std::vector<std::size_t>& sky_set, std::vector<net::NodeId>& out_ids) {
  const auto nb = g.neighbors(id);
  disks.clear();
  disks.push_back(g.node(id).disk());
  for (const net::NodeId v : nb) disks.push_back(g.node(v).disk());

  core::compute_skyline_arcs(disks, g.node(id).pos, ws, arcs);

  // Skyline set: sorted unique disk indices.  Disk 0 is the relay itself —
  // its area was served by the transmission the relay already made, so it
  // never needs a forwarder (Section 3.2).  Neighbor disks follow `nb`'s
  // ascending id order, so ascending indices map to ascending node ids
  // with no re-sort.
  sky_set.clear();
  for (const core::Arc& a : arcs) sky_set.push_back(a.disk);
  std::sort(sky_set.begin(), sky_set.end());
  sky_set.erase(std::unique(sky_set.begin(), sky_set.end()), sky_set.end());
  out_ids.clear();
  for (const std::size_t idx : sky_set) {
    if (idx == 0) continue;
    out_ids.push_back(nb[idx - 1]);
  }
  return static_cast<std::uint32_t>(arcs.size());
}

}  // namespace mldcs::bcast::detail
