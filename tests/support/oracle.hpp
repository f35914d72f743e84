#pragma once

/// \file oracle.hpp
/// The differential oracle for incremental forwarding sets: a from-scratch
/// `DiskGraph::build` + `compute_all_skylines` on the current positions.
/// It shares no code with the incremental path (no dynamic graph, no dirty
/// rule, no slotted store, no sharding), so agreement is evidence, not
/// self-consistency.

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "broadcast/all_skylines.hpp"
#include "broadcast/sharded_cache.hpp"
#include "net/disk_graph.hpp"
#include "net/node.hpp"
#include "sim/thread_pool.hpp"

namespace mldcs::test {

/// Success iff every relay's cached forwarding set and arc count equal the
/// from-scratch oracle's on `positions`; otherwise names the first
/// mismatching relay.
inline ::testing::AssertionResult matches_from_scratch(
    const bcast::ShardedSkylineCache& cache,
    std::span<const net::Node> positions) {
  const net::DiskGraph g = net::DiskGraph::build(
      std::vector<net::Node>(positions.begin(), positions.end()));
  // The sweep runs on the process-wide pool: its result does not depend
  // on the thread count, and a 1-worker engine pool need not slow it.
  const bcast::AllSkylines fresh =
      bcast::compute_all_skylines(g, sim::default_pool());
  if (cache.size() != fresh.size()) {
    return ::testing::AssertionFailure()
           << "size " << cache.size() << " vs oracle " << fresh.size();
  }
  for (net::NodeId u = 0; u < fresh.size(); ++u) {
    const auto got = cache.forwarding_set(u);
    const auto want = fresh.forwarding_set(u);
    if (!std::equal(got.begin(), got.end(), want.begin(), want.end())) {
      return ::testing::AssertionFailure()
             << "forwarding set mismatch at relay " << u;
    }
    if (cache.arc_count(u) != fresh.arc_count(u)) {
      return ::testing::AssertionFailure()
             << "arc count mismatch at relay " << u;
    }
  }
  if (cache.total_forwarders() != fresh.total_forwarders()) {
    return ::testing::AssertionFailure() << "total forwarder mismatch";
  }
  return ::testing::AssertionSuccess();
}

}  // namespace mldcs::test
