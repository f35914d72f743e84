#include "net/disk_graph.hpp"

#include <algorithm>

#include "net/spatial_grid.hpp"
#include "sim/thread_pool.hpp"

namespace mldcs::net {

namespace {

/// Deployments below this size build inline on the caller: the paper's
/// per-trial graphs (hundreds of nodes) are built inside already-parallel
/// trial loops, where fanning out again would cost more than it saves.
/// Larger ones run both CSR passes on sim::default_pool(), so repeated
/// builds reuse one set of workers instead of starting threads per call.
constexpr std::size_t kParallelBuildThreshold = 4096;

}  // namespace

DiskGraph DiskGraph::build(std::vector<Node> nodes) {
  DiskGraph g;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    nodes[i].id = static_cast<NodeId>(i);
  }
  g.nodes_ = std::move(nodes);
  const std::size_t n = g.nodes_.size();

  double max_r = 0.0;
  for (const Node& node : g.nodes_) max_r = std::max(max_r, node.radius);
  const SpatialGrid grid(g.nodes_, std::max(max_r, 1e-6));

  // Count-then-fill CSR build, no per-node vectors.  A node's neighbors are
  // within min(r_u, r_v) <= r_u of it, so querying the grid at range r_u
  // and filtering by the bidirectional rule finds all of them; the grid
  // query is cheap enough that running it twice (count pass, fill pass)
  // beats materializing a vector<vector> of all adjacency lists.
  g.offsets_.assign(n + 1, 0);

  // Candidates come straight from query_candidates into per-thread scratch
  // (query() would allocate an intermediate vector per call); linked_to is
  // stricter than the grid's range filter, so no exactness is lost.
  const auto count_range = [&g, &grid](std::vector<NodeId>& scratch,
                                       std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      const Node& u = g.nodes_[i];
      scratch.clear();
      grid.query_candidates(u.pos, u.radius, scratch);
      std::uint32_t deg = 0;
      for (NodeId v : scratch) {
        if (v != u.id && u.linked_to(g.nodes_[v])) ++deg;
      }
      g.offsets_[i + 1] = deg;  // shifted; prefix-summed below
    }
  };
  const auto fill_range = [&g, &grid](std::vector<NodeId>& scratch,
                                      std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      const Node& u = g.nodes_[i];
      scratch.clear();
      grid.query_candidates(u.pos, u.radius, scratch);
      NodeId* dst = g.adjacency_.data() + g.offsets_[i];
      NodeId* const first = dst;
      for (NodeId v : scratch) {
        if (v != u.id && u.linked_to(g.nodes_[v])) *dst++ = v;
      }
      std::sort(first, dst);
    }
  };

  const auto run_pass = [n](const auto& pass) {
    const auto chunk = [&pass](std::size_t /*chunk*/, std::size_t lo,
                               std::size_t hi) {
      // Per-chunk (= per-worker) candidate scratch, reused across the
      // whole contiguous node range.
      std::vector<NodeId> scratch;
      pass(scratch, lo, hi);
    };
    if (n >= kParallelBuildThreshold) {
      sim::default_pool().parallel_chunks(n, chunk);
    } else {
      chunk(0, 0, n);
    }
  };

  run_pass(count_range);
  for (std::size_t i = 0; i < n; ++i) g.offsets_[i + 1] += g.offsets_[i];
  g.adjacency_.resize(g.offsets_[n]);
  run_pass(fill_range);
  return g;
}

std::span<const NodeId> DiskGraph::neighbors(NodeId id) const noexcept {
  return {adjacency_.data() + offsets_[id],
          adjacency_.data() + offsets_[id + 1]};
}

bool DiskGraph::linked(NodeId u, NodeId v) const noexcept {
  const auto nb = neighbors(u);
  return std::binary_search(nb.begin(), nb.end(), v);
}

std::vector<NodeId> DiskGraph::two_hop_neighbors(NodeId id) const {
  std::vector<NodeId> out;
  two_hop_neighbors(id, out);
  return out;
}

void DiskGraph::two_hop_neighbors(NodeId id, std::vector<NodeId>& out) const {
  const auto one_hop = neighbors(id);
  out.clear();
  for (NodeId v : one_hop) {
    for (NodeId w : neighbors(v)) {
      if (w == id) continue;
      if (std::binary_search(one_hop.begin(), one_hop.end(), w)) continue;
      out.push_back(w);
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
}

std::vector<NodeId> DiskGraph::reachable_from(NodeId from) const {
  std::vector<NodeId> out;
  if (from >= nodes_.size()) return out;
  std::vector<bool> seen(nodes_.size(), false);
  std::vector<NodeId> frontier{from};
  seen[from] = true;
  while (!frontier.empty()) {
    const NodeId u = frontier.back();
    frontier.pop_back();
    out.push_back(u);
    for (NodeId v : neighbors(u)) {
      if (!seen[v]) {
        seen[v] = true;
        frontier.push_back(v);
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

bool DiskGraph::connected() const {
  if (nodes_.empty()) return true;
  return reachable_from(0).size() == nodes_.size();
}

std::size_t edge_flips(const DiskGraph& before, const DiskGraph& after) {
  std::size_t diff = 0;
  for (NodeId u = 0; u < after.size(); ++u) {
    const auto a = before.neighbors(u);
    const auto b = after.neighbors(u);
    std::size_t i = 0;
    std::size_t k = 0;
    std::size_t common = 0;
    while (i < a.size() && k < b.size()) {
      if (a[i] < b[k]) {
        ++i;
      } else if (b[k] < a[i]) {
        ++k;
      } else {
        ++common;
        ++i;
        ++k;
      }
    }
    diff += a.size() + b.size() - 2 * common;
  }
  return diff / 2;  // each flip is seen from both endpoints
}

}  // namespace mldcs::net
