// Weighted graphs, Dijkstra, and small-graph APSP.
//
// The decomposition pipeline only needs weights on the *quotient* graph
// (§4: edge weight = shortest inter-cluster connection length), which is
// orders of magnitude smaller than the input graph.  Its two exact solves,
// weighted_diameter_exact and apsp_matrix, still run one Dijkstra per
// source, so they spread the sources over a ThreadPool.  Distances are
// exact, so both results are bit-identical for every thread count.  Called
// from one of the pool's own workers (an MR reducer on the global pool,
// say) they run serially — see par/parallel_for.hpp.
#pragma once

#include <span>
#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"
#include "graph/graph.hpp"
#include "par/thread_pool.hpp"

namespace gclus {

struct WeightedHalfEdge {
  NodeId to;
  Weight w;

  friend bool operator==(const WeightedHalfEdge&,
                         const WeightedHalfEdge&) = default;
};

/// CSR weighted undirected graph.
class WeightedGraph {
 public:
  WeightedGraph() = default;

  /// Builds from a list of undirected weighted edges (u, v, w).  Parallel
  /// edges are collapsed to the minimum weight; self-loops are dropped.
  static WeightedGraph from_edges(
      NodeId num_nodes, std::vector<std::tuple<NodeId, NodeId, Weight>> edges);

  /// Lifts an unweighted graph to weight-1 edges.
  static WeightedGraph from_unit_weights(const Graph& g);

  /// Adopts prebuilt CSR arrays verbatim (no re-sorting or dedup) — the
  /// deserialization entry point for graph/io.hpp, which validates the
  /// arrays structurally (and by checksum) before constructing.  Only the
  /// cheap shape invariants are re-checked here.
  static WeightedGraph from_csr(std::vector<EdgeId> offsets,
                                std::vector<WeightedHalfEdge> adj);

  [[nodiscard]] NodeId num_nodes() const {
    return static_cast<NodeId>(offsets_.empty() ? 0 : offsets_.size() - 1);
  }
  [[nodiscard]] EdgeId num_edges() const { return adj_.size() / 2; }
  [[nodiscard]] EdgeId num_half_edges() const { return adj_.size(); }

  [[nodiscard]] std::span<const WeightedHalfEdge> neighbors(NodeId u) const {
    GCLUS_DCHECK(u < num_nodes());
    return {adj_.data() + offsets_[u], adj_.data() + offsets_[u + 1]};
  }

  [[nodiscard]] std::span<const EdgeId> offsets() const { return offsets_; }
  [[nodiscard]] std::span<const WeightedHalfEdge> adjacency() const {
    return adj_;
  }

 private:
  std::vector<EdgeId> offsets_;
  std::vector<WeightedHalfEdge> adj_;
};

/// Single-source shortest paths (binary-heap Dijkstra).
[[nodiscard]] std::vector<Weight> dijkstra(const WeightedGraph& g,
                                           NodeId source);

/// Weighted eccentricity of `source` (max finite distance).
[[nodiscard]] Weight weighted_eccentricity(const WeightedGraph& g,
                                           NodeId source);

/// Weighted diameter (max finite eccentricity) by running Dijkstra from
/// every node, the sources split across `pool`.  Intended for quotient
/// graphs (thousands of nodes), not raw inputs.
[[nodiscard]] Weight weighted_diameter_exact(
    const WeightedGraph& g, ThreadPool& pool = ThreadPool::global());

/// Below this node count apsp_matrix skips the binary heap and runs
/// linear-scan Dijkstra: for tiny quotient graphs (deep meshes and paths
/// decompose into a handful of clusters) the O(n²) scan beats heap
/// traffic.  Both paths use the matrix row as the tentative-distance
/// array.  Distances are exact either way — only the schedule changes —
/// so results are bit-identical across the two paths.
inline constexpr NodeId kApspSmallGraphNodes = 64;

/// All-pairs shortest paths as a dense n×n matrix (row-major).  The
/// distance-oracle construction of §4 stores exactly this for the quotient
/// graph; n is capped to keep the O(n²) memory deliberate.  Rows are
/// filled in place, the sources split across `pool`; unreachable entries
/// stay kInfWeight.
[[nodiscard]] std::vector<Weight> apsp_matrix(
    const WeightedGraph& g, NodeId max_nodes = 20000,
    ThreadPool& pool = ThreadPool::global());

}  // namespace gclus
