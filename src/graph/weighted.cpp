#include "graph/weighted.hpp"

#include <algorithm>
#include <functional>
#include <tuple>

#include "par/parallel_for.hpp"

namespace gclus {

WeightedGraph WeightedGraph::from_edges(
    NodeId num_nodes, std::vector<std::tuple<NodeId, NodeId, Weight>> edges) {
  // Normalize to half-edges with both directions, keep min weight per pair.
  std::vector<std::tuple<NodeId, NodeId, Weight>> halves;
  halves.reserve(edges.size() * 2);
  for (const auto& [u, v, w] : edges) {
    GCLUS_CHECK(u < num_nodes && v < num_nodes);
    if (u == v) continue;
    halves.emplace_back(u, v, w);
    halves.emplace_back(v, u, w);
  }
  std::sort(halves.begin(), halves.end());
  // After sorting, the first occurrence of each (u,v) carries the minimum
  // weight; drop the rest.
  std::vector<std::tuple<NodeId, NodeId, Weight>> dedup;
  dedup.reserve(halves.size());
  for (const auto& h : halves) {
    if (!dedup.empty() && std::get<0>(dedup.back()) == std::get<0>(h) &&
        std::get<1>(dedup.back()) == std::get<1>(h)) {
      continue;
    }
    dedup.push_back(h);
  }

  WeightedGraph g;
  g.offsets_.assign(static_cast<std::size_t>(num_nodes) + 1, 0);
  for (const auto& [u, v, w] : dedup) g.offsets_[u + 1]++;
  for (NodeId u = 0; u < num_nodes; ++u) g.offsets_[u + 1] += g.offsets_[u];
  g.adj_.resize(dedup.size());
  for (std::size_t i = 0; i < dedup.size(); ++i) {
    g.adj_[i] = {std::get<1>(dedup[i]), std::get<2>(dedup[i])};
  }
  return g;
}

WeightedGraph WeightedGraph::from_csr(std::vector<EdgeId> offsets,
                                      std::vector<WeightedHalfEdge> adj) {
  GCLUS_CHECK(!offsets.empty(), "offsets must have n+1 entries");
  GCLUS_CHECK(offsets.front() == 0);
  GCLUS_CHECK(offsets.back() == adj.size());
  WeightedGraph g;
  g.offsets_ = std::move(offsets);
  g.adj_ = std::move(adj);
  return g;
}

WeightedGraph WeightedGraph::from_unit_weights(const Graph& g) {
  std::vector<std::tuple<NodeId, NodeId, Weight>> edges;
  edges.reserve(g.num_edges());
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (const NodeId v : g.neighbors(u)) {
      if (u < v) edges.emplace_back(u, v, Weight{1});
    }
  }
  return from_edges(g.num_nodes(), std::move(edges));
}

namespace {

using HeapItem = std::pair<Weight, NodeId>;

/// Sources per chunk in the per-source sweeps.  One Dijkstra on a quotient
/// of thousands of nodes dwarfs a chunk grab, and small chunks keep the
/// tail balanced: kDefaultGrain would cut ~2k sources into 2-3 chunks.
constexpr std::size_t kSourceGrain = 8;

/// Binary-heap Dijkstra writing distances into `dist` (length n, pre-filled
/// with kInfWeight).  `heap` is caller-owned scratch, reused across sources.
void dijkstra_into(const WeightedGraph& g, NodeId source,
                   std::span<Weight> dist, std::vector<HeapItem>& heap) {
  constexpr std::greater<> kMinHeap;
  heap.clear();
  dist[source] = 0;
  heap.emplace_back(0, source);
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), kMinHeap);
    const auto [d, u] = heap.back();
    heap.pop_back();
    if (d != dist[u]) continue;  // stale entry
    for (const auto& [v, w] : g.neighbors(u)) {
      const Weight nd = d + w;
      if (nd < dist[v]) {
        dist[v] = nd;
        heap.emplace_back(nd, v);
        std::push_heap(heap.begin(), heap.end(), kMinHeap);
      }
    }
  }
}

}  // namespace

std::vector<Weight> dijkstra(const WeightedGraph& g, NodeId source) {
  GCLUS_CHECK(source < g.num_nodes());
  std::vector<Weight> dist(g.num_nodes(), kInfWeight);
  std::vector<HeapItem> heap;
  dijkstra_into(g, source, dist, heap);
  return dist;
}

Weight weighted_eccentricity(const WeightedGraph& g, NodeId source) {
  const auto dist = dijkstra(g, source);
  Weight ecc = 0;
  for (const Weight d : dist) {
    if (d != kInfWeight) ecc = std::max(ecc, d);
  }
  return ecc;
}

Weight weighted_diameter_exact(const WeightedGraph& g, ThreadPool& pool) {
  const NodeId n = g.num_nodes();
  std::vector<Weight> ecc(n, 0);
  parallel_for_chunks(
      pool, 0, n,
      [&](std::size_t lo, std::size_t hi) {
        std::vector<Weight> dist(n, kInfWeight);
        std::vector<HeapItem> heap;
        for (std::size_t v = lo; v < hi; ++v) {
          dijkstra_into(g, static_cast<NodeId>(v), dist, heap);
          // One pass reads the eccentricity and resets the scratch.
          Weight e = 0;
          for (Weight& d : dist) {
            if (d != kInfWeight) e = std::max(e, d);
            d = kInfWeight;
          }
          ecc[v] = e;
        }
      },
      kSourceGrain);
  return n == 0 ? 0 : *std::max_element(ecc.begin(), ecc.end());
}

namespace {

/// Linear-scan Dijkstra writing distances directly into `dist` (length n,
/// pre-filled with kInfWeight).  See kApspSmallGraphNodes for why this
/// exists; the settled mask fits a single 64-bit word at that size.
void dijkstra_small_into(const WeightedGraph& g, NodeId source,
                         std::span<Weight> dist) {
  const NodeId n = g.num_nodes();
  std::uint64_t settled = 0;
  dist[source] = 0;
  for (NodeId round = 0; round < n; ++round) {
    NodeId u = n;
    Weight best = kInfWeight;
    for (NodeId v = 0; v < n; ++v) {
      if ((settled & (1ULL << v)) == 0 && dist[v] < best) {
        best = dist[v];
        u = v;
      }
    }
    if (u == n) break;  // only unreachable nodes left
    settled |= 1ULL << u;
    for (const auto& [v, w] : g.neighbors(u)) {
      dist[v] = std::min(dist[v], best + w);
    }
  }
}

}  // namespace

std::vector<Weight> apsp_matrix(const WeightedGraph& g, NodeId max_nodes,
                                ThreadPool& pool) {
  const NodeId n = g.num_nodes();
  GCLUS_CHECK(n <= max_nodes,
              "apsp_matrix: quotient graph too large for dense APSP");
  std::vector<Weight> mat(static_cast<std::size_t>(n) * n, kInfWeight);
  parallel_for_chunks(
      pool, 0, n,
      [&](std::size_t lo, std::size_t hi) {
        std::vector<HeapItem> heap;
        for (std::size_t v = lo; v < hi; ++v) {
          const std::span<Weight> row{mat.data() + v * n, n};
          const auto source = static_cast<NodeId>(v);
          if (n <= kApspSmallGraphNodes) {
            dijkstra_small_into(g, source, row);
          } else {
            dijkstra_into(g, source, row, heap);
          }
        }
      },
      kSourceGrain);
  return mat;
}

}  // namespace gclus
