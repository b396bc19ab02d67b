// Tests for the weighted graph module: construction normalization,
// Dijkstra against BFS on unit weights, weighted diameter, and APSP —
// including the pool-parallel solves against a serial per-source
// reference at several thread counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <tuple>
#include <vector>

#include "graph/bfs.hpp"
#include "graph/generators.hpp"
#include "graph/weighted.hpp"
#include "par/thread_pool.hpp"
#include "test_util.hpp"

namespace gclus {
namespace {

TEST(WeightedGraph, ParallelEdgesKeepMinimumWeight) {
  const WeightedGraph g = WeightedGraph::from_edges(
      2, {{0, 1, 7}, {0, 1, 3}, {1, 0, 5}});
  ASSERT_EQ(g.neighbors(0).size(), 1u);
  EXPECT_EQ(g.neighbors(0)[0].w, 3u);
  EXPECT_EQ(g.neighbors(1)[0].w, 3u);
}

TEST(WeightedGraph, DropsSelfLoops) {
  const WeightedGraph g =
      WeightedGraph::from_edges(2, {{0, 0, 1}, {0, 1, 2}});
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(Dijkstra, MatchesBfsOnUnitWeights) {
  for (const auto& [name, graph] : testutil::small_connected_corpus()) {
    if (graph.num_nodes() > 600) continue;  // keep the sweep cheap
    const WeightedGraph w = WeightedGraph::from_unit_weights(graph);
    const auto dj = dijkstra(w, 0);
    const auto bf = bfs_distances(graph, 0);
    ASSERT_EQ(dj.size(), bf.size()) << name;
    for (NodeId v = 0; v < graph.num_nodes(); ++v) {
      EXPECT_EQ(dj[v], bf[v]) << name << " node " << v;
    }
  }
}

TEST(Dijkstra, WeightedShortcutPreferred) {
  // 0-1-2 with weights 1+1 vs direct 0-2 weight 3: path wins.
  const WeightedGraph g = WeightedGraph::from_edges(
      3, {{0, 1, 1}, {1, 2, 1}, {0, 2, 3}});
  const auto d = dijkstra(g, 0);
  EXPECT_EQ(d[2], 2u);
}

TEST(Dijkstra, UnreachableIsInfinite) {
  const WeightedGraph g = WeightedGraph::from_edges(4, {{0, 1, 2}, {2, 3, 2}});
  const auto d = dijkstra(g, 0);
  EXPECT_EQ(d[1], 2u);
  EXPECT_EQ(d[2], kInfWeight);
}

TEST(WeightedEccentricity, PathWithWeights) {
  const WeightedGraph g = WeightedGraph::from_edges(
      4, {{0, 1, 10}, {1, 2, 1}, {2, 3, 5}});
  EXPECT_EQ(weighted_eccentricity(g, 0), 16u);
  EXPECT_EQ(weighted_eccentricity(g, 2), 11u);
}

TEST(WeightedDiameter, MatchesUnweightedOnUnitWeights) {
  const Graph g = gen::grid(6, 7);
  const WeightedGraph w = WeightedGraph::from_unit_weights(g);
  EXPECT_EQ(weighted_diameter_exact(w), testutil::brute_force_diameter(g));
}

TEST(WeightedDiameter, RespectsWeights) {
  // Triangle 0-1:100, 1-2:100, 0-2:1.  The heaviest shortest path is the
  // direct 100-weight edge (the two-hop alternative costs 101).
  const WeightedGraph g = WeightedGraph::from_edges(
      3, {{0, 1, 100}, {1, 2, 100}, {0, 2, 1}});
  EXPECT_EQ(weighted_diameter_exact(g), 100u);
  // Dropping the shortcut pushes the diameter to 200.
  const WeightedGraph h =
      WeightedGraph::from_edges(3, {{0, 1, 100}, {1, 2, 100}});
  EXPECT_EQ(weighted_diameter_exact(h), 200u);
}

TEST(ApspMatrix, SymmetricAndConsistentWithDijkstra) {
  const Graph base = gen::ring_of_cliques(5, 4);
  const WeightedGraph g = WeightedGraph::from_unit_weights(base);
  const NodeId n = g.num_nodes();
  const auto mat = apsp_matrix(g);
  for (NodeId u = 0; u < n; ++u) {
    const auto d = dijkstra(g, u);
    for (NodeId v = 0; v < n; ++v) {
      EXPECT_EQ(mat[static_cast<std::size_t>(u) * n + v], d[v]);
      EXPECT_EQ(mat[static_cast<std::size_t>(u) * n + v],
                mat[static_cast<std::size_t>(v) * n + u]);
    }
  }
  for (NodeId u = 0; u < n; ++u) {
    EXPECT_EQ(mat[static_cast<std::size_t>(u) * n + u], 0u);
  }
}

TEST(ApspMatrixDeathTest, RefusesOversizedInput) {
  const WeightedGraph g =
      WeightedGraph::from_unit_weights(gen::path(100));
  EXPECT_DEATH((void)apsp_matrix(g, /*max_nodes=*/50), "too large");
}

// ---- pool-parallel solves vs. a serial per-source reference ---------------

/// Appends the edges of `g` with random weights in [1, 50], node ids
/// shifted by `offset`.
void add_weighted_copy(const Graph& g, NodeId offset, std::uint64_t seed,
                       std::vector<std::tuple<NodeId, NodeId, Weight>>& out) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<Weight> weight(1, 50);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (const NodeId v : g.neighbors(u)) {
      if (u < v) out.emplace_back(u + offset, v + offset, weight(rng));
    }
  }
}

WeightedGraph random_weighted(NodeId n, EdgeId m, std::uint64_t seed) {
  std::vector<std::tuple<NodeId, NodeId, Weight>> edges;
  add_weighted_copy(gen::erdos_renyi(n, m, seed), 0, seed, edges);
  return WeightedGraph::from_edges(n, std::move(edges));
}

/// Two random components plus an isolated node: rows keep kInfWeight
/// across components and the diameter ignores unreachable pairs.
WeightedGraph disconnected_weighted(NodeId a, NodeId b) {
  std::vector<std::tuple<NodeId, NodeId, Weight>> edges;
  add_weighted_copy(gen::random_tree(a, 3), 0, 3, edges);
  add_weighted_copy(gen::grid(2, b / 2), a, 4, edges);
  return WeightedGraph::from_edges(a + 2 * (b / 2) + 1, std::move(edges));
}

std::vector<Weight> reference_apsp(const WeightedGraph& g) {
  std::vector<Weight> mat;
  for (NodeId s = 0; s < g.num_nodes(); ++s) {
    const auto d = dijkstra(g, s);
    mat.insert(mat.end(), d.begin(), d.end());
  }
  return mat;
}

Weight reference_diameter(const WeightedGraph& g) {
  Weight diam = 0;
  for (const Weight d : reference_apsp(g)) {
    if (d != kInfWeight) diam = std::max(diam, d);
  }
  return diam;
}

class ParallelSolveTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ParallelSolveTest, MatchesSerialReference) {
  ThreadPool pool(GetParam());
  const std::vector<std::pair<const char*, WeightedGraph>> cases = {
      {"random-heap-path", random_weighted(300, 900, 11)},
      {"random-small-path", random_weighted(40, 120, 12)},
      {"disconnected-heap-path", disconnected_weighted(90, 60)},
      {"disconnected-small-path", disconnected_weighted(20, 20)},
      {"single-node", WeightedGraph::from_edges(1, {})},
  };
  for (const auto& [name, g] : cases) {
    EXPECT_EQ(weighted_diameter_exact(g, pool), reference_diameter(g)) << name;
    EXPECT_EQ(apsp_matrix(g, 20000, pool), reference_apsp(g)) << name;
  }
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, ParallelSolveTest,
                         ::testing::Values(1, 2, 8));

TEST(ParallelSolve, DisconnectedRowsKeepInfinity) {
  const WeightedGraph g = disconnected_weighted(90, 60);
  const NodeId n = g.num_nodes();
  ASSERT_GT(n, kApspSmallGraphNodes);
  const auto mat = apsp_matrix(g);
  EXPECT_EQ(mat[0 * n + (n - 1)], kInfWeight);  // tree to isolated node
  EXPECT_EQ(mat[0 * n + 90], kInfWeight);       // tree to grid
  EXPECT_EQ(mat[static_cast<std::size_t>(n - 1) * n + (n - 1)], 0u);
  EXPECT_NE(weighted_diameter_exact(g), kInfWeight);
}

}  // namespace
}  // namespace gclus
