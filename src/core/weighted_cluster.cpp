#include "core/weighted_cluster.hpp"

#include <algorithm>
#include <cmath>
#include <queue>
#include <tuple>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "common/traversal.hpp"

namespace gclus {

Weight WeightedClustering::max_weighted_radius() const {
  Weight r = 0;
  for (const Weight x : weighted_radius) r = std::max(r, x);
  return r;
}

Dist WeightedClustering::max_hop_radius() const {
  Dist r = 0;
  for (const Dist x : hop_radius) r = std::max(r, x);
  return r;
}

bool WeightedClustering::validate(const WeightedGraph& g) const {
  const NodeId n = g.num_nodes();
  if (assignment.size() != n || dist_to_center.size() != n ||
      hops_to_center.size() != n) {
    return false;
  }
  const ClusterId k = num_clusters();
  if (weighted_radius.size() != k || hop_radius.size() != k) return false;

  std::vector<Weight> seen_wr(k, 0);
  std::vector<Dist> seen_hr(k, 0);
  std::vector<NodeId> sizes(k, 0);
  for (NodeId v = 0; v < n; ++v) {
    const ClusterId c = assignment[v];
    if (c >= k) return false;
    ++sizes[c];
    seen_wr[c] = std::max(seen_wr[c], dist_to_center[v]);
    seen_hr[c] = std::max(seen_hr[c], hops_to_center[v]);
    if (hops_to_center[v] == 0) {
      if (centers[c] != v || dist_to_center[v] != 0) return false;
    } else {
      bool found = false;
      for (const auto& [u, w] : g.neighbors(v)) {
        if (assignment[u] == c && hops_to_center[u] + 1 == hops_to_center[v] &&
            dist_to_center[u] + w == dist_to_center[v]) {
          found = true;
          break;
        }
      }
      if (!found) return false;
    }
  }
  for (ClusterId c = 0; c < k; ++c) {
    if (centers[c] >= n || assignment[centers[c]] != c) return false;
    if (sizes[c] == 0) return false;
    if (seen_wr[c] != weighted_radius[c]) return false;
    if (seen_hr[c] != hop_radius[c]) return false;
  }
  return true;
}

namespace {

/// Pending arrival of a cluster's growth wavefront at a node.  Ordered by
/// (time, cluster, node) so pops are deterministic; lower cluster id wins
/// simultaneous arrivals, matching CLUSTER's tie-break.
struct Arrival {
  Weight time;
  ClusterId cluster;
  NodeId node;
  Weight dist;  // weighted distance from the cluster center
  Dist hops;

  bool operator>(const Arrival& other) const {
    return std::tie(time, cluster, node) >
           std::tie(other.time, other.cluster, other.node);
  }
};

}  // namespace

WeightedClustering weighted_cluster(const WeightedGraph& g, std::uint32_t tau,
                                    const WeightedClusterOptions& options) {
  GCLUS_CHECK(tau >= 1, "weighted_cluster requires tau >= 1");
  const NodeId n = g.num_nodes();
  GCLUS_CHECK(n >= 1);
  for (NodeId u = 0; u < n; ++u) {
    for (const auto& [v, w] : g.neighbors(u)) {
      GCLUS_CHECK(w >= 1, "weighted_cluster requires edge weights >= 1");
    }
  }

  WeightedClustering out;
  out.assignment.assign(n, kNoCluster);
  out.dist_to_center.assign(n, kInfWeight);
  out.hops_to_center.assign(n, 0);

  std::priority_queue<Arrival, std::vector<Arrival>, std::greater<>> pq;
  NodeId covered = 0;
  Weight clock = 0;

  auto add_center = [&](NodeId v) {
    const auto cid = static_cast<ClusterId>(out.centers.size());
    out.centers.push_back(v);
    out.assignment[v] = cid;
    out.dist_to_center[v] = 0;
    out.hops_to_center[v] = 0;
    ++covered;
    for (const auto& [u, w] : g.neighbors(v)) {
      if (out.assignment[u] == kNoCluster) {
        pq.push(Arrival{clock + w, cid, u, w, 1});
      }
    }
  };

  // Pops arrivals until `target_new` nodes are covered, then finishes the
  // current time unit so batch boundaries align with CLUSTER's
  // whole-step semantics.  Returns nodes covered.
  auto grow_until = [&](NodeId target_new) {
    NodeId grown = 0;
    while (!pq.empty()) {
      if (grown >= target_new && pq.top().time > clock) break;
      const Arrival a = pq.top();
      pq.pop();
      clock = std::max(clock, a.time);
      if (out.assignment[a.node] != kNoCluster) continue;
      out.assignment[a.node] = a.cluster;
      out.dist_to_center[a.node] = a.dist;
      out.hops_to_center[a.node] = a.hops;
      ++covered;
      ++grown;
      for (const auto& [u, w] : g.neighbors(a.node)) {
        if (out.assignment[u] == kNoCluster) {
          pq.push(Arrival{a.time + w, a.cluster, u, a.dist + w,
                          static_cast<Dist>(a.hops + 1)});
        }
      }
    }
    return grown;
  };

  const double logn = std::max(1.0, std::log2(static_cast<double>(n)));
  const double stop_threshold = options.threshold_constant * tau * logn;

  // Ascending superset of the uncovered nodes, compacted once more than
  // half the entries go stale — center sampling then stops rescanning all
  // n nodes every iteration (mirrors GrowthState::uncovered_candidates).
  std::vector<NodeId> candidates(n);
  for (NodeId v = 0; v < n; ++v) candidates[v] = v;
  auto compact_candidates = [&] {
    if (!worklist_needs_compaction(candidates.size(),
                                   static_cast<std::size_t>(n - covered))) {
      return;
    }
    candidates.erase(
        std::remove_if(candidates.begin(), candidates.end(),
                       [&](NodeId v) {
                         return out.assignment[v] != kNoCluster;
                       }),
        candidates.end());
  };

  std::size_t iteration = 0;
  while (covered < n && static_cast<double>(n - covered) >= stop_threshold) {
    const NodeId uncovered = n - covered;
    const double p = std::min(
        1.0, options.selection_constant * tau * logn / uncovered);
    compact_candidates();
    std::vector<NodeId> selected;
    for (const NodeId v : candidates) {
      if (out.assignment[v] == kNoCluster &&
          keyed_bernoulli(options.seed, iteration, v, p)) {
        selected.push_back(v);
      }
    }
    for (const NodeId v : selected) add_center(v);

    if (pq.empty() && covered < n && selected.empty()) {
      // Progress guard (disconnected graphs / unlucky waves), as in
      // CLUSTER: inject the smallest uncovered node.
      for (const NodeId v : candidates) {
        if (out.assignment[v] == kNoCluster) {
          add_center(v);
          break;
        }
      }
    }

    const NodeId target = (uncovered + 1) / 2;
    const NodeId covered_by_selection = uncovered - (n - covered);
    if (covered_by_selection < target) {
      grow_until(target - covered_by_selection);
    }
    ++iteration;
  }

  for (const NodeId v : candidates) {
    if (out.assignment[v] == kNoCluster) add_center(v);
  }

  out.final_clock = clock;
  out.iterations = iteration;
  const ClusterId k = out.num_clusters();
  out.weighted_radius.assign(k, 0);
  out.hop_radius.assign(k, 0);
  for (NodeId v = 0; v < n; ++v) {
    const ClusterId c = out.assignment[v];
    out.weighted_radius[c] =
        std::max(out.weighted_radius[c], out.dist_to_center[v]);
    out.hop_radius[c] = std::max(out.hop_radius[c], out.hops_to_center[v]);
  }
  return out;
}

WeightedDiameterApprox approximate_weighted_diameter(
    const WeightedGraph& g, std::uint32_t tau,
    const WeightedClusterOptions& options) {
  const WeightedClustering c = weighted_cluster(g, tau, options);
  const ClusterId k = c.num_clusters();

  // Weighted quotient: edge {A,B} carries the cheapest concrete
  // connection dist_w(a, ctrA) + w(a,b) + dist_w(b, ctrB).
  std::vector<std::tuple<NodeId, NodeId, Weight>> qedges;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const ClusterId cu = c.assignment[u];
    for (const auto& [v, w] : g.neighbors(u)) {
      if (u >= v) continue;
      const ClusterId cv = c.assignment[v];
      if (cu == cv) continue;
      qedges.emplace_back(cu, cv,
                          c.dist_to_center[u] + w + c.dist_to_center[v]);
    }
  }
  const WeightedGraph quotient = WeightedGraph::from_edges(k, qedges);

  WeightedDiameterApprox out;
  out.max_weighted_radius = c.max_weighted_radius();
  out.max_hop_radius = c.max_hop_radius();
  out.quotient_nodes = k;
  out.quotient_edges = quotient.num_edges();
  out.weighted_quotient_diameter =
      weighted_diameter_exact(quotient, options.pool_or_global());
  out.upper_bound =
      2 * out.max_weighted_radius + out.weighted_quotient_diameter;
  return out;
}

}  // namespace gclus
