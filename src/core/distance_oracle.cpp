#include "core/distance_oracle.hpp"

#include <cmath>
#include <utility>

#include "common/check.hpp"
#include "core/cluster2.hpp"
#include "core/quotient.hpp"
#include "graph/weighted.hpp"

namespace gclus {

std::uint32_t resolve_oracle_tau(NodeId n, std::uint32_t tau) {
  if (tau != 0) return tau;
  const double logn = std::max(1.0, std::log2(static_cast<double>(n)));
  return static_cast<std::uint32_t>(
      std::max(1.0, std::sqrt(static_cast<double>(n)) / (logn * logn)));
}

OracleBuild DistanceOracle::build_full(const Graph& g,
                                       const DistanceOracleOptions& options) {
  const NodeId n = g.num_nodes();
  GCLUS_CHECK(n >= 1);

  const std::uint32_t tau = resolve_oracle_tau(n, options.tau);

  ClusterOptions copts;
  copts.context() = options.context();
  copts.seed = derive_seed(options.seed, kSeedTagOracleBuild);

  OracleBuild out;
  out.resolved_tau = tau;
  if (options.use_cluster2) {
    out.clustering = cluster2(g, tau, copts).clustering;
  } else {
    out.clustering = cluster(g, tau, copts);
  }

  QuotientGraph q = build_quotient(g, out.clustering, /*with_weights=*/true);
  out.quotient = std::move(q.weighted);

  DistanceOracle& oracle = out.oracle;
  oracle.num_clusters_ = out.clustering.num_clusters();
  oracle.max_radius_ = out.clustering.max_radius();
  oracle.cluster_of_ = out.clustering.assignment;
  oracle.dist_to_center_ = out.clustering.dist_to_center;
  // The dense APSP is the deliberate O(k²) cost; cap via apsp_matrix.
  oracle.apsp_ = apsp_matrix(out.quotient, /*max_nodes=*/40000,
                             options.pool_or_global());

  options.emit("oracle.tau", static_cast<double>(tau));
  options.emit("oracle.quotient_nodes",
               static_cast<double>(out.quotient.num_nodes()));
  options.emit("oracle.quotient_half_edges",
               static_cast<double>(out.quotient.num_half_edges()));
  options.emit("oracle.apsp_small_path",
               out.quotient.num_nodes() <= kApspSmallGraphNodes ? 1.0 : 0.0);
  return out;
}

DistanceOracle DistanceOracle::build(const Graph& g,
                                     const DistanceOracleOptions& options) {
  return std::move(build_full(g, options).oracle);
}

std::uint64_t DistanceOracle::upper_bound(NodeId u, NodeId v) const {
  GCLUS_CHECK(u < cluster_of_.size() && v < cluster_of_.size());
  if (u == v) return 0;
  const ClusterId cu = cluster_of_[u];
  const ClusterId cv = cluster_of_[v];
  const std::uint64_t label_cost = static_cast<std::uint64_t>(
      dist_to_center_[u]) + dist_to_center_[v];
  if (cu == cv) return label_cost;  // path u -> center -> v inside cluster
  const Weight across = apsp_[static_cast<std::size_t>(cu) * num_clusters_ +
                              cv];
  GCLUS_CHECK(across != kInfWeight, "oracle built over a disconnected graph");
  return label_cost + across;
}

std::size_t DistanceOracle::memory_bytes() const {
  return cluster_of_.size() * sizeof(ClusterId) +
         dist_to_center_.size() * sizeof(Dist) +
         apsp_.size() * sizeof(Weight);
}

}  // namespace gclus
