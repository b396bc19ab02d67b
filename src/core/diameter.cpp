#include "core/diameter.hpp"

#include "common/check.hpp"
#include "core/cluster2.hpp"
#include "core/quotient.hpp"
#include "graph/properties.hpp"
#include "graph/weighted.hpp"

namespace gclus {

DiameterApprox diameter_from_clustering(const Graph& g,
                                        const Clustering& clustering,
                                        ThreadPool& pool) {
  const QuotientGraph q = build_quotient(g, clustering, /*with_weights=*/true);
  GCLUS_CHECK(q.graph.num_nodes() > 0);

  DiameterApprox out;
  out.max_radius = clustering.max_radius();
  out.num_clusters = clustering.num_clusters();
  out.quotient_nodes = q.graph.num_nodes();
  out.quotient_edges = q.graph.num_edges();
  out.growth_steps = clustering.growth_steps;

  // Quotient of a connected graph is connected; exact_diameter checks.
  const Dist delta_c = exact_diameter(q.graph).diameter;
  const Weight delta_c_weighted = weighted_diameter_exact(q.weighted, pool);

  const auto r = static_cast<std::uint64_t>(out.max_radius);
  out.lower_bound = delta_c;
  out.upper_bound_coarse = 2 * r * (static_cast<std::uint64_t>(delta_c) + 1) +
                           delta_c;
  out.upper_bound = 2 * r + delta_c_weighted;
  out.weighted_quotient_diameter = delta_c_weighted;
  return out;
}

DiameterApprox approximate_diameter(const Graph& g, std::uint32_t tau,
                                    const DiameterOptions& options) {
  ClusterOptions copts;
  copts.context() = options.context();

  if (options.use_cluster2) {
    const Cluster2Result r2 = cluster2(g, tau, copts);
    DiameterApprox out =
        diameter_from_clustering(g, r2.clustering, options.pool_or_global());
    out.growth_steps += r2.prelim_growth_steps;
    return out;
  }
  const Clustering c = cluster(g, tau, copts);
  return diameter_from_clustering(g, c, options.pool_or_global());
}

}  // namespace gclus
