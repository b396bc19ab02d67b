// The repository benchmark's measuring program.  perfbench/run.py builds
// and drives it; run it directly only to debug a workload:
//
//   perfbench setup   --workload W --seed S --work DIR [--scale tiny]
//   perfbench measure --workload W --seed S --work DIR --seconds T
//                     --trace 0|1 [--scale tiny]
//   perfbench gate-test
//
// `setup` generates the workload's input from the seed, writes it to DIR
// in the format the pipeline ingests, and stores the references the
// checks need (the double-sweep lower bound on the diameter, BFS
// distances of the oracle's stretch pairs).  `measure` runs the pipeline
// from the input file to the final answer through the library's public
// entry points, repeating it for T seconds, checks every output, and
// writes DIR/result.json.  With --trace 1 it alternates untraced reps
// with a traced replica that calls the same public functions in the
// order the composed entry point does internally, each wrapped in a span
// (trace.hpp); the spans go to DIR/spans.jsonl.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "checks.hpp"
#include "common/rng.hpp"
#include "core/cluster.hpp"
#include "core/cluster2.hpp"
#include "core/diameter.hpp"
#include "core/distance_oracle.hpp"
#include "core/kcenter.hpp"
#include "core/quotient.hpp"
#include "graph/bfs.hpp"
#include "graph/connectivity.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/properties.hpp"
#include "graph/weighted.hpp"
#include "mapreduce/engine.hpp"
#include "mr_algos/mr_cluster.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "par/thread_pool.hpp"
#include "query_workload.hpp"
#include "server/artifact.hpp"
#include "server/engine.hpp"
#include "server/server.hpp"
#include "trace.hpp"

namespace fs = std::filesystem;
using namespace gclus;
using namespace gclus::io;
using perfbench::Checker;
using perfbench::Span;
using perfbench::Tracer;

namespace {

// ---- parameters ---------------------------------------------------------------

/// Input sizes and knobs of every workload at one scale.  `full` is what
/// BENCHMARK.json measures; `tiny` is the self-test's smoke scale.
struct Params {
  NodeId road_side;         ///< road_like rows = cols
  std::uint32_t diam_tau;   ///< road-diameter CLUSTER(τ)
  NodeId pa_nodes;          ///< social-kcenter preferential_attachment n
  NodeId pa_attach;         ///< edges per new node
  NodeId k;                 ///< k-center k
  std::uint32_t oracle_tau;  ///< oracle-serve CLUSTER2(τ)
  std::size_t conns;        ///< closed-loop client connections
  std::size_t workers;      ///< QueryServer worker threads
  std::size_t batch;        ///< queries per batch
  std::size_t batches_per_conn;  ///< distinct batches each client cycles
  std::size_t serve_passes;  ///< times each client sends its batches per rep
  std::uint32_t mr_tau;     ///< road-mr CLUSTER(τ)
  std::uint64_t spill_bytes;  ///< road-mr shuffle budget
  int stretch_sources;      ///< BFS sources of the stretch pair sample
  int stretch_targets;      ///< targets per source
};

constexpr double kRoadDrop = 0.08;
constexpr double kRoadShortcut = 0.02;
constexpr double kZipf = 0.8;

const Params kFull{
    /*road_side=*/1000, /*diam_tau=*/3,
    /*pa_nodes=*/300000, /*pa_attach=*/4, /*k=*/16,
    /*oracle_tau=*/650,
    /*conns=*/4, /*workers=*/2, /*batch=*/512, /*batches_per_conn=*/256,
    /*serve_passes=*/8,
    /*mr_tau=*/1, /*spill_bytes=*/8ull << 20,
    /*stretch_sources=*/8, /*stretch_targets=*/64};

const Params kTiny{
    /*road_side=*/60, /*diam_tau=*/2,
    /*pa_nodes=*/3000, /*pa_attach=*/3, /*k=*/4,
    /*oracle_tau=*/8,
    /*conns=*/2, /*workers=*/2, /*batch=*/64, /*batches_per_conn=*/8,
    /*serve_passes=*/2,
    /*mr_tau=*/1, /*spill_bytes=*/64ull << 10,
    /*stretch_sources=*/2, /*stretch_targets=*/16};

struct Args {
  std::string phase;
  std::string workload;
  std::uint64_t seed = 1;
  std::string work;
  double seconds = 10.0;
  bool trace = false;
  const Params* p = &kFull;
};

[[noreturn]] void die(const std::string& msg) {
  std::fprintf(stderr, "perfbench: %s\n", msg.c_str());
  std::exit(2);
}

template <typename T>
T unwrap(StatusOr<T> s, const char* what) {
  if (!s.ok()) die(std::string(what) + ": " + s.status().to_string());
  return std::move(s).value();
}

void must(const Status& s, const char* what) {
  if (!s.ok()) die(std::string(what) + ": " + s.to_string());
}

// ---- small helpers ------------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Nearest-rank percentile, p in (0, 100].
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double file_mb(const std::string& path) {
  std::error_code ec;
  const auto bytes = fs::file_size(path, ec);
  return ec ? 0.0 : static_cast<double>(bytes) / 1e6;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

unsigned pool_threads() {
  return static_cast<unsigned>(ThreadPool::global().num_threads());
}

/// The decomposition seed of rep `rep` (-1 is the warm-up).  Each rep draws
/// a fresh one, so a run's median averages over the algorithms'
/// randomness instead of timing a single draw over and over.
std::uint64_t algo_seed(std::uint64_t seed, int rep) {
  return derive_seed(derive_seed(seed, 0xBE7C), static_cast<std::uint64_t>(rep + 1));
}

Graph road_graph(const Args& a) {
  return gen::road_like(a.p->road_side, a.p->road_side, kRoadDrop,
                        kRoadShortcut, a.seed);
}

/// Key/value references written by setup and read by measure.
struct Refs {
  std::map<std::string, double> values;
  std::vector<std::tuple<NodeId, NodeId, Dist>> pairs;  ///< stretch sample

  void save(const std::string& path) const {
    std::ofstream out(path);
    for (const auto& [k, v] : values) out << k << ' ' << std::to_string(v) << '\n';
    for (const auto& [u, v, d] : pairs) out << "pair " << u << ' ' << v << ' ' << d << '\n';
    if (!out) die("cannot write " + path);
  }
  static Refs load(const std::string& path) {
    std::ifstream in(path);
    if (!in) die("missing references " + path + " (run setup first)");
    Refs r;
    std::string key;
    while (in >> key) {
      if (key == "pair") {
        NodeId u = 0, v = 0;
        Dist d = 0;
        in >> u >> v >> d;
        r.pairs.emplace_back(u, v, d);
      } else {
        double v = 0;
        in >> v;
        r.values[key] = v;
      }
    }
    return r;
  }
  [[nodiscard]] double at(const std::string& k) const {
    const auto it = values.find(k);
    if (it == values.end()) die("reference " + k + " missing");
    return it->second;
  }
};

/// What a measure run hands back to run.py (DIR/result.json).  The
/// median of untraced_s is pipeline_s.
struct Result {
  /// The workload's other end-to-end figures, in the order printed:
  /// (name, value, unit).
  std::vector<std::tuple<std::string, double, std::string>> table;
  std::vector<double> untraced_s;  ///< per-rep pipeline time, tracing off
  std::vector<double> traced_s;    ///< per-rep root-span time, tracing on
  std::vector<std::string> notes;  ///< workload record lines

  void show(const std::string& name, double value, const std::string& unit) {
    table.emplace_back(name, value, unit);
  }
};

/// Repeats the pipeline for `seconds`: one warm-up rep, then untraced reps
/// (alternating with traced ones when tracing) until the budget is spent,
/// at least `min_reps` of each.  `untraced(rep)` returns the seconds of
/// its timed part (its output checks run after it); `traced(rep)` replays
/// rep `rep` with spans and checks it matches.
void repeat(double seconds, Tracer* tracer, int min_reps, Result& res,
            const std::function<double(int)>& untraced,
            const std::function<void(int)>& traced) {
  untraced(-1);  // warm-up: page cache, pool threads, allocator
  const double start = perfbench::now_s();
  int rep = 0;
  while (rep < min_reps || perfbench::now_s() - start < seconds) {
    res.untraced_s.push_back(untraced(rep));
    if (tracer != nullptr) {
      tracer->set_run(rep);
      const double t0 = perfbench::now_s();
      traced(rep);
      res.traced_s.push_back(perfbench::now_s() - t0);
    }
    ++rep;
  }
}

// ---- road-diameter ---------------------------------------------------------------

void setup_road_diameter(const Args& a) {
  const Graph g = road_graph(a);
  must(write_csr(g, a.work + "/road.csr"), "write_csr");
  Refs r;
  r.values["sweep"] = double_sweep_lower_bound(g);
  r.save(a.work + "/refs.txt");
}

void measure_road_diameter(const Args& a, Tracer* tracer, Checker& chk,
                           Result& res) {
  const Refs refs = Refs::load(a.work + "/refs.txt");
  const auto sweep = static_cast<Dist>(refs.at("sweep"));
  const std::string path = a.work + "/road.csr";
  ClusterOptions copts;

  DiameterApprox last{};
  const auto untraced = [&](int rep) {
    copts.seed = algo_seed(a.seed, rep);
    const double t0 = perfbench::now_s();
    const Graph g = unwrap(load_csr(path), "load_csr");
    const Clustering c = cluster(g, a.p->diam_tau, copts);
    last = diameter_from_clustering(g, c);
    const double t1 = perfbench::now_s();
    chk.expect(c.validate(g), "Clustering::validate (road-diameter)");
    chk.expect(perfbench::diameter_bounds_ok(last.lower_bound, sweep,
                                             last.upper_bound),
               "Δ_C ≤ Δ″ and Δ_sweep ≤ Δ″");
    return t1 - t0;
  };
  const auto traced = [&](int) {
    Span root(tracer, "pipeline", "pipeline");
    Graph g;
    {
      Span s(tracer, "load_csr", "graph/io");
      g = unwrap(load_csr(path), "load_csr");
      s.count("input_mb", file_mb(path));
    }
    Clustering c;
    {
      Span s(tracer, "cluster", "decompose");
      c = cluster(g, a.p->diam_tau, copts);
      s.count("growth_steps", c.growth_steps);
      s.count("push_steps", c.push_steps);
      s.count("pull_steps", c.pull_steps);
      s.count("clusters", c.num_clusters());
      s.count("max_radius", c.max_radius());
    }
    QuotientGraph q;
    {
      Span s(tracer, "build_quotient", "core/quotient");
      q = build_quotient(g, c, /*with_weights=*/true);
      s.count("nodes", q.graph.num_nodes());
      s.count("edges", q.graph.num_edges());
    }
    Dist delta_c = 0;
    {
      Span s(tracer, "exact_diameter", "core/diameter");
      delta_c = exact_diameter(q.graph).diameter;
    }
    Weight wdiam = 0;
    {
      Span s(tracer, "weighted_diameter_exact", "core/diameter");
      wdiam = weighted_diameter_exact(q.weighted);
    }
    const std::uint64_t upper = 2ull * c.max_radius() + wdiam;
    chk.expect(delta_c == last.lower_bound && upper == last.upper_bound,
               "traced replica matches diameter_from_clustering");
  };
  repeat(a.seconds, tracer, 3, res, untraced, traced);

  const Graph g = unwrap(load_csr(path), "load_csr");
  const double ratio = static_cast<double>(last.upper_bound) / sweep;
  res.show("pipeline_rounds", last.growth_steps, "count");
  res.show("diameter_ratio", ratio, "ratio");
  res.notes.push_back("road_like " + std::to_string(a.p->road_side) + "x" +
                      std::to_string(a.p->road_side) + ": n=" +
                      std::to_string(g.num_nodes()) + " m=" +
                      std::to_string(g.num_edges()) + ", CSR v2 " +
                      std::to_string(file_mb(path)) + " MB via mmap; tau=" +
                      std::to_string(a.p->diam_tau) + " -> " +
                      std::to_string(last.num_clusters) + " clusters, Δ_C=" +
                      std::to_string(last.lower_bound) + " Δ″=" +
                      std::to_string(last.upper_bound) + " Δ_sweep=" +
                      std::to_string(sweep));
}

// ---- social-kcenter --------------------------------------------------------------

void setup_social_kcenter(const Args& a) {
  const std::string path = a.work + "/social.txt";
  const Graph g =
      gen::preferential_attachment(a.p->pa_nodes, a.p->pa_attach, a.seed);
  std::ofstream out(path);
  write_edge_list(g, out);
  if (!out) die("cannot write " + path);
}

/// Mirror of kcenter_approx's private spanning-forest partition (Theorem
/// 2's merge), so the traced replica can run the merge path step by step.
/// The replica check fails if the two ever drift apart.
std::vector<std::uint32_t> partition_forest(const Graph& q,
                                            std::uint32_t max_parts) {
  const NodeId w = q.num_nodes();
  std::vector<std::uint32_t> part(w, UINT32_MAX);
  std::vector<NodeId> parent(w, kInvalidNode);
  std::vector<std::vector<NodeId>> children(w);
  std::vector<NodeId> order;
  std::vector<NodeId> roots;
  std::vector<char> visited(w, 0);
  for (NodeId r = 0; r < w; ++r) {
    if (visited[r]) continue;
    roots.push_back(r);
    visited[r] = 1;
    const std::size_t begin = order.size();
    order.push_back(r);
    for (std::size_t i = begin; i < order.size(); ++i) {
      for (const NodeId v : q.neighbors(order[i])) {
        if (visited[v]) continue;
        visited[v] = 1;
        parent[v] = order[i];
        children[order[i]].push_back(v);
        order.push_back(v);
      }
    }
  }
  std::uint32_t cut_budget = max_parts - static_cast<std::uint32_t>(roots.size());
  const NodeId threshold = std::max<NodeId>(1, (w + max_parts - 1) / max_parts);
  std::vector<NodeId> pending(w, 0);
  std::vector<std::uint32_t> cut_part(w, UINT32_MAX);
  std::uint32_t next_part = 0;
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    NodeId acc = 1;
    for (const NodeId c : children[*it]) acc += pending[c];
    if (parent[*it] != kInvalidNode && cut_budget > 0 && acc >= threshold) {
      cut_part[*it] = next_part++;
      --cut_budget;
    } else {
      pending[*it] = acc;
    }
  }
  for (const NodeId r : roots) cut_part[r] = next_part++;
  for (const NodeId u : order) {
    part[u] = cut_part[u] != UINT32_MAX ? cut_part[u] : part[parent[u]];
  }
  return part;
}

/// kcenter_approx(g, k) step by step, each library call in a span.
KCenterResult traced_kcenter(Tracer* tracer, const Graph& g, NodeId k,
                             const KCenterOptions& kopts) {
  Span ks(tracer, "kcenter_approx", "core/kcenter");
  NodeId components = 0;
  {
    Span s(tracer, "connected_components", "graph/bfs");
    components = connected_components(g).count;
  }
  const double logn = std::max(1.0, std::log2(static_cast<double>(g.num_nodes())));
  const std::uint32_t tau = std::max<std::uint32_t>(
      static_cast<std::uint32_t>(
          std::max(1.0, std::ceil(kopts.tau_scale * k / (logn * logn)))),
      components);
  ClusterOptions copts;
  copts.context() = kopts.context();
  Clustering c;
  {
    Span s(tracer, "cluster", "decompose");
    c = cluster(g, tau, copts);
    s.count("growth_steps", c.growth_steps);
    s.count("push_steps", c.push_steps);
    s.count("pull_steps", c.pull_steps);
    s.count("clusters", c.num_clusters());
    s.count("max_radius", c.max_radius());
  }
  ks.count("raw_clusters", c.num_clusters());
  std::vector<NodeId> centers;
  if (c.num_clusters() <= k) {
    centers.assign(c.centers.begin(), c.centers.end());
  } else {
    QuotientGraph q;
    {
      Span s(tracer, "build_quotient", "core/quotient");
      q = build_quotient(g, c, /*with_weights=*/false);
      s.count("nodes", q.graph.num_nodes());
      s.count("edges", q.graph.num_edges());
    }
    const std::vector<std::uint32_t> part = partition_forest(q.graph, k);
    std::uint32_t num_parts = 0;
    for (const auto p : part) num_parts = std::max(num_parts, p + 1);
    std::vector<NodeId> part_center(num_parts, kInvalidNode);
    for (ClusterId cl = 0; cl < c.num_clusters(); ++cl) {
      if (part_center[part[cl]] == kInvalidNode) part_center[part[cl]] = c.centers[cl];
    }
    centers = std::move(part_center);
  }
  ks.count("padded_centers", static_cast<double>(k - centers.size()));
  while (centers.size() < k) {
    std::vector<Dist> dist;
    {
      Span s(tracer, "multi_source_bfs", "graph/bfs");
      dist = multi_source_bfs(g, centers);
    }
    NodeId best = kInvalidNode;
    Dist best_d = 0;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (dist[v] != kInfDist && dist[v] > best_d) {
        best_d = dist[v];
        best = v;
      }
    }
    if (best == kInvalidNode) break;
    centers.push_back(best);
  }
  KCenterResult r;
  {
    Span s(tracer, "evaluate_centers", "graph/bfs");
    r.radius = evaluate_centers(g, centers).first;
  }
  r.centers = std::move(centers);
  return r;
}

void measure_social_kcenter(const Args& a, Tracer* tracer, Checker& chk,
                            Result& res) {
  const std::string path = a.work + "/social.txt";
  const NodeId k = a.p->k;
  KCenterOptions kopts;
  RecordingTelemetry telemetry;
  kopts.telemetry = &telemetry;

  KCenterResult last;
  double growth_steps = 0;
  const auto untraced = [&](int rep) {
    kopts.seed = algo_seed(a.seed, rep);
    telemetry.clear();
    const double t0 = perfbench::now_s();
    const Graph g = unwrap(load_edge_list(path), "load_edge_list");
    last = kcenter_approx(g, k, kopts);
    const double t1 = perfbench::now_s();
    growth_steps = telemetry.value("cluster.growth_steps");
    chk.expect(perfbench::kcenter_ok(g, last, k),
               "exactly k distinct centers with the evaluate_centers radius");
    return t1 - t0;
  };
  const auto traced = [&](int) {
    Span root(tracer, "pipeline", "pipeline");
    Graph g;
    {
      Span s(tracer, "load_edge_list", "graph/io");
      g = unwrap(load_edge_list(path), "load_edge_list");
      s.count("input_mb", file_mb(path));
    }
    const KCenterResult r = traced_kcenter(tracer, g, k, kopts);
    chk.expect(r.centers == last.centers && r.radius == last.radius,
               "traced replica matches kcenter_approx");
  };
  repeat(a.seconds, tracer, 3, res, untraced, traced);

  const Graph g = unwrap(load_edge_list(path), "load_edge_list");
  res.show("pipeline_rounds", growth_steps, "count");
  res.show("kcenter_radius", last.radius, "hops");
  res.notes.push_back("preferential_attachment n=" + std::to_string(g.num_nodes()) +
                      " m=" + std::to_string(g.num_edges()) + ", edge list " +
                      std::to_string(file_mb(path)) +
                      " MB via the parallel parser; k=" + std::to_string(k) +
                      ", tau=" + std::to_string(last.tau) + " -> " +
                      std::to_string(last.raw_clusters) + " raw clusters; radius " +
                      std::to_string(last.radius) + " hops");
}

// ---- oracle-serve ----------------------------------------------------------------

void setup_oracle_serve(const Args& a) {
  const Graph g = road_graph(a);
  must(write_csr(g, a.work + "/road.csr"), "write_csr");
  Refs r;
  Rng rng(derive_seed(a.seed, 0x5742));
  for (int s = 0; s < a.p->stretch_sources; ++s) {
    const auto u = static_cast<NodeId>(rng.next_below(g.num_nodes()));
    const std::vector<Dist> d = bfs_distances(g, u);
    for (int t = 0; t < a.p->stretch_targets; ++t) {
      auto v = static_cast<NodeId>(rng.next_below(g.num_nodes()));
      if (v == u) v = (v + 1) % g.num_nodes();
      r.pairs.emplace_back(u, v, d[v]);
    }
  }
  r.save(a.work + "/refs.txt");
}

/// Outcome of one closed-loop serving session.
struct ServeOutcome {
  double seconds = 0;
  std::vector<double> batch_us;  ///< client-measured batch round trips
  std::uint64_t queries = 0;     ///< answered queries
  std::uint64_t mismatched = 0;  ///< answers differing from the replay
  std::uint64_t refused = 0;     ///< queries of batches that came back errored
};

using SubmitFn = std::function<StatusOr<std::vector<server::QueryResult>>(
    std::size_t conn, const std::vector<server::Query>&)>;

/// `conns` closed-loop clients: each sends its next batch only after the
/// previous answer arrived, cycling `passes` times over its own slice of
/// `batches`.  Every answer is compared with the serial replay.
ServeOutcome closed_loop(
    std::size_t conns, std::size_t passes,
    const std::vector<std::vector<server::Query>>& batches,
    const std::vector<std::vector<server::QueryResult>>& expected,
    const SubmitFn& submit) {
  std::vector<ServeOutcome> per(conns);
  std::atomic<std::size_t> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  const std::size_t per_conn = batches.size() / conns;
  for (std::size_t c = 0; c < conns; ++c) {
    threads.emplace_back([&, c] {
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      ServeOutcome& o = per[c];
      o.batch_us.reserve(passes * per_conn);
      for (std::size_t i = 0; i < passes * per_conn; ++i) {
        const std::size_t b = c * per_conn + i % per_conn;
        const double t0 = perfbench::now_s();
        auto got = submit(c, batches[b]);
        o.batch_us.push_back(1e6 * (perfbench::now_s() - t0));
        if (!got.ok()) {
          o.refused += batches[b].size();
          continue;
        }
        o.queries += batches[b].size();
        o.mismatched += perfbench::answer_mismatches(*got, expected[b]);
      }
    });
  }
  while (ready.load() < conns) std::this_thread::yield();
  const double start = perfbench::now_s();
  go.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();
  ServeOutcome all;
  all.seconds = perfbench::now_s() - start;
  for (const ServeOutcome& o : per) {
    all.batch_us.insert(all.batch_us.end(), o.batch_us.begin(), o.batch_us.end());
    all.queries += o.queries;
    all.mismatched += o.mismatched;
    all.refused += o.refused;
  }
  return all;
}

/// Builds OracleArtifact views over vectors it owns — what
/// build_oracle_artifact assembles from DistanceOracle::build_full.
struct OwnedArtifact {
  std::vector<ClusterId> cluster_of;
  std::vector<Dist> dist_to_center;
  std::vector<NodeId> centers;
  std::vector<EdgeId> qoffsets;
  std::vector<ClusterId> qneighbors;
  std::vector<Weight> qweights;
  std::vector<Weight> apsp;
};

server::OracleArtifact assemble_artifact(const Graph& g,
                                         const DistanceOracleOptions& opts,
                                         Clustering c, const WeightedGraph& q,
                                         std::vector<Weight> apsp) {
  server::OracleArtifact a;
  a.meta.graph_num_nodes = g.num_nodes();
  a.meta.graph_num_half_edges = g.num_half_edges();
  a.meta.num_clusters = c.num_clusters();
  a.meta.quotient_num_half_edges = q.num_half_edges();
  a.meta.build_seed = opts.seed;
  a.meta.tau = opts.tau;
  a.meta.use_cluster2 = opts.use_cluster2;
  a.meta.max_radius = c.max_radius();
  auto owned = std::make_shared<OwnedArtifact>();
  owned->cluster_of = std::move(c.assignment);
  owned->dist_to_center = std::move(c.dist_to_center);
  owned->centers = std::move(c.centers);
  owned->qoffsets.assign(q.offsets().begin(), q.offsets().end());
  for (const auto& e : q.adjacency()) {
    owned->qneighbors.push_back(e.to);
    owned->qweights.push_back(e.w);
  }
  owned->apsp = std::move(apsp);
  a.cluster_of = owned->cluster_of;
  a.dist_to_center = owned->dist_to_center;
  a.centers = owned->centers;
  a.quotient_offsets = owned->qoffsets;
  a.quotient_neighbors = owned->qneighbors;
  a.quotient_weights = owned->qweights;
  a.apsp = owned->apsp;
  a.storage = std::move(owned);
  return a;
}

/// The options DistanceOracle::build_full hands CLUSTER2.
ClusterOptions oracle_cluster_options(const DistanceOracleOptions& o) {
  ClusterOptions copts;
  copts.context() = o.context();
  copts.seed = derive_seed(o.seed, kSeedTagOracleBuild);
  return copts;
}

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// The fixed query stream (examples/query_workload.hpp mix), cut into
/// batches, with its serial execute_query replay on the current engine:
/// the reference every served answer must match byte for byte.
struct QueryStream {
  std::vector<std::vector<server::Query>> batches;
  std::vector<std::vector<server::QueryResult>> expected;
  double replay_ns_per_query = 0;

  QueryStream(NodeId n, const Params& p, std::uint64_t seed)
      : batches(p.conns * p.batches_per_conn) {
    const auto flat = gclus_cli::make_queries(n, batches.size() * p.batch, kZipf,
                                              derive_seed(seed, 0x51));
    for (std::size_t b = 0; b < batches.size(); ++b) {
      batches[b].assign(flat.begin() + b * p.batch, flat.begin() + (b + 1) * p.batch);
    }
  }

  void replay(const server::QueryEngine& eng) {
    server::QueryScratch scratch;
    std::vector<ClusterId> buf;
    expected.assign(batches.size(), {});
    std::size_t queries = 0;
    const double t0 = perfbench::now_s();
    for (std::size_t b = 0; b < batches.size(); ++b) {
      expected[b].reserve(batches[b].size());
      for (const auto& q : batches[b]) {
        expected[b].push_back(server::execute_query(eng, q, scratch, buf));
      }
      queries += batches[b].size();
    }
    replay_ns_per_query = 1e9 * (perfbench::now_s() - t0) / static_cast<double>(queries);
  }
};

/// Serves the stream over loopback: QueryServer + NetServer on an
/// ephemeral port, `conns` net::Client connections in a closed loop, then
/// a graceful drain.
ServeOutcome serve_wire(const server::QueryEngine& eng, const Params& p,
                        const QueryStream& st, net::NetServerStats* stats) {
  server::ServerOptions sopts;
  sopts.workers = p.workers;
  server::QueryServer qs(eng, sopts);
  auto ns = unwrap(net::NetServer::start(qs), "NetServer::start");
  std::vector<std::unique_ptr<net::Client>> clients;
  for (std::size_t c = 0; c < p.conns; ++c) {
    clients.push_back(std::make_unique<net::Client>(
        unwrap(net::Client::connect(ns->port()), "Client::connect")));
  }
  ServeOutcome out = closed_loop(
      p.conns, p.serve_passes, st.batches, st.expected,
      [&](std::size_t c, const std::vector<server::Query>& qv) {
        return clients[c]->submit(qv);
      });
  clients.clear();
  ns->request_drain();
  ns->drain();
  if (stats != nullptr) *stats = ns->stats();
  qs.shutdown();
  return out;
}

/// Mean approx_distance / BFS distance over the setup's pair sample;
/// every answer must be an upper bound.
double checked_stretch(const server::QueryEngine& eng, const Refs& refs,
                       Checker& chk) {
  double sum = 0;
  std::uint64_t bad = 0;
  for (const auto& [u, v, d] : refs.pairs) {
    const std::uint64_t approx = unwrap(eng.approx_distance(u, v), "approx_distance");
    bad += perfbench::stretch_ok(approx, d) ? 0 : 1;
    sum += static_cast<double>(approx) / std::max<Dist>(d, 1);
  }
  chk.record("approx_distance ≥ BFS distance", refs.pairs.size(), bad);
  return sum / static_cast<double>(refs.pairs.size());
}

void measure_oracle_serve(const Args& a, Tracer* tracer, Checker& chk,
                          Result& res) {
  const Refs refs = Refs::load(a.work + "/refs.txt");
  const Params& p = *a.p;
  const std::string graph_path = a.work + "/road.csr";
  const std::string orc = a.work + "/oracle.orc";
  const std::string orc_traced = a.work + "/oracle-traced.orc";
  DistanceOracleOptions oopts;
  oopts.tau = p.oracle_tau;
  oopts.use_cluster2 = true;

  // One rep is the workload's whole path: graph file -> published .orc
  // (build) -> serving-ready engine from graph + .orc (restart) -> the
  // fixed query stream served over loopback.  The serial replay that
  // checks the served answers runs between restart and serving, untimed.
  std::vector<double> build_s, restart_s, serve_qps, batch_us;
  std::unique_ptr<server::QueryEngine> engine;
  const auto info = probe_csr_file(graph_path);
  if (!info) die("not a CSR v2 file: " + graph_path);
  QueryStream stream(static_cast<NodeId>(info->num_nodes), p, a.seed);
  double stretch = 0;
  const auto untraced = [&](int rep) {
    oopts.seed = algo_seed(a.seed, rep);
    const double t0 = perfbench::now_s();
    {
      const Graph g = unwrap(load_csr(graph_path), "load_csr");
      const server::OracleArtifact art = server::build_oracle_artifact(g, oopts);
      must(server::write_oracle_artifact(art, orc), "write_oracle_artifact");
    }
    const double t1 = perfbench::now_s();
    Graph g = unwrap(load_csr(graph_path), "load_csr");
    engine = std::make_unique<server::QueryEngine>(
        unwrap(server::QueryEngine::load(std::move(g), orc), "QueryEngine::load"));
    const double t2 = perfbench::now_s();
    stream.replay(*engine);
    const ServeOutcome o = serve_wire(*engine, p, stream, nullptr);
    chk.record("wire answers equal the serial replay", o.queries, o.mismatched);
    chk.record("wire batches answered", o.queries + o.refused, o.refused);
    stretch = checked_stretch(*engine, refs, chk);
    if (rep >= 0) {
      build_s.push_back(t1 - t0);
      restart_s.push_back(t2 - t1);
      serve_qps.push_back(static_cast<double>(o.queries) / o.seconds);
      batch_us.insert(batch_us.end(), o.batch_us.begin(), o.batch_us.end());
    }
    return t2 - t0 + o.seconds;
  };
  const auto traced = [&](int) {
    Span root(tracer, "pipeline", "pipeline");
    {
      Span phase(tracer, "oracle_build", "pipeline");
      Graph g;
      {
        Span s(tracer, "load_csr", "graph/io");
        g = unwrap(load_csr(graph_path), "load_csr");
        s.count("input_mb", file_mb(graph_path));
      }
      server::OracleArtifact art;
      {
        // build_oracle_artifact = DistanceOracle::build_full (CLUSTER2 on
        // the derived seed, weighted quotient, dense APSP) + packaging.
        Span ob(tracer, "build_oracle_artifact", "core/distance_oracle");
        Cluster2Result c2;
        {
          Span s(tracer, "cluster2", "decompose");
          c2 = cluster2(g, p.oracle_tau, oracle_cluster_options(oopts));
          s.count("growth_steps", static_cast<double>(c2.clustering.growth_steps +
                                                      c2.prelim_growth_steps));
          s.count("push_steps", c2.clustering.push_steps);
          s.count("pull_steps", c2.clustering.pull_steps);
          s.count("clusters", c2.clustering.num_clusters());
          s.count("max_radius", c2.clustering.max_radius());
        }
        QuotientGraph q;
        {
          Span s(tracer, "build_quotient", "core/quotient");
          q = build_quotient(g, c2.clustering, /*with_weights=*/true);
          s.count("nodes", q.graph.num_nodes());
          s.count("edges", q.graph.num_edges());
        }
        std::vector<Weight> apsp;
        {
          Span s(tracer, "apsp_matrix", "core/distance_oracle");
          apsp = apsp_matrix(q.weighted, /*max_nodes=*/40000);
          s.count("clusters", q.weighted.num_nodes());
          s.count("apsp_mb", static_cast<double>(apsp.size() * sizeof(Weight)) / 1e6);
        }
        art = assemble_artifact(g, oopts, std::move(c2.clustering), q.weighted,
                                std::move(apsp));
      }
      Span s(tracer, "write_oracle_artifact", "server/artifact");
      must(server::write_oracle_artifact(art, orc_traced), "write_oracle_artifact");
      s.count("artifact_mb", file_mb(orc_traced));
    }
    std::unique_ptr<server::QueryEngine> eng;
    {
      Span phase(tracer, "restart", "pipeline");
      Graph g;
      {
        Span s(tracer, "load_csr", "graph/io");
        g = unwrap(load_csr(graph_path), "load_csr");
      }
      server::OracleArtifact art;
      {
        Span s(tracer, "load_oracle_artifact", "server/artifact");
        art = unwrap(server::load_oracle_artifact(orc_traced), "load_oracle_artifact");
      }
      Span s(tracer, "QueryEngine::from_artifact", "server");
      eng = std::make_unique<server::QueryEngine>(unwrap(
          server::QueryEngine::from_artifact(std::move(g), std::move(art)),
          "from_artifact"));
    }
    Span s(tracer, "serve_wire", "net");
    net::NetServerStats nstats;
    const ServeOutcome o = serve_wire(*eng, p, stream, &nstats);
    chk.record("wire answers equal the serial replay", o.queries, o.mismatched);
    chk.record("wire batches answered", o.queries + o.refused, o.refused);
    s.count("qps", static_cast<double>(o.queries) / o.seconds);
    s.count("batch_p50_us", percentile(o.batch_us, 50));
    s.count("frames", static_cast<double>(nstats.frames_in));
    s.count("error_frames", static_cast<double>(nstats.errors_sent));
  };
  repeat(a.seconds, tracer, 3, res, untraced, traced);
  const server::QueryEngine& eng = *engine;
  if (tracer != nullptr) {
    chk.expect(read_bytes(orc) == read_bytes(orc_traced),
               "traced replica publishes the same .orc bytes");
    // Outside the reps: the serial engine cost and the same closed loop
    // without sockets, so the wire's share of a round trip splits out.
    tracer->set_run(-1);
    {
      Span s(tracer, "execute_query_serial", "server");
      stream.replay(eng);
      s.count("ns_per_query", stream.replay_ns_per_query);
    }
    Span s(tracer, "serve_in_process", "server");
    server::ServerOptions sopts;
    sopts.workers = p.workers;
    server::QueryServer qs(eng, sopts);
    const ServeOutcome o = closed_loop(
        p.conns, p.serve_passes, stream.batches, stream.expected,
        [&](std::size_t, const std::vector<server::Query>& qv)
            -> StatusOr<std::vector<server::QueryResult>> {
          auto ticket = qs.submit(qv);
          if (!ticket.ok()) return ticket.status();
          return ticket->wait();
        });
    qs.shutdown();
    s.count("qps", static_cast<double>(o.queries) / o.seconds);
    s.count("batch_p50_us", percentile(o.batch_us, 50));
    s.count("batch_p99_us", percentile(o.batch_us, 99));
    chk.record("in-process answers equal the serial replay", o.queries, o.mismatched);
    chk.record("in-process batches answered", o.queries + o.refused, o.refused);
  }

  // Checks on the last published artifact: the decomposition it stores is
  // the valid clustering CLUSTER2 gives for the build's seed, whose growth
  // steps (the artifact does not record them) are the pipeline's rounds,
  // and every stretch pair is answered with an upper bound.
  double growth_steps = 0;
  {
    const Cluster2Result c2 =
        cluster2(eng.graph(), p.oracle_tau, oracle_cluster_options(oopts));
    growth_steps = static_cast<double>(c2.clustering.growth_steps +
                                       c2.prelim_growth_steps);
    const server::OracleArtifact& art = eng.artifact();
    chk.expect(std::equal(art.cluster_of.begin(), art.cluster_of.end(),
                          c2.clustering.assignment.begin()) &&
                   std::equal(art.centers.begin(), art.centers.end(),
                              c2.clustering.centers.begin()),
               "artifact labels are CLUSTER2's clustering");
    chk.expect(c2.clustering.validate(eng.graph()),
               "Clustering::validate (oracle decomposition)");
  }

  res.show("pipeline_rounds", growth_steps, "count");
  res.show("oracle_build_s", median(build_s), "s");
  res.show("restart_s", median(restart_s), "s");
  res.show("serve_qps", median(serve_qps), "queries/s");
  res.show("serve_p50_us", percentile(batch_us, 50), "us");
  res.show("serve_p99_us", percentile(batch_us, 99), "us");
  res.show("serve_batches_sampled", static_cast<double>(batch_us.size()), "count");
  res.show("oracle_stretch", stretch, "ratio");

  const double apsp_mb = static_cast<double>(eng.num_clusters()) *
                         eng.num_clusters() * sizeof(Weight) / 1e6;
  res.notes.push_back(
      "road_like n=" + std::to_string(eng.num_nodes()) + ", CSR v2 " +
      std::to_string(file_mb(graph_path)) + " MB; CLUSTER2 tau=" +
      std::to_string(p.oracle_tau) + " -> " + std::to_string(eng.num_clusters()) +
      " clusters, APSP " + std::to_string(apsp_mb) + " MB, .orc " +
      std::to_string(file_mb(orc)) + " MB; L2 " +
      std::to_string(sysconf(_SC_LEVEL2_CACHE_SIZE) / 1e6) + " MB, L3 " +
      std::to_string(sysconf(_SC_LEVEL3_CACHE_SIZE) / 1e6) + " MB");
  res.notes.push_back(
      "closed loop over loopback: " + std::to_string(p.conns) +
      " connections each waiting for its reply, batches of " +
      std::to_string(p.batch) + ", " +
      std::to_string(p.conns * p.batches_per_conn * p.batch * p.serve_passes) +
      " queries per rep, " + std::to_string(p.workers) +
      " server workers, pool of " + std::to_string(pool_threads()) + " threads");
}

// ---- road-mr -----------------------------------------------------------------------

void setup_road_mr(const Args& a) {
  const Graph g = road_graph(a);
  must(write_csr(g, a.work + "/road.csr"), "write_csr");
  Refs r;
  r.values["sweep"] = double_sweep_lower_bound(g);
  r.save(a.work + "/refs.txt");
}

void measure_road_mr(const Args& a, Tracer* tracer, Checker& chk, Result& res) {
  const Refs refs = Refs::load(a.work + "/refs.txt");
  const std::string path = a.work + "/road.csr";
  const std::string spill = a.work + "/spill";
  fs::create_directories(spill);
  mr::Config cfg;
  cfg.spill_memory_bytes = a.p->spill_bytes;
  cfg.spill_dir = spill;
  mr_algos::MrClusterOptions mopts;
  const auto sweep = static_cast<Dist>(refs.at("sweep"));

  mr_algos::MrDiameterResult last;
  mr::Metrics metrics;
  const auto untraced = [&](int rep) {
    mopts.seed = algo_seed(a.seed, rep);
    const double t0 = perfbench::now_s();
    const Graph g = unwrap(load_csr(path), "load_csr");
    mr::Engine engine(cfg);
    last = mr_algos::mr_cluster_diameter(engine, g, a.p->mr_tau, mopts);
    const double t1 = perfbench::now_s();
    metrics = engine.metrics();
    // The shared-memory pipeline on the same seed and τ must agree.
    ClusterOptions copts;
    copts.seed = mopts.seed;
    const Clustering c = cluster(g, a.p->mr_tau, copts);
    chk.expect(last.estimate == diameter_from_clustering(g, c).upper_bound,
               "MR Δ″ equals the shared-memory Δ″");
    chk.expect(perfbench::diameter_bounds_ok(0, sweep, last.estimate),
               "Δ_sweep ≤ MR Δ″");
    return t1 - t0;
  };
  const auto traced = [&](int) {
    Span root(tracer, "pipeline", "pipeline");
    Graph g;
    {
      Span s(tracer, "load_csr", "graph/io");
      g = unwrap(load_csr(path), "load_csr");
      s.count("input_mb", file_mb(path));
    }
    // mr_cluster_diameter's own steps: MR CLUSTER, one combining shuffle
    // to the weighted quotient, one gather round solving its diameter.
    Span ms(tracer, "mr_cluster_diameter", "mapreduce");
    mr::Engine engine(cfg);
    mr_algos::MrClusterResult d;
    {
      Span s(tracer, "mr_cluster", "mapreduce");
      d = mr_algos::mr_cluster(engine, g, a.p->mr_tau, mopts);
      s.count("rounds", engine.metrics().rounds);
    }
    const Clustering& c = d.clustering;
    std::vector<std::pair<std::uint64_t, Weight>> reduced;
    {
      Span s(tracer, "quotient_round", "mapreduce");
      std::vector<std::pair<std::uint64_t, Weight>> crossing;
      for (NodeId u = 0; u < g.num_nodes(); ++u) {
        const ClusterId cu = c.assignment[u];
        for (const NodeId v : g.neighbors(u)) {
          if (u >= v || c.assignment[v] == cu) continue;
          const ClusterId cv = c.assignment[v];
          crossing.emplace_back(
              (static_cast<std::uint64_t>(std::min(cu, cv)) << 32) | std::max(cu, cv),
              static_cast<Weight>(c.dist_to_center[u]) + 1 + c.dist_to_center[v]);
        }
      }
      reduced = engine.round_combine<std::uint64_t, Weight, std::uint64_t, Weight>(
          std::move(crossing),
          [](const std::uint64_t& key, std::span<Weight> ws,
             mr::Emitter<std::uint64_t, Weight>& emit) {
            emit.emit(key, *std::min_element(ws.begin(), ws.end()));
          },
          [](const Weight& x, const Weight& y) { return std::min(x, y); });
    }
    WeightedGraph quotient;
    {
      Span s(tracer, "WeightedGraph::from_edges", "core/quotient");
      std::vector<std::tuple<NodeId, NodeId, Weight>> qedges;
      qedges.reserve(reduced.size());
      for (const auto& [key, w] : reduced) {
        qedges.emplace_back(static_cast<NodeId>(key >> 32),
                            static_cast<NodeId>(key & 0xffffffffULL), w);
      }
      quotient = WeightedGraph::from_edges(c.num_clusters(), std::move(qedges));
      s.count("nodes", c.num_clusters());
      s.count("edges", static_cast<double>(reduced.size()));
    }
    Weight qdiam = 0;
    {
      Span s(tracer, "solve_round", "mapreduce");
      std::vector<std::pair<std::uint8_t, std::uint64_t>> gather;
      gather.reserve(reduced.size());
      for (const auto& [key, w] : reduced) gather.emplace_back(0, key);
      engine.round<std::uint8_t, std::uint64_t, std::uint8_t, std::uint8_t>(
          std::move(gather),
          [&](const std::uint8_t&, std::span<std::uint64_t>,
              mr::Emitter<std::uint8_t, std::uint8_t>&) {
            Span w(tracer, "weighted_diameter_exact", "core/diameter");
            qdiam = weighted_diameter_exact(quotient);
          });
    }
    const mr::Metrics& m = engine.metrics();
    ms.count("rounds", m.rounds);
    ms.count("pairs_shuffled", static_cast<double>(m.pairs_shuffled));
    ms.count("mb_spilled", m.bytes_spilled / 1e6);
    ms.count("spill_runs", static_cast<double>(m.spill_runs));
    ms.count("runs_merged", static_cast<double>(m.runs_merged));
    ms.count("combiner_ratio", m.combiner_reduction());
    chk.expect(c.validate(g), "Clustering::validate (mr_cluster)");
    chk.expect(2ull * c.max_radius() + qdiam == last.estimate,
               "traced replica matches mr_cluster_diameter");
  };
  repeat(a.seconds, tracer, 3, res, untraced, traced);

  const double ratio = static_cast<double>(last.estimate) / sweep;
  res.show("pipeline_rounds", last.total_rounds, "count");
  res.show("diameter_ratio", ratio, "ratio");
  res.notes.push_back("road_like " + std::to_string(a.p->road_side) + "x" +
                      std::to_string(a.p->road_side) + " through mr_cluster_diameter, tau=" +
                      std::to_string(a.p->mr_tau) + ", spill budget " +
                      std::to_string(a.p->spill_bytes >> 20) + " MiB: " +
                      std::to_string(metrics.rounds) + " rounds, " +
                      std::to_string(metrics.pairs_shuffled) + " pairs shuffled, " +
                      std::to_string(metrics.bytes_spilled / 1e6) + " MB spilled in " +
                      std::to_string(metrics.spill_runs) + " runs; " +
                      std::to_string(last.quotient_nodes) + " clusters");
}

// ---- gate self-test ---------------------------------------------------------------

/// Feeds every gate one correct and one deliberately wrong output and
/// requires the checker to count exactly the wrong ones.
int gate_test() {
  Checker chk;
  const Graph g = gen::road_like(30, 30, kRoadDrop, kRoadShortcut, 3);
  ClusterOptions copts;
  Clustering good = cluster(g, 2, copts);
  Clustering bad = good;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (bad.dist_to_center[v] > 0) {
      bad.dist_to_center[v] += 1;  // claims a path one hop longer than exists
      break;
    }
  }
  chk.expect(good.validate(g), "valid clustering");
  chk.expect(bad.validate(g), "invalid clustering (injected)");

  const DiameterApprox d = diameter_from_clustering(g, good);
  const Dist sweep = double_sweep_lower_bound(g);
  chk.expect(perfbench::diameter_bounds_ok(d.lower_bound, sweep, d.upper_bound),
             "diameter bounds");
  chk.expect(perfbench::diameter_bounds_ok(d.lower_bound, sweep, sweep - 1),
             "Δ″ below Δ_sweep (injected)");

  KCenterResult kc = kcenter_approx(g, 5);
  chk.expect(perfbench::kcenter_ok(g, kc, 5), "k-center");
  KCenterResult wrong_radius = kc;
  wrong_radius.radius -= 1;
  chk.expect(perfbench::kcenter_ok(g, wrong_radius, 5), "wrong radius (injected)");
  KCenterResult dup = kc;
  dup.centers[1] = dup.centers[0];
  chk.expect(perfbench::kcenter_ok(g, dup, 5), "duplicate center (injected)");

  std::vector<server::QueryResult> expected(8, server::QueryResult{StatusCode::kOk, 7});
  std::vector<server::QueryResult> got = expected;
  chk.record("identical answers", got.size(),
             perfbench::answer_mismatches(got, expected));
  got[3].value += 1;
  chk.record("one wrong wire answer (injected)", got.size(),
             perfbench::answer_mismatches(got, expected));

  chk.expect(perfbench::stretch_ok(10, 10), "stretch");
  chk.expect(perfbench::stretch_ok(9, 10), "approx below BFS distance (injected)");

  const std::uint64_t injected = 6;
  std::printf("gate-test: %llu checks, %llu failed, %llu injected\n",
              static_cast<unsigned long long>(chk.attempted()),
              static_cast<unsigned long long>(chk.failed()),
              static_cast<unsigned long long>(injected));
  return chk.failed() == injected ? 0 : 1;
}

// ---- main --------------------------------------------------------------------------

struct Workload {
  const char* name;
  void (*setup)(const Args&);
  void (*measure)(const Args&, Tracer*, Checker&, Result&);
};

const Workload kWorkloads[] = {
    {"road-diameter", setup_road_diameter, measure_road_diameter},
    {"social-kcenter", setup_social_kcenter, measure_social_kcenter},
    {"oracle-serve", setup_oracle_serve, measure_oracle_serve},
    {"road-mr", setup_road_mr, measure_road_mr},
};

Args parse_args(int argc, char** argv) {
  if (argc < 2) die("usage: perfbench setup|measure|gate-test [options]");
  Args a;
  a.phase = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") a.workload = val;
    else if (key == "--seed") a.seed = std::stoull(val);
    else if (key == "--work") a.work = val;
    else if (key == "--seconds") a.seconds = std::stod(val);
    else if (key == "--trace") a.trace = val == "1";
    else if (key == "--scale") a.p = val == "tiny" ? &kTiny : &kFull;
    else die("unknown option " + key);
  }
  return a;
}

void write_result(const std::string& path, const Result& r, const Checker& chk) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) die("cannot write " + path);
  const auto list = [&](const char* key, const std::vector<double>& v) {
    std::fprintf(f, "\"%s\":[", key);
    for (std::size_t i = 0; i < v.size(); ++i) {
      std::fprintf(f, "%s%.9f", i ? "," : "", v[i]);
    }
    std::fprintf(f, "],");
  };
  std::fprintf(f, "{\"attempted\":%llu,\"failed\":%llu,\"peak_rss_mb\":%.6f,"
               "\"threads\":%u,",
               static_cast<unsigned long long>(chk.attempted()),
               static_cast<unsigned long long>(chk.failed()), peak_rss_mb(),
               pool_threads());
  list("untraced_s", r.untraced_s);
  list("traced_s", r.traced_s);
  std::fprintf(f, "\"table\":[");
  for (std::size_t i = 0; i < r.table.size(); ++i) {
    const auto& [k, v, u] = r.table[i];
    std::fprintf(f, "%s[\"%s\",%.17g,\"%s\"]", i ? "," : "", k.c_str(), v, u.c_str());
  }
  std::fprintf(f, "],\"notes\":[");
  for (std::size_t i = 0; i < r.notes.size(); ++i) {
    std::fprintf(f, "%s\"%s\"", i ? "," : "", r.notes[i].c_str());
  }
  std::fprintf(f, "]}\n");
  if (std::fclose(f) != 0) die("cannot write " + path);
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse_args(argc, argv);
  if (a.phase == "gate-test") return gate_test();
  const Workload* w = nullptr;
  for (const Workload& cand : kWorkloads) {
    if (a.workload == cand.name) w = &cand;
  }
  if (w == nullptr) die("unknown workload '" + a.workload + "'");
  if (a.work.empty()) die("--work DIR is required");
  fs::create_directories(a.work);

  const double t0 = perfbench::now_s();
  if (a.phase == "setup") {
    w->setup(a);
    std::printf("{\"setup_s\":%.9f}\n", perfbench::now_s() - t0);
    return 0;
  }
  if (a.phase != "measure") die("unknown phase '" + a.phase + "'");
  Tracer tracer(pool_threads());
  Checker chk;
  Result res;
  w->measure(a, a.trace ? &tracer : nullptr, chk, res);
  if (a.trace && !tracer.write_jsonl(a.work + "/spans.jsonl")) {
    die("cannot write spans");
  }
  write_result(a.work + "/result.json", res, chk);
  return 0;
}
