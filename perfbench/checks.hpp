// Output checks of the benchmark.  Every checked output is one attempted
// operation; one that fails its check (or errors, or is refused) is one
// failed operation.  The gate functions are free so the self-test
// (`perfbench gate-test`) can feed them deliberately wrong answers and
// prove they count them.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/kcenter.hpp"
#include "graph/graph.hpp"
#include "server/server.hpp"

namespace perfbench {

class Checker {
 public:
  /// Records `n` checked outputs of which `bad` failed, under `what`.
  void record(const std::string& what, std::uint64_t n, std::uint64_t bad) {
    attempted_ += n;
    failed_ += bad;
    if (bad > 0 && reported_ < 20) {
      ++reported_;
      std::printf("CHECK FAILED: %s (%llu of %llu)\n", what.c_str(),
                  static_cast<unsigned long long>(bad),
                  static_cast<unsigned long long>(n));
    }
  }
  /// One checked output.
  void expect(bool ok, const std::string& what) { record(what, 1, ok ? 0 : 1); }

  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  int reported_ = 0;
};

/// Δ_C ≤ Δ″ and Δ_sweep ≤ Δ″: the decomposition's lower bound must not
/// exceed its upper bound, and the setup's double-sweep lower bound on
/// the true diameter must not exceed the upper bound either.
inline bool diameter_bounds_ok(gclus::Dist delta_c, gclus::Dist delta_sweep,
                               std::uint64_t delta_upper) {
  return delta_c <= delta_upper && delta_sweep <= delta_upper;
}

/// Exactly k distinct in-range centers, and the reported radius equals
/// the radius evaluate_centers measures for them.
inline bool kcenter_ok(const gclus::Graph& g, const gclus::KCenterResult& r,
                       gclus::NodeId k) {
  if (r.centers.size() != k) return false;
  std::unordered_set<gclus::NodeId> distinct;
  for (const gclus::NodeId c : r.centers) {
    if (c >= g.num_nodes() || !distinct.insert(c).second) return false;
  }
  return gclus::evaluate_centers(g, r.centers).first == r.radius;
}

/// Counts the answers that differ from the serial replay (an error code
/// where the replay has an answer counts too).
inline std::uint64_t answer_mismatches(
    std::span<const gclus::server::QueryResult> got,
    std::span<const gclus::server::QueryResult> expected) {
  if (got.size() != expected.size()) return expected.size();
  std::uint64_t bad = 0;
  for (std::size_t i = 0; i < got.size(); ++i) bad += got[i] == expected[i] ? 0 : 1;
  return bad;
}

/// The oracle answers an upper bound: never below the BFS distance.
inline bool stretch_ok(std::uint64_t approx, gclus::Dist bfs) {
  return approx >= bfs;
}

}  // namespace perfbench
