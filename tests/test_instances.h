// Instance sets shared by the test binaries: seeded relabelings, the 89
// classes of perfbench's repeat_batch workload rebuilt from the generators,
// and the independent hw <= k oracle the serving paths are checked against.
#ifndef GHD_TESTS_TEST_INSTANCES_H_
#define GHD_TESTS_TEST_INSTANCES_H_

#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "gen/circuits.h"
#include "gen/generators.h"
#include "htd/det_k_decomp.h"
#include "hypergraph/canonical.h"
#include "hypergraph/hypergraph.h"
#include "hypergraph/hypergraph_builder.h"
#include "util/resource_governor.h"
#include "util/rng.h"

namespace ghd {

inline std::vector<int> RandomPerm(int n, Rng* rng) {
  std::vector<int> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  rng->Shuffle(&perm);
  return perm;
}

/// h with its vertices, then its edges, permuted by draws from rng.
inline Hypergraph RandomRelabeling(const Hypergraph& h, Rng* rng) {
  const std::vector<int> vperm = RandomPerm(h.num_vertices(), rng);
  const std::vector<int> eperm = RandomPerm(h.num_edges(), rng);
  return RelabeledHypergraph(h, vperm, eperm);
}

inline std::vector<std::pair<std::string, Hypergraph>> RepeatBatchCatalogue() {
  std::vector<std::pair<std::string, Hypergraph>> out;
  for (int r = 4; r <= 6; ++r) {
    for (int c = r; c <= 6; ++c) {
      out.emplace_back("grid" + std::to_string(r) + "x" + std::to_string(c),
                       Grid2dHypergraph(r, c));
    }
  }
  for (int k = 16; k <= 64; k += 4) {
    out.emplace_back("tristrip" + std::to_string(k),
                     TriangleStripHypergraph(k));
  }
  for (int n = 64; n <= 256; n += 8) {
    out.emplace_back("cycle" + std::to_string(n), CycleHypergraph(n));
  }
  for (int k = 4; k <= 16; ++k) {
    out.emplace_back("adder" + std::to_string(k), AdderHypergraph(k));
  }
  for (int k = 4; k <= 24; k += 2) {
    out.emplace_back("bridge" + std::to_string(k), BridgeHypergraph(k));
  }
  for (int n = 40; n <= 160; n += 20) {
    for (int arity = 3; arity <= 5; ++arity) {
      out.emplace_back(
          "window" + std::to_string(n) + "a" + std::to_string(arity),
          WindowPathHypergraph(n, arity, 1));
    }
  }
  return out;
}

/// `m` edges over `n` vertices, each of a random arity in [1, max_arity]:
/// edge sizes that neither follow edge ids nor agree, so orders by size and
/// by id differ.
inline Hypergraph MixedArityHypergraph(int n, int m, int max_arity,
                                       uint64_t seed) {
  Rng rng(seed);
  HypergraphBuilder b;
  for (int e = 0; e < m; ++e) {
    std::vector<int> vertices = RandomPerm(n, &rng);
    vertices.resize(1 + rng.UniformInt(max_arity));
    std::vector<std::string> names;
    for (int v : vertices) names.push_back("v" + std::to_string(v));
    b.AddEdge("e" + std::to_string(e), names);
  }
  return std::move(b).Build();
}

/// The HypertreeWidthAtMost ladder from k = 1 to max_k, each rung on its own
/// budget of `ticks`. Element k (1..max_k) is 1 when hw(h) <= k, 0 when
/// hw(h) > k, and -1 once a rung at or below k ran out of budget.
inline std::vector<int> LadderOracle(const Hypergraph& h, int max_k,
                                     long ticks) {
  std::vector<int> verdict(max_k + 1, -1);
  for (int k = 1; k <= max_k; ++k) {
    Budget budget(0, ticks);
    KDeciderOptions options;
    options.budget = &budget;
    const KDeciderResult r = HypertreeWidthAtMost(h, k, options);
    if (!r.decided) break;
    for (int j = k; j <= max_k && r.exists; ++j) verdict[j] = 1;
    if (r.exists) break;
    verdict[k] = 0;
  }
  return verdict;
}

/// The least k with verdict[k] == 1, or -1.
inline int OracleWidth(const std::vector<int>& verdict) {
  for (size_t k = 1; k < verdict.size(); ++k) {
    if (verdict[k] == 1) return static_cast<int>(k);
  }
  return -1;
}

}  // namespace ghd

#endif  // GHD_TESTS_TEST_INSTANCES_H_
