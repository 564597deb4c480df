// FlatHypergraph: the two CSRs must mirror the edges' vertex sets, and the
// queries read from them must agree with brute force over those sets —
// across the inline/heap word-boundary universes (63/64/65 and 127/128/129,
// around VertexSet::kInlineCapacity).
#include <cstdint>
#include <random>
#include <vector>

#include "gen/random_hypergraphs.h"
#include "gtest/gtest.h"
#include "hypergraph/flat_hypergraph.h"
#include "hypergraph/hypergraph.h"
#include "util/bitset.h"

namespace ghd {
namespace {

// The universes every test sweeps: both sides of the one-word,
// inline-capacity, and heap boundaries, plus a multi-word size.
const int kUniverses[] = {63, 64, 65, 127, 128, 129, 257};

VertexSet RandomSet(int universe, double density, std::mt19937_64* rng) {
  VertexSet s(universe);
  std::bernoulli_distribution coin(density);
  for (int v = 0; v < universe; ++v) {
    if (coin(*rng)) s.Set(v);
  }
  return s;
}

// Reference per-vertex incidence, built from the per-edge vertex sets: the
// ids of the edges containing each vertex, ascending.
std::vector<std::vector<int>> ReferenceIncidence(const Hypergraph& h) {
  std::vector<std::vector<int>> incidence(h.num_vertices());
  for (int e = 0; e < h.num_edges(); ++e) {
    h.edge(e).ForEach([&](int v) { incidence[v].push_back(e); });
  }
  return incidence;
}

TEST(FlatHypergraphTest, CsrMirrorsTheHypergraph) {
  for (int n : kUniverses) {
    const Hypergraph h = RandomUniformHypergraph(n, n / 2 + 3, 4, 7 + n);
    const FlatHypergraph& flat = h.Flat();
    ASSERT_EQ(flat.num_vertices(), h.num_vertices());
    ASSERT_EQ(flat.num_edges(), h.num_edges());
    ASSERT_EQ(flat.edge_offsets().size(),
              static_cast<size_t>(h.num_edges()) + 1);
    ASSERT_EQ(flat.vertex_offsets().size(),
              static_cast<size_t>(h.num_vertices()) + 1);
    for (int e = 0; e < h.num_edges(); ++e) {
      std::vector<int32_t> want;
      h.edge(e).ForEach([&](int v) { want.push_back(v); });
      const std::vector<int32_t> got(
          flat.edge_vertices().begin() + flat.edge_offsets()[e],
          flat.edge_vertices().begin() + flat.edge_offsets()[e + 1]);
      EXPECT_EQ(got, want) << "edge " << e << " universe " << n;
    }
    const std::vector<std::vector<int>> incidence = ReferenceIncidence(h);
    for (int v = 0; v < h.num_vertices(); ++v) {
      const std::vector<int>& want = incidence[v];
      const std::vector<int32_t> got(
          flat.vertex_edges().begin() + flat.vertex_offsets()[v],
          flat.vertex_edges().begin() + flat.vertex_offsets()[v + 1]);
      ASSERT_EQ(got.size(), want.size());
      for (size_t i = 0; i < want.size(); ++i) EXPECT_EQ(got[i], want[i]);
    }
  }
}

TEST(FlatHypergraphTest, EdgesIntersectingMatchesBruteForce) {
  std::mt19937_64 rng(37);
  for (int n : kUniverses) {
    const Hypergraph h = RandomUniformHypergraph(n, n / 2 + 5, 4, 17 + n);
    // Empty, full, and random probes of growing density.
    std::vector<VertexSet> probes = {VertexSet(n), VertexSet::Full(n)};
    for (double density : {0.02, 0.15, 0.5}) {
      probes.push_back(RandomSet(n, density, &rng));
    }
    for (const VertexSet& vs : probes) {
      VertexSet want(h.num_edges());
      for (int e = 0; e < h.num_edges(); ++e) {
        if (h.edge(e).Intersects(vs)) want.Set(e);
      }
      EXPECT_EQ(h.EdgesIntersecting(vs), want)
          << "universe " << n << " probe " << vs.ToString();
    }
  }
}

}  // namespace
}  // namespace ghd
