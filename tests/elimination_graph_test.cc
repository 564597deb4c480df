// Differential tests of the sparse EliminationGraph against the dense Graph:
// construction (from a dense graph and from a hypergraph's flat CSRs), every
// query, and seeded random sequences of Eliminate / Contract / Isolate,
// compared after each step. Long sequences on dense graphs move adjacency
// lists around the pool and compact it, which is where an offset slip would
// show.
#include <algorithm>
#include <string>
#include <vector>

#include "graph/elimination_graph.h"
#include "graph/graph.h"
#include "gen/random_hypergraphs.h"
#include "gtest/gtest.h"
#include "hypergraph/hypergraph.h"
#include "util/rng.h"

namespace ghd {
namespace {

// Every query of `sparse` agrees with its dense namesake on `dense`.
void ExpectSameGraph(const EliminationGraph& sparse, const Graph& dense) {
  ASSERT_EQ(sparse.num_vertices(), dense.num_vertices());
  const int n = dense.num_vertices();
  for (int v = 0; v < n; ++v) {
    SCOPED_TRACE("v=" + std::to_string(v));
    const auto nv = sparse.Neighbors(v);
    EXPECT_EQ(std::vector<int>(nv.begin(), nv.end()),
              dense.Neighbors(v).ToVector());
    EXPECT_EQ(sparse.Degree(v), dense.Degree(v));
    EXPECT_EQ(sparse.FillIn(v), dense.EliminationFill(v));
    EXPECT_EQ(sparse.IsSimplicial(v), dense.IsSimplicial(v));
  }
  // HasEdge on every pair of small graphs, on a fixed sample of large ones.
  const int step = n <= 70 ? 1 : 7;
  for (int u = 0; u < n; u += step) {
    for (int v = 0; v < n; ++v) {
      EXPECT_EQ(sparse.HasEdge(u, v), dense.HasEdge(u, v))
          << "u=" << u << " v=" << v;
    }
  }
}

std::vector<Graph> Graphs() {
  std::vector<Graph> graphs;
  uint64_t seed = 11;
  for (int n : {0, 1, 2, 3, 7, 16, 33}) {
    for (double p : {0.0, 0.1, 0.3, 0.7, 1.0}) {
      graphs.push_back(RandomGraph(n, p, seed++));
    }
  }
  for (int n : {63, 64, 65, 127, 128, 129}) {
    for (double p : {0.02, 0.1, 0.5}) graphs.push_back(RandomGraph(n, p, seed++));
  }
  return graphs;
}

TEST(EliminationGraphTest, BuiltFromADenseGraphMatchesIt) {
  for (const Graph& g : Graphs()) {
    SCOPED_TRACE("n=" + std::to_string(g.num_vertices()) +
                 " m=" + std::to_string(g.NumEdges()));
    ExpectSameGraph(EliminationGraph(g), g);
  }
}

TEST(EliminationGraphTest, BuiltFromFlatCsrsIsThePrimalGraph) {
  Rng rng(2718);
  for (int trial = 0; trial < 120; ++trial) {
    // Random arities 0..5 over up to 70 vertices: empty and repeated edges,
    // vertices in no edge, and universes past one word.
    const int n = 1 + rng.UniformInt(70);
    const int m = rng.UniformInt(2 * n);
    std::vector<std::string> vertex_names, edge_names;
    for (int v = 0; v < n; ++v) vertex_names.push_back("v" + std::to_string(v));
    std::vector<VertexSet> edges;
    for (int e = 0; e < m; ++e) {
      VertexSet s(n);
      for (int k = rng.UniformInt(6); k > 0; --k) s.Set(rng.UniformInt(n));
      edges.push_back(std::move(s));
      edge_names.push_back("e" + std::to_string(e));
    }
    const Hypergraph h(std::move(vertex_names), std::move(edge_names),
                       std::move(edges));
    SCOPED_TRACE("trial=" + std::to_string(trial));
    ExpectSameGraph(EliminationGraph(h.Flat()), h.PrimalGraph());
  }
}

// A random existing edge {u, v} of g, or false when g has none.
bool RandomEdge(const Graph& g, Rng* rng, int* u, int* v) {
  std::vector<int> with_edges;
  for (int x = 0; x < g.num_vertices(); ++x) {
    if (g.Degree(x) > 0) with_edges.push_back(x);
  }
  if (with_edges.empty()) return false;
  *u = with_edges[rng->UniformInt(static_cast<int>(with_edges.size()))];
  const std::vector<int> nu = g.Neighbors(*u).ToVector();
  *v = nu[rng->UniformInt(static_cast<int>(nu.size()))];
  return true;
}

TEST(EliminationGraphTest, RandomOperationSequencesMatchDenseGraph) {
  Rng rng(31337);
  for (const Graph& start : Graphs()) {
    const int n = start.num_vertices();
    if (n == 0) continue;
    SCOPED_TRACE("n=" + std::to_string(n) +
                 " m=" + std::to_string(start.NumEdges()));
    Graph dense = start;
    EliminationGraph sparse(start);
    for (int step = 0; step < 3 * n; ++step) {
      const int op = rng.UniformInt(3);
      int u = rng.UniformInt(n);
      int v = -1;
      std::string what;
      if (op == 0) {
        dense.EliminateVertex(u);
        sparse.Eliminate(u);
        what = "eliminate " + std::to_string(u);
      } else if (op == 1) {
        dense.IsolateVertex(u);
        sparse.Isolate(u);
        what = "isolate " + std::to_string(u);
      } else {
        if (!RandomEdge(dense, &rng, &u, &v)) continue;
        dense.ContractEdge(u, v);
        sparse.Contract(u, v);
        what = "contract " + std::to_string(v) + " into " + std::to_string(u);
      }
      SCOPED_TRACE("step " + std::to_string(step) + ": " + what);
      ExpectSameGraph(sparse, dense);
      if (testing::Test::HasFailure()) return;
    }
  }
}

TEST(EliminationGraphTest, CopiesAreIndependent) {
  const Graph g = RandomGraph(40, 0.3, 5);
  EliminationGraph original(g);
  EliminationGraph copy = original;
  Graph dense_copy = g;
  for (int v = 0; v < 40; v += 3) {
    copy.Eliminate(v);
    dense_copy.EliminateVertex(v);
  }
  ExpectSameGraph(original, g);
  ExpectSameGraph(copy, dense_copy);
}

// Eliminating a sparse graph's vertices in id order fills the rest in: lists
// grow past their slots over and over, and the pool is compacted on the way.
TEST(EliminationGraphTest, GrowthAndCompactionKeepEveryList) {
  for (int n : {30, 65, 130}) {
    const Graph g = RandomGraph(n, 0.05, 100 + n);
    Graph dense = g;
    EliminationGraph sparse(g);
    for (int v = 0; v < n; ++v) {
      dense.EliminateVertex(v);
      sparse.Eliminate(v);
      if (v % 5 == 0) ExpectSameGraph(sparse, dense);
    }
    ExpectSameGraph(sparse, dense);
  }
}

}  // namespace
}  // namespace ghd
