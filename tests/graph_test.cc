#include <vector>

#include "gen/generators.h"
#include "graph/graph.h"
#include "gtest/gtest.h"

namespace ghd {
namespace {

Graph Path(int n) {
  Graph g(n);
  for (int v = 0; v + 1 < n; ++v) g.AddEdge(v, v + 1);
  return g;
}

TEST(GraphTest, AddRemoveEdges) {
  Graph g(5);
  EXPECT_EQ(g.NumEdges(), 0);
  g.AddEdge(0, 1);
  g.AddEdge(1, 0);  // duplicate: idempotent
  g.AddEdge(2, 2);  // self-loop: ignored
  EXPECT_EQ(g.NumEdges(), 1);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(1, 0));
  EXPECT_FALSE(g.HasEdge(2, 2));
  g.RemoveEdge(0, 1);
  EXPECT_EQ(g.NumEdges(), 0);
}

TEST(GraphTest, DegreesAndNeighbors) {
  Graph g = Path(4);
  EXPECT_EQ(g.Degree(0), 1);
  EXPECT_EQ(g.Degree(1), 2);
  EXPECT_EQ(g.Neighbors(1).ToVector(), (std::vector<int>{0, 2}));
}

TEST(GraphTest, CliqueDetection) {
  Graph g = CliqueGraph(4);
  EXPECT_TRUE(g.IsClique(VertexSet::Of(4, {0, 1, 2, 3})));
  EXPECT_TRUE(g.IsClique(VertexSet::Of(4, {1, 3})));
  EXPECT_TRUE(g.IsClique(VertexSet::Of(4, {2})));
  EXPECT_TRUE(g.IsClique(VertexSet(4)));
  g.RemoveEdge(0, 2);
  EXPECT_FALSE(g.IsClique(VertexSet::Of(4, {0, 1, 2})));
  EXPECT_TRUE(g.IsClique(VertexSet::Of(4, {0, 1, 3})));
}

TEST(GraphTest, MakeCliqueCountsFill) {
  Graph g = Path(4);  // 0-1-2-3
  const VertexSet s = VertexSet::Of(4, {0, 1, 2});
  EXPECT_EQ(g.FillIn(s), 1);  // missing {0,2}
  EXPECT_EQ(g.MakeClique(s), 1);
  EXPECT_TRUE(g.HasEdge(0, 2));
  EXPECT_EQ(g.FillIn(s), 0);
  EXPECT_EQ(g.MakeClique(s), 0);
}

TEST(GraphTest, EliminationFillOnCycle) {
  Graph g = CycleGraph(5);
  // Every vertex of C_5 has two non-adjacent neighbors: fill = 1.
  for (int v = 0; v < 5; ++v) EXPECT_EQ(g.EliminationFill(v), 1);
}

TEST(GraphTest, EliminateVertexConnectsNeighbors) {
  Graph g = Path(3);  // 0-1-2
  g.EliminateVertex(1);
  EXPECT_TRUE(g.HasEdge(0, 2));
  EXPECT_EQ(g.Degree(1), 0);
  EXPECT_FALSE(g.HasEdge(0, 1));
}

TEST(GraphTest, IsolateVertexAddsNoFill) {
  Graph g = Path(3);
  g.IsolateVertex(1);
  EXPECT_FALSE(g.HasEdge(0, 2));
  EXPECT_EQ(g.NumEdges(), 0);
}

TEST(GraphTest, ContractEdgeMergesNeighborhoods) {
  Graph g(5);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(0, 3);
  g.ContractEdge(0, 1);  // 1 disappears into 0
  EXPECT_TRUE(g.HasEdge(0, 2));
  EXPECT_TRUE(g.HasEdge(0, 3));
  EXPECT_EQ(g.Degree(1), 0);
  EXPECT_FALSE(g.HasEdge(0, 1));
}

TEST(GraphTest, SimplicialVertices) {
  Graph g = Path(3);
  EXPECT_TRUE(g.IsSimplicial(0));   // one neighbor
  EXPECT_FALSE(g.IsSimplicial(1));  // neighbors 0,2 not adjacent
  Graph k = CliqueGraph(5);
  for (int v = 0; v < 5; ++v) EXPECT_TRUE(k.IsSimplicial(v));
}

TEST(GraphTest, AlmostSimplicialVertices) {
  // C_4: each vertex's two neighbors are non-adjacent; removing one leaves a
  // single vertex (a clique), so every vertex is almost simplicial.
  Graph c4 = CycleGraph(4);
  for (int v = 0; v < 4; ++v) {
    EXPECT_FALSE(c4.IsSimplicial(v));
    EXPECT_TRUE(c4.IsAlmostSimplicial(v));
  }
  // Isolated vertices are neither.
  Graph iso(2);
  EXPECT_FALSE(iso.IsAlmostSimplicial(0));
}

TEST(GraphTest, Components) {
  Graph g(6);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(3, 4);
  auto comps = g.Components();
  // {0,1,2}, {3,4}, {5} in some order; total 3 components.
  EXPECT_EQ(comps.size(), 3u);
  int total = 0;
  for (const auto& c : comps) total += c.Count();
  EXPECT_EQ(total, 6);
}

TEST(GraphTest, ComponentsWithinRestricts) {
  Graph g = Path(5);
  // Remove middle vertex from the universe: two components.
  VertexSet keep = VertexSet::Full(5);
  keep.Reset(2);
  auto comps = g.ComponentsWithin(keep);
  EXPECT_EQ(comps.size(), 2u);
}

TEST(GraphTest, NonIsolatedVertices) {
  Graph g(4);
  g.AddEdge(0, 2);
  EXPECT_EQ(g.NonIsolatedVertices().ToVector(), (std::vector<int>{0, 2}));
}

TEST(GraphTest, GridGraphShape) {
  Graph g = GridGraph(3, 4);
  EXPECT_EQ(g.num_vertices(), 12);
  EXPECT_EQ(g.NumEdges(), 3 * 3 + 2 * 4);  // horizontal + vertical
}

TEST(GraphTest, QueenGraphShape) {
  Graph q = QueenGraph(3);
  EXPECT_EQ(q.num_vertices(), 9);
  // Center square attacks everything on a 3x3 board.
  EXPECT_EQ(q.Degree(4), 8);
}

TEST(GraphTest, HypercubeShape) {
  Graph h = HypercubeGraph(3);
  EXPECT_EQ(h.num_vertices(), 8);
  EXPECT_EQ(h.NumEdges(), 12);
  for (int v = 0; v < 8; ++v) EXPECT_EQ(h.Degree(v), 3);
}

}  // namespace
}  // namespace ghd
