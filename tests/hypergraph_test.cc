#include <string>
#include <vector>

#include "gen/circuits.h"
#include "gen/generators.h"
#include "gtest/gtest.h"
#include "hypergraph/components.h"
#include "hypergraph/flat_hypergraph.h"
#include "hypergraph/hg_io.h"
#include "hypergraph/hypergraph.h"
#include "hypergraph/hypergraph_builder.h"
#include "hypergraph/stats.h"

namespace ghd {
namespace {

Hypergraph SmallExample() {
  // The running example of the GHW literature: three edges
  // {x1,x2,x3}, {x1,x5,x6}, {x3,x4,x5}.
  HypergraphBuilder b;
  b.AddEdge("c1", {"x1", "x2", "x3"});
  b.AddEdge("c2", {"x1", "x5", "x6"});
  b.AddEdge("c3", {"x3", "x4", "x5"});
  return std::move(b).Build();
}

TEST(HypergraphBuilderTest, InternsVertices) {
  HypergraphBuilder b;
  EXPECT_EQ(b.AddVertex("a"), 0);
  EXPECT_EQ(b.AddVertex("b"), 1);
  EXPECT_EQ(b.AddVertex("a"), 0);
  EXPECT_EQ(b.num_vertices(), 2);
}

TEST(HypergraphBuilderTest, CollapsesDuplicateVerticesInEdge) {
  HypergraphBuilder b;
  b.AddEdge("e", {"x", "y", "x"});
  Hypergraph h = std::move(b).Build();
  EXPECT_EQ(h.edge(0).Count(), 2);
}

TEST(HypergraphTest, BasicAccessors) {
  Hypergraph h = SmallExample();
  EXPECT_EQ(h.num_vertices(), 6);
  EXPECT_EQ(h.num_edges(), 3);
  EXPECT_EQ(h.edge_name(1), "c2");
  EXPECT_EQ(h.vertex_name(0), "x1");
  EXPECT_EQ(h.VertexIdOf("x4"), 5);  // interned after x5, x6 (edge order)
  EXPECT_EQ(h.VertexIdOf("nope"), -1);
}

// The edges containing vertex v, read from the flat vertex CSR.
std::vector<int> FlatIncidence(const Hypergraph& h, int v) {
  const FlatHypergraph& flat = h.Flat();
  return std::vector<int>(
      flat.vertex_edges().begin() + flat.vertex_offsets()[v],
      flat.vertex_edges().begin() + flat.vertex_offsets()[v + 1]);
}

TEST(HypergraphTest, IncidenceLists) {
  Hypergraph h = SmallExample();
  const int x1 = h.VertexIdOf("x1");
  EXPECT_EQ(FlatIncidence(h, x1), (std::vector<int>{0, 1}));
  const int x4 = h.VertexIdOf("x4");
  EXPECT_EQ(FlatIncidence(h, x4), (std::vector<int>{2}));
  // Every vertex's CSR list and incidence_bits row match a reference built
  // from the per-edge vertex sets.
  for (int v = 0; v < h.num_vertices(); ++v) {
    std::vector<int> want;
    VertexSet want_bits(h.num_edges());
    for (int e = 0; e < h.num_edges(); ++e) {
      if (h.edge(e).Test(v)) {
        want.push_back(e);
        want_bits.Set(e);
      }
    }
    EXPECT_EQ(FlatIncidence(h, v), want) << "vertex " << v;
    EXPECT_EQ(h.Flat().incidence_bits().RowAsVertexSet(v), want_bits);
  }
}

TEST(HypergraphTest, UnionOfEdges) {
  Hypergraph h = SmallExample();
  EXPECT_EQ(h.UnionOfEdges({0, 2}).Count(), 5);  // x1,x2,x3,x4,x5
  EXPECT_EQ(h.UnionOfEdges({}).Count(), 0);
}

TEST(HypergraphTest, CoveredVertices) {
  Hypergraph h = SmallExample();
  EXPECT_EQ(h.CoveredVertices().Count(), 6);
}

TEST(HypergraphTest, PrimalGraph) {
  Hypergraph h = SmallExample();
  Graph primal = h.PrimalGraph();
  const int x1 = h.VertexIdOf("x1"), x2 = h.VertexIdOf("x2"),
            x4 = h.VertexIdOf("x4");
  EXPECT_TRUE(primal.HasEdge(x1, x2));
  EXPECT_FALSE(primal.HasEdge(x2, x4));
  // Each 3-edge contributes a triangle; edges overlap in x1,x3,x5.
  EXPECT_EQ(primal.NumEdges(), 9);
}

TEST(HypergraphTest, DualGraph) {
  Hypergraph h = SmallExample();
  Graph dual = h.DualGraph();
  EXPECT_EQ(dual.num_vertices(), 3);
  // All pairs of edges intersect.
  EXPECT_EQ(dual.NumEdges(), 3);
}

TEST(HypergraphTest, InducedSubhypergraph) {
  Hypergraph h = SmallExample();
  VertexSet keep(6);
  keep.Set(h.VertexIdOf("x1"));
  keep.Set(h.VertexIdOf("x2"));
  keep.Set(h.VertexIdOf("x3"));
  Hypergraph sub = h.InducedOn(keep);
  EXPECT_EQ(sub.num_edges(), 3);  // every edge intersects the kept set
  EXPECT_EQ(sub.edge(0).Count(), 3);
  EXPECT_EQ(sub.edge(1).Count(), 1);  // just x1
}

TEST(HypergraphTest, InducedDropsEmptyEdges) {
  Hypergraph h = SmallExample();
  VertexSet keep(6);
  keep.Set(h.VertexIdOf("x4"));
  Hypergraph sub = h.InducedOn(keep);
  EXPECT_EQ(sub.num_edges(), 1);  // only c3 touches x4
}

TEST(HypergraphTest, RankAndDegree) {
  Hypergraph h = SmallExample();
  EXPECT_EQ(h.Rank(), 3);
  EXPECT_EQ(h.MaxDegree(), 2);
  Hypergraph star = StarHypergraph(5, 3);
  EXPECT_EQ(star.MaxDegree(), 5);
  EXPECT_EQ(star.Rank(), 3);
}

TEST(HypergraphTest, Connectivity) {
  EXPECT_TRUE(SmallExample().IsConnected());
  HypergraphBuilder b;
  b.AddEdge("e1", {"a", "b"});
  b.AddEdge("e2", {"c", "d"});
  EXPECT_FALSE(std::move(b).Build().IsConnected());
}

TEST(HypergraphTest, FromGraphRoundtrip) {
  Graph g = CycleGraph(5);
  Hypergraph h = HypergraphBuilder::FromGraph(g);
  EXPECT_EQ(h.num_vertices(), 5);
  EXPECT_EQ(h.num_edges(), 5);
  EXPECT_EQ(h.Rank(), 2);
  // The primal graph of the 2-uniform wrapper is the original graph.
  Graph primal = h.PrimalGraph();
  for (int u = 0; u < 5; ++u) {
    for (int v = u + 1; v < 5; ++v) {
      EXPECT_EQ(primal.HasEdge(u, v), g.HasEdge(u, v));
    }
  }
}

TEST(StatsTest, IntersectionWidth) {
  Hypergraph h = SmallExample();
  EXPECT_EQ(IntersectionWidth(h), 1);  // every pair shares one vertex
  Hypergraph adder = AdderHypergraph(3);
  EXPECT_EQ(IntersectionWidth(adder), 2);  // xor1_i and and1_i share a,b
}

TEST(StatsTest, MultiIntersectionWidth) {
  Hypergraph star = StarHypergraph(4, 3);
  EXPECT_EQ(IntersectionWidth(star), 1);
  EXPECT_EQ(MultiIntersectionWidth(star, 2), 1);
  EXPECT_EQ(MultiIntersectionWidth(star, 3), 1);
  EXPECT_EQ(MultiIntersectionWidth(star, 4), 1);
  // c larger than the edge count: width 0.
  EXPECT_EQ(MultiIntersectionWidth(star, 5), 0);
  // c = 1 is the rank.
  EXPECT_EQ(MultiIntersectionWidth(star, 1), 3);
}

TEST(StatsTest, MultiIntersectionShrinks) {
  Hypergraph h = AdderHypergraph(4);
  const int i2 = MultiIntersectionWidth(h, 2);
  const int i3 = MultiIntersectionWidth(h, 3);
  EXPECT_LE(i3, i2);
}

TEST(StatsTest, ComputeStatsBundle) {
  HypergraphStats s = ComputeStats(SmallExample());
  EXPECT_EQ(s.num_vertices, 6);
  EXPECT_EQ(s.num_edges, 3);
  EXPECT_EQ(s.rank, 3);
  EXPECT_EQ(s.degree, 2);
  EXPECT_EQ(s.intersection_width, 1);
  EXPECT_TRUE(s.connected);
  EXPECT_NE(StatsToString(s).find("rank=3"), std::string::npos);
}

TEST(HgIoTest, ParsesBasicFormat) {
  const std::string content =
      "% comment line\n"
      "e1(x1, x2, x3),\n"
      "e2(x3, x4).\n";
  Result<Hypergraph> r = ParseHg(content);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().num_edges(), 2);
  EXPECT_EQ(r.value().num_vertices(), 4);
  EXPECT_EQ(r.value().edge_name(0), "e1");
}

TEST(HgIoTest, ParsesWithoutTrailingPunctuation) {
  Result<Hypergraph> r = ParseHg("a(x,y)\nb(y,z)");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().num_edges(), 2);
}

TEST(HgIoTest, RejectsGarbage) {
  EXPECT_FALSE(ParseHg("e1(x1,").ok());
  EXPECT_FALSE(ParseHg("(x1)").ok());
  EXPECT_FALSE(ParseHg("e1 x1").ok());
  EXPECT_FALSE(ParseHg("").ok());
  EXPECT_FALSE(ParseHg("% only comments\n").ok());
}

TEST(HgIoTest, RejectsDuplicateEdgeNames) {
  // Traces and deltas name edges, so a second e3 would be ambiguous.
  Result<Hypergraph> r = ParseHg("e1(a,b),\ne3(b,c),\ne2(c,d),\ne3(d,a).\n");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
  EXPECT_NE(r.status().message().find("duplicate edge name 'e3'"),
            std::string::npos)
      << r.status().message();
  // The same vertex set under two names is fine.
  EXPECT_TRUE(ParseHg("e1(a,b),\ne2(a,b).\n").ok());
}

TEST(HgIoTest, WriteParseRoundtrip) {
  Hypergraph h = AdderHypergraph(3);
  Result<Hypergraph> r = ParseHg(WriteHg(h));
  ASSERT_TRUE(r.ok());
  const Hypergraph& h2 = r.value();
  ASSERT_EQ(h2.num_edges(), h.num_edges());
  ASSERT_EQ(h2.num_vertices(), h.num_vertices());
  for (int e = 0; e < h.num_edges(); ++e) {
    EXPECT_EQ(h2.edge_name(e), h.edge_name(e));
    // Compare edges through vertex names (ids may be permuted).
    std::vector<std::string> names1, names2;
    h.edge(e).ForEach([&](int v) { names1.push_back(h.vertex_name(v)); });
    h2.edge(e).ForEach([&](int v) { names2.push_back(h2.vertex_name(v)); });
    std::sort(names1.begin(), names1.end());
    std::sort(names2.begin(), names2.end());
    EXPECT_EQ(names1, names2);
  }
}

TEST(ComponentsTest, ConnectedInstanceIsOneGroup) {
  Hypergraph h = SmallExample();
  auto groups = ConnectedEdgeComponents(h);
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].size(), 3u);
}

TEST(ComponentsTest, SplitsDisjointParts) {
  HypergraphBuilder b;
  b.AddEdge("p1", {"a", "b"});
  b.AddEdge("p2", {"b", "c"});
  b.AddEdge("q1", {"x", "y"});
  b.AddEdge("q2", {"y", "z"});
  b.AddEdge("r1", {"solo1", "solo2"});
  Hypergraph h = std::move(b).Build();
  auto groups = ConnectedEdgeComponents(h);
  EXPECT_EQ(groups.size(), 3u);
  auto parts = SplitIntoComponents(h);
  ASSERT_EQ(parts.size(), 3u);
  int total_edges = 0;
  for (const Hypergraph& part : parts) {
    total_edges += part.num_edges();
    EXPECT_EQ(part.num_vertices(), h.num_vertices());  // shared universe
    EXPECT_TRUE(part.IsConnected());
  }
  EXPECT_EQ(total_edges, h.num_edges());
}

TEST(ComponentsTest, EmptyHypergraph) {
  Hypergraph h({}, {}, {});
  EXPECT_TRUE(ConnectedEdgeComponents(h).empty());
  EXPECT_TRUE(SplitIntoComponents(h).empty());
}

TEST(HgIoTest, MissingFileIsNotFound) {
  EXPECT_EQ(LoadHg("/nonexistent/x.hg").status().code(),
            StatusCode::kNotFound);
}

}  // namespace
}  // namespace ghd
