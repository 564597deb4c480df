#include <vector>

#include "core/ghd.h"
#include "core/ghw_lower.h"
#include "core/ghw_upper.h"
#include "gen/circuits.h"
#include "gen/generators.h"
#include "gen/random_hypergraphs.h"
#include "gtest/gtest.h"
#include "hypergraph/hypergraph_builder.h"
#include "td/ordering_heuristics.h"

namespace ghd {
namespace {

Hypergraph SmallExample() {
  HypergraphBuilder b;
  b.AddEdge("c1", {"x1", "x2", "x3"});
  b.AddEdge("c2", {"x1", "x5", "x6"});
  b.AddEdge("c3", {"x3", "x4", "x5"});
  return std::move(b).Build();
}

VertexSet BagOf(const Hypergraph& h, const std::vector<std::string>& names) {
  VertexSet bag(h.num_vertices());
  for (const std::string& name : names) {
    const int id = h.VertexIdOf(name);
    EXPECT_GE(id, 0) << name;
    bag.Set(id);
  }
  return bag;
}

GeneralizedHypertreeDecomposition Width2ExampleGhd(const Hypergraph& h) {
  // Two nodes: {x1,x2,x3,x5} guarded by {c1,c2}; {x3,x4,x5} guarded by {c3}.
  GeneralizedHypertreeDecomposition ghd;
  ghd.bags = {BagOf(h, {"x1", "x2", "x3", "x5"}),
              BagOf(h, {"x3", "x4", "x5"})};
  ghd.guards = {{0, 1}, {2}};
  ghd.tree_edges = {{0, 1}};
  return ghd;
}

TEST(GhdTest, WidthIsMaxGuardCount) {
  Hypergraph h = SmallExample();
  GeneralizedHypertreeDecomposition ghd = Width2ExampleGhd(h);
  EXPECT_EQ(ghd.Width(), 2);
}

TEST(GhdTest, ValidatorAcceptsCorrect) {
  Hypergraph h = SmallExample();
  GeneralizedHypertreeDecomposition ghd = Width2ExampleGhd(h);
  // x6 never appears in a bag but c2 = {x1,x5,x6} must be inside some bag —
  // it is not, so this decomposition is actually invalid for h!
  EXPECT_FALSE(ghd.Validate(h).ok());
  // Fix: extend bag 0 to include x6 (still covered by c2's variables).
  ghd.bags[0].Set(h.VertexIdOf("x6"));
  EXPECT_TRUE(ghd.Validate(h).ok());
}

TEST(GhdTest, ValidatorRejectsUncoveredBag) {
  Hypergraph h = SmallExample();
  GeneralizedHypertreeDecomposition ghd = Width2ExampleGhd(h);
  ghd.bags[0].Set(h.VertexIdOf("x6"));
  ghd.guards[0] = {0};  // c1 doesn't contain x5 or x6
  EXPECT_FALSE(ghd.Validate(h).ok());
}

TEST(GhdTest, ValidatorRejectsBadGuardId) {
  Hypergraph h = SmallExample();
  GeneralizedHypertreeDecomposition ghd = Width2ExampleGhd(h);
  ghd.bags[0].Set(h.VertexIdOf("x6"));
  ghd.guards[1] = {7};
  EXPECT_FALSE(ghd.Validate(h).ok());
}

TEST(GhdTest, ValidatorRejectsConnectednessViolation) {
  Hypergraph h = SmallExample();
  GeneralizedHypertreeDecomposition ghd;
  // x1 appears in bags 0 and 2 but not in the middle.
  ghd.bags = {BagOf(h, {"x1", "x2", "x3"}), BagOf(h, {"x3", "x4", "x5"}),
              BagOf(h, {"x1", "x5", "x6"})};
  ghd.guards = {{0}, {2}, {1}};
  ghd.tree_edges = {{0, 1}, {1, 2}};
  EXPECT_FALSE(ghd.Validate(h).ok());
}

TEST(GhdTest, ToTreeDecomposition) {
  Hypergraph h = SmallExample();
  GeneralizedHypertreeDecomposition ghd = Width2ExampleGhd(h);
  ghd.bags[0].Set(h.VertexIdOf("x6"));
  TreeDecomposition td = ghd.ToTreeDecomposition();
  EXPECT_TRUE(td.ValidateForHypergraph(h).ok());
  EXPECT_EQ(td.Width(), 4);  // biggest bag has 5 vertices
}

TEST(MakeCompleteTest, AddsWitnessLeaves) {
  // A 4th edge c4 = {x3, x4} sits inside bag 1 but is in no λ: incomplete.
  HypergraphBuilder b;
  b.AddEdge("c1", {"x1", "x2", "x3"});
  b.AddEdge("c2", {"x1", "x5", "x6"});
  b.AddEdge("c3", {"x3", "x4", "x5"});
  b.AddEdge("c4", {"x3", "x4"});
  Hypergraph h = std::move(b).Build();
  GeneralizedHypertreeDecomposition ghd = Width2ExampleGhd(h);
  ghd.bags[0].Set(h.VertexIdOf("x6"));
  ASSERT_TRUE(ghd.Validate(h).ok());
  EXPECT_FALSE(ghd.IsComplete(h));
  GeneralizedHypertreeDecomposition complete = MakeComplete(h, ghd);
  EXPECT_TRUE(complete.IsComplete(h));
  EXPECT_TRUE(complete.Validate(h).ok());
  EXPECT_EQ(complete.Width(), ghd.Width());
  EXPECT_EQ(complete.num_nodes(), ghd.num_nodes() + 1);
}

TEST(MakeCompleteTest, IdempotentOnCompleteInputs) {
  Hypergraph h = SmallExample();
  GeneralizedHypertreeDecomposition ghd = Width2ExampleGhd(h);
  ghd.bags[0].Set(h.VertexIdOf("x6"));
  GeneralizedHypertreeDecomposition c1 = MakeComplete(h, ghd);
  GeneralizedHypertreeDecomposition c2 = MakeComplete(h, c1);
  EXPECT_EQ(c1.num_nodes(), c2.num_nodes());
}

TEST(GhwUpperTest, FromOrderingValidates) {
  Hypergraph h = SmallExample();
  for (CoverMode mode : {CoverMode::kGreedy, CoverMode::kExact}) {
    GhwUpperBoundResult r = GhwFromOrdering(h, {0, 1, 2, 3, 4, 5}, mode);
    EXPECT_TRUE(r.ghd.Validate(h).ok());
    EXPECT_EQ(r.ghd.Width(), r.width);
    EXPECT_GE(r.width, 1);
  }
}

TEST(GhwUpperTest, ExampleReachesWidth2) {
  Hypergraph h = SmallExample();
  GhwUpperBoundResult r =
      GhwUpperBound(h, OrderingHeuristic::kMinFill, CoverMode::kExact);
  EXPECT_EQ(r.width, 2);  // the known optimum of this example
  EXPECT_TRUE(r.ghd.Validate(h).ok());
}

TEST(GhwUpperTest, AcyclicInstancesGetWidth1) {
  Hypergraph star = StarHypergraph(5, 4);
  GhwUpperBoundResult r =
      GhwUpperBound(star, OrderingHeuristic::kMinFill, CoverMode::kExact);
  EXPECT_EQ(r.width, 1);
  Hypergraph windows = WindowPathHypergraph(12, 4, 1);
  r = GhwUpperBound(windows, OrderingHeuristic::kMinFill, CoverMode::kExact);
  EXPECT_EQ(r.width, 1);
}

TEST(GhwUpperTest, ExactCoversNeverWorseThanGreedy) {
  for (uint64_t seed = 0; seed < 6; ++seed) {
    Hypergraph h = RandomUniformHypergraph(14, 10, 3, seed);
    const Graph primal = h.PrimalGraph();
    std::vector<int> ordering = MinFillOrdering(primal);
    const int exact = GhwWidthFromOrdering(h, ordering, CoverMode::kExact);
    const int greedy = GhwWidthFromOrdering(h, ordering, CoverMode::kGreedy);
    EXPECT_LE(exact, greedy) << seed;
  }
}

TEST(GhwUpperTest, WidthOnlyPathMatchesFullConstruction) {
  for (uint64_t seed = 0; seed < 6; ++seed) {
    Hypergraph h = RandomUniformHypergraph(12, 8, 3, seed);
    const Graph primal = h.PrimalGraph();
    std::vector<int> ordering = MinDegreeOrdering(primal);
    GhwUpperBoundResult full = GhwFromOrdering(h, ordering, CoverMode::kExact);
    EXPECT_EQ(GhwWidthFromOrdering(h, ordering, CoverMode::kExact), full.width)
        << seed;
  }
}

TEST(GhwUpperTest, MultiRestartImprovesOrMatches) {
  Hypergraph h = RandomUniformHypergraph(16, 12, 3, 3);
  GhwUpperBoundResult single =
      GhwUpperBound(h, OrderingHeuristic::kMinFill, CoverMode::kExact);
  GhwUpperBoundResult multi =
      GhwUpperBoundMultiRestart(h, 8, 42, CoverMode::kExact);
  EXPECT_LE(multi.width, single.width);
  EXPECT_TRUE(multi.ghd.Validate(h).ok());
}

TEST(GhwUpperTest, AdderFamilyWidth2) {
  for (int k = 1; k <= 6; ++k) {
    Hypergraph h = AdderHypergraph(k);
    GhwUpperBoundResult r =
        GhwUpperBound(h, OrderingHeuristic::kMinFill, CoverMode::kExact);
    EXPECT_LE(r.width, 2) << "adder_" << k;
  }
}

TEST(GhwLowerTest, NeverExceedsUpperBound) {
  for (uint64_t seed = 0; seed < 8; ++seed) {
    Hypergraph h = RandomUniformHypergraph(12, 9, 3, seed);
    const int lb = GhwLowerBound(h);
    GhwUpperBoundResult ub =
        GhwUpperBoundMultiRestart(h, 4, seed, CoverMode::kExact);
    EXPECT_LE(lb, ub.width) << seed;
    EXPECT_GE(lb, 1);
  }
}

TEST(GhwLowerTest, CliqueBound) {
  // K_9: tw lower bound 8, 2-ary edges: cover of 9 vertices needs >= 5.
  Hypergraph h = CliqueHypergraph(9);
  EXPECT_EQ(GhwLowerBound(h), 5);
}

TEST(GhwLowerTest, EmptyHypergraph) {
  Hypergraph h({}, {}, {});
  EXPECT_EQ(GhwLowerBound(h), 0);
}

TEST(GhwLowerTest, FromExplicitTwBound) {
  Hypergraph h = CliqueHypergraph(6);
  // With tw >= 5, a 6-vertex bag must be covered by 2-sets: >= 3.
  EXPECT_EQ(GhwLowerBoundFromTwBound(EdgeSizesDescending(h), 5), 3);
  EXPECT_EQ(GhwLowerBoundFromTwBound(EdgeSizesDescending(h), 0), 1);
}

}  // namespace
}  // namespace ghd
