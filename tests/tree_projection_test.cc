#include <random>
#include <string>
#include <vector>

#include "core/ghw_exact.h"
#include "core/tree_projection.h"
#include "gen/generators.h"
#include "gen/random_hypergraphs.h"
#include "gtest/gtest.h"
#include "htd/det_k_decomp.h"
#include "hypergraph/hypergraph_builder.h"

namespace ghd {
namespace {

TEST(KFoldUnionTest, CountsDistinctUnions) {
  HypergraphBuilder b;
  b.AddEdge("e1", {"a", "b"});
  b.AddEdge("e2", {"b", "c"});
  b.AddEdge("e3", {"c", "d"});
  Hypergraph h = std::move(b).Build();
  Result<Hypergraph> k1 = KFoldUnionHypergraph(h, 1);
  ASSERT_TRUE(k1.ok());
  EXPECT_EQ(k1.value().num_edges(), 3);
  Result<Hypergraph> k2 = KFoldUnionHypergraph(h, 2);
  ASSERT_TRUE(k2.ok());
  EXPECT_EQ(k2.value().num_edges(), 6);  // 3 singles + 3 distinct pairs
  Result<Hypergraph> k3 = KFoldUnionHypergraph(h, 3);
  ASSERT_TRUE(k3.ok());
  // The triple union equals e1 ∪ e3 = {a,b,c,d}: deduplicated, still 6.
  EXPECT_EQ(k3.value().num_edges(), 6);
}

TEST(KFoldUnionTest, PreservesVertexUniverse) {
  Hypergraph h = CycleHypergraph(5);
  Result<Hypergraph> k2 = KFoldUnionHypergraph(h, 2);
  ASSERT_TRUE(k2.ok());
  EXPECT_EQ(k2.value().num_vertices(), h.num_vertices());
  EXPECT_EQ(k2.value().vertex_name(0), h.vertex_name(0));
}

TEST(KFoldUnionTest, CapIsEnforced) {
  Hypergraph h = RandomUniformHypergraph(20, 12, 3, 1);
  Result<Hypergraph> r = KFoldUnionHypergraph(h, 3, 10);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
}

TEST(TreeProjectionTest, SelfProjectionIffAcyclic) {
  // TP(H, H) holds iff H is alpha-acyclic (bags inside H's own edges).
  Hypergraph star = StarHypergraph(4, 3);
  TreeProjectionResult r = TreeProjectionExists(star, star);
  ASSERT_TRUE(r.decided);
  EXPECT_TRUE(r.exists);

  Hypergraph triangle = CycleHypergraph(3);
  r = TreeProjectionExists(triangle, triangle);
  ASSERT_TRUE(r.decided);
  EXPECT_FALSE(r.exists);
}

TEST(TreeProjectionTest, WitnessBagsFitTargetEdges) {
  Hypergraph h = CycleHypergraph(6);
  Result<Hypergraph> k2 = KFoldUnionHypergraph(h, 2);
  ASSERT_TRUE(k2.ok());
  TreeProjectionResult r = TreeProjectionExists(h, k2.value());
  ASSERT_TRUE(r.decided);
  ASSERT_TRUE(r.exists);
  EXPECT_TRUE(r.witness.ValidateForHypergraph(h).ok());
  for (const VertexSet& bag : r.witness.bags) {
    bool fits = false;
    for (const VertexSet& g : k2.value().edges()) {
      fits = fits || bag.IsSubsetOf(g);
    }
    EXPECT_TRUE(fits);
  }
}

TEST(TreeProjectionTest, GhwViaTpSoundness) {
  // exists => ghw <= k on arbitrary instances.
  for (uint64_t seed = 0; seed < 8; ++seed) {
    Hypergraph h = RandomUniformHypergraph(9, 7, 3, seed);
    ExactGhwResult exact = ExactGhw(h);
    ASSERT_TRUE(exact.exact);
    for (int k = 1; k <= exact.upper_bound + 1; ++k) {
      TreeProjectionResult r = GhwAtMostViaTreeProjection(h, k);
      if (!r.decided) continue;
      if (r.exists) {
        EXPECT_GE(k, exact.upper_bound)
            << "TP witnessed width " << k << " below ghw " << exact.upper_bound;
      }
    }
  }
}

TEST(TreeProjectionTest, NormalFormCoincidesWithHw) {
  // The cover-normal-form projection w.r.t. H^[k] accepts exactly when the
  // hypertree-width check accepts (same normal form, same guard unions).
  for (uint64_t seed = 0; seed < 8; ++seed) {
    Hypergraph h = RandomUniformHypergraph(9, 6, 3, seed);
    for (int k = 1; k <= 3; ++k) {
      TreeProjectionResult tp = GhwAtMostViaTreeProjection(h, k);
      KDeciderResult hw = HypertreeWidthAtMost(h, k);
      ASSERT_TRUE(tp.decided) << seed << " k=" << k;
      ASSERT_TRUE(hw.decided) << seed << " k=" << k;
      EXPECT_EQ(tp.exists, hw.exists) << seed << " k=" << k;
    }
  }
}

TEST(TreeProjectionTest, AcyclicAlwaysProjectsAtK1) {
  Hypergraph windows = WindowPathHypergraph(10, 3, 1);
  TreeProjectionResult r = GhwAtMostViaTreeProjection(windows, 1);
  ASSERT_TRUE(r.decided);
  EXPECT_TRUE(r.exists);
}

TEST(TreeProjectionTest, UndecidedOnTinyBudget) {
  Hypergraph h = RandomUniformHypergraph(15, 12, 3, 5);
  KDeciderOptions options;
  options.state_budget = 1;
  TreeProjectionResult r = GhwAtMostViaTreeProjection(h, 2, 200000, options);
  EXPECT_FALSE(r.decided);
}

// G over n vertices whose edges straddle the word boundaries: a low half, a
// high half, a pair {n-1, 0}, and a band around vertex 64 when n reaches
// it. Vertex n-2 is in the high half only; vertex 1 is in the low half only.
Hypergraph SandwichTarget(int n) {
  std::vector<std::string> names;
  for (int v = 0; v < n; ++v) names.push_back("v" + std::to_string(v));
  std::vector<VertexSet> edges(3, VertexSet(n));
  for (int v = 0; v <= n / 2; ++v) edges[0].Set(v);
  for (int v = n / 2; v < n; ++v) edges[1].Set(v);
  edges[2].Set(n - 1);
  edges[2].Set(0);
  if (n > 64) {
    VertexSet band(n);
    for (int v = 60; v <= 64; ++v) band.Set(v);
    band.Set(n - 2);
    edges.push_back(band);
  }
  std::vector<std::string> edge_names;
  for (size_t e = 0; e < edges.size(); ++e) {
    edge_names.push_back("g" + std::to_string(e));
  }
  return Hypergraph(std::move(names), std::move(edge_names),
                    std::move(edges));
}

bool FitsSomeEdge(const Hypergraph& g, const VertexSet& bag) {
  for (int e = 0; e < g.num_edges(); ++e) {
    if (bag.IsSubsetOf(g.edge(e))) return true;
  }
  return false;
}

TEST(SandwichCheckTest, FitsAndViolationsAtWordBoundaries) {
  for (int n : {63, 64, 65, 127, 128, 129}) {
    const Hypergraph g = SandwichTarget(n);
    auto bag = [n](std::vector<int> vs) { return VertexSet::Of(n, vs); };
    const std::vector<VertexSet> fitting = {
        VertexSet(n),              // empty: fits while G has an edge
        g.edge(0),                 // whole edges
        g.edge(1),
        bag({0, n - 1}),           // the pair edge
        bag({1, n / 2}),           // inside the low half only
        bag({n / 2, n - 2, n - 1}),  // inside the high half only
    };
    for (size_t i = 0; i < fitting.size(); ++i) {
      EXPECT_EQ(internal::FirstBagOutsideEdges(g, {fitting[i]}), -1)
          << "universe " << n << " fitting bag " << i;
    }
    // Each of these meets two edges but lies inside none; the first vertex
    // of each is in an edge, so only the subset test can reject them.
    const std::vector<VertexSet> violating = {
        bag({0, n / 2, n - 1}),  // spans all three base edges
        bag({1, n - 2}),         // low-only and high-only vertices
        bag({0, 1, n - 1}),      // pair edge plus a low-only vertex
        bag({1, n / 2 + 1}),     // low-only and just past the halves' overlap
    };
    for (size_t i = 0; i < violating.size(); ++i) {
      EXPECT_EQ(internal::FirstBagOutsideEdges(g, {violating[i]}), 0)
          << "universe " << n << " violating bag " << i;
    }
    // The index is the first violating bag, after any number that fit.
    std::vector<VertexSet> mixed = fitting;
    mixed.push_back(violating[1]);
    mixed.push_back(violating[0]);
    EXPECT_EQ(internal::FirstBagOutsideEdges(g, mixed),
              static_cast<int>(fitting.size()))
        << "universe " << n;
    if (n >= 127) {
      // Only the band edge, which crosses words 0/1, holds 62 and 64 with
      // n-2: the bag fits there; one more vertex outside the band does not.
      EXPECT_EQ(internal::FirstBagOutsideEdges(g, {bag({62, 63, 64, n - 2})}),
                -1)
          << "universe " << n;
      EXPECT_EQ(
          internal::FirstBagOutsideEdges(g, {bag({59, 62, 63, 64, n - 2})}), 0)
          << "universe " << n;
    }
  }
  // Without G-edges nothing fits, not even the empty bag.
  const Hypergraph empty({"a", "b"}, {}, {});
  EXPECT_EQ(internal::FirstBagOutsideEdges(empty, {VertexSet(2)}), 0);
}

TEST(SandwichCheckTest, MatchesBruteForceOnRandomBags) {
  std::mt19937_64 rng(43);
  for (int n : {63, 64, 65, 127, 128, 129}) {
    const Hypergraph g = RandomUniformHypergraph(n, n / 3, 6, 31 + n);
    std::vector<VertexSet> bags;
    for (int e = 0; e < g.num_edges(); ++e) {
      // A random subset of an edge fits; adding a random vertex may not.
      VertexSet sub(n);
      g.edge(e).ForEach([&](int v) {
        if (rng() % 2 == 0) sub.Set(v);
      });
      bags.push_back(sub);
      sub.Set(static_cast<int>(rng() % n));
      bags.push_back(sub);
    }
    int violations = 0;
    for (size_t i = 0; i < bags.size(); ++i) {
      const bool fits = FitsSomeEdge(g, bags[i]);
      violations += fits ? 0 : 1;
      EXPECT_EQ(internal::FirstBagOutsideEdges(g, {bags[i]}), fits ? -1 : 0)
          << "universe " << n << " bag " << bags[i].ToString();
    }
    EXPECT_GT(violations, 0) << "universe " << n;
  }
}

}  // namespace
}  // namespace ghd
