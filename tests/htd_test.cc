#include "core/ghw_exact.h"
#include "core/ghw_lower.h"
#include "gen/circuits.h"
#include "gen/generators.h"
#include "gen/random_hypergraphs.h"
#include "gtest/gtest.h"
#include "htd/det_k_decomp.h"
#include "htd/hypertree_decomposition.h"
#include "hypergraph/hypergraph_builder.h"

namespace ghd {
namespace {

TEST(HypertreeWidthTest, AcyclicIsWidth1) {
  EXPECT_EQ(HypertreeWidth(StarHypergraph(5, 3)).width, 1);
  EXPECT_EQ(HypertreeWidth(WindowPathHypergraph(12, 4, 1)).width, 1);
}

TEST(HypertreeWidthTest, TriangleIsWidth2) {
  HypertreeWidthResult r = HypertreeWidth(CycleHypergraph(3));
  ASSERT_TRUE(r.exact);
  EXPECT_EQ(r.width, 2);
  EXPECT_TRUE(r.decomposition.Validate(CycleHypergraph(3)).ok());
}

TEST(HypertreeWidthTest, CyclesAreWidth2) {
  for (int n = 4; n <= 8; ++n) {
    HypertreeWidthResult r = HypertreeWidth(CycleHypergraph(n));
    ASSERT_TRUE(r.exact) << n;
    EXPECT_EQ(r.width, 2) << n;
  }
}

TEST(HypertreeWidthTest, AdderIsWidth2) {
  for (int k = 1; k <= 4; ++k) {
    HypertreeWidthResult r = HypertreeWidth(AdderHypergraph(k));
    ASSERT_TRUE(r.exact) << k;
    EXPECT_EQ(r.width, 2) << k;
  }
}

TEST(HypertreeWidthTest, CliqueHwMatchesGhw) {
  // For 2-uniform cliques hw = ghw = ceil(n/2): the single-bag decomposition
  // is already in normal form.
  for (int n = 4; n <= 7; ++n) {
    HypertreeWidthResult r = HypertreeWidth(CliqueHypergraph(n));
    ASSERT_TRUE(r.exact) << n;
    EXPECT_EQ(r.width, (n + 1) / 2) << n;
  }
}

TEST(HypertreeWidthTest, EmptyHypergraph) {
  Hypergraph h({}, {}, {});
  HypertreeWidthResult r = HypertreeWidth(h);
  EXPECT_TRUE(r.exact);
  EXPECT_EQ(r.width, 0);
}

// The paper's approximation theorem: ghw <= hw <= 3*ghw + 1.
TEST(HypertreeWidthTest, ApproximationSandwich) {
  for (uint64_t seed = 0; seed < 12; ++seed) {
    Hypergraph h = RandomUniformHypergraph(10, 8, 3, seed);
    ExactGhwResult ghw = ExactGhw(h);
    ASSERT_TRUE(ghw.exact) << seed;
    HypertreeWidthResult hw = HypertreeWidth(h);
    ASSERT_TRUE(hw.exact) << seed;
    EXPECT_GE(hw.width, ghw.upper_bound) << seed;
    EXPECT_LE(hw.width, 3 * ghw.upper_bound + 1) << seed;
  }
}

TEST(HypertreeWidthTest, ApproximationSandwichOnStructured) {
  std::vector<Hypergraph> instances;
  instances.push_back(AdderHypergraph(4));
  instances.push_back(BridgeHypergraph(3));
  instances.push_back(Grid2dHypergraph(3, 3));
  instances.push_back(TriangleStripHypergraph(3));
  instances.push_back(HypercubeHypergraph(3));
  for (const Hypergraph& h : instances) {
    ExactGhwResult ghw = ExactGhw(h);
    ASSERT_TRUE(ghw.exact);
    HypertreeWidthResult hw = HypertreeWidth(h);
    ASSERT_TRUE(hw.exact);
    EXPECT_GE(hw.width, ghw.upper_bound);
    EXPECT_LE(hw.width, 3 * ghw.upper_bound + 1);
  }
}

TEST(HypertreeWidthTest, DecompositionIsValidatedGhd) {
  for (uint64_t seed = 30; seed < 36; ++seed) {
    Hypergraph h = RandomUniformHypergraph(11, 8, 3, seed);
    HypertreeWidthResult r = HypertreeWidth(h);
    ASSERT_TRUE(r.exact) << seed;
    EXPECT_TRUE(r.decomposition.Validate(h).ok()) << seed;
    EXPECT_EQ(r.decomposition.Width(), r.width) << seed;
  }
}

TEST(HypertreeWidthTest, LastFailedKTracksLowerBound) {
  // The iteration starts at the hw floor (2 for C_5), so k = 1 is never
  // tried and last_failed_k stays 0.
  HypertreeWidthResult r = HypertreeWidth(CycleHypergraph(5));
  ASSERT_TRUE(r.exact);
  EXPECT_EQ(r.width, 2);
  EXPECT_EQ(r.lower_bound, 2);
  EXPECT_EQ(r.last_failed_k, 0);

  // A non-conformal cyclic instance: its GHW lower bound is 1, but the
  // floor knows hw >= 2 from cyclicity, so k = 1 is never tried either.
  HypergraphBuilder b;
  b.AddEdge("e1", {"a", "b", "p"});
  b.AddEdge("e2", {"b", "c", "q"});
  b.AddEdge("e3", {"c", "a", "r"});
  const Hypergraph triangle = std::move(b).Build();
  EXPECT_EQ(GhwLowerBound(triangle), 1);
  HypertreeWidthResult r2 = HypertreeWidth(triangle);
  ASSERT_TRUE(r2.exact);
  EXPECT_EQ(r2.width, 2);
  EXPECT_EQ(r2.lower_bound, 2);
  EXPECT_EQ(r2.last_failed_k, 0);

  // An instance whose hw exceeds its floor records the failed rung.
  HypertreeWidthResult r3 =
      HypertreeWidth(RandomUniformHypergraph(12, 10, 3, /*seed=*/2));
  ASSERT_TRUE(r3.exact);
  EXPECT_EQ(r3.lower_bound, 2);
  EXPECT_EQ(r3.width, 3);
  EXPECT_EQ(r3.last_failed_k, 2);
}

TEST(HypertreeWidthTest, MaxKStopsEarly) {
  HypertreeWidthResult r = HypertreeWidth(CliqueHypergraph(8), /*max_k=*/2);
  EXPECT_FALSE(r.exact);  // hw(K_8) = 4 > 2
}

TEST(HypertreeWidthAtMostTest, MatchesFullComputation) {
  for (uint64_t seed = 40; seed < 46; ++seed) {
    Hypergraph h = RandomUniformHypergraph(10, 7, 3, seed);
    HypertreeWidthResult full = HypertreeWidth(h);
    ASSERT_TRUE(full.exact);
    for (int k = 1; k <= full.width + 1; ++k) {
      KDeciderResult r = HypertreeWidthAtMost(h, k);
      ASSERT_TRUE(r.decided);
      EXPECT_EQ(r.exists, k >= full.width) << seed << " k=" << k;
    }
  }
}

TEST(SpecialConditionTest, DetKDecompOutputSatisfiesIt) {
  for (uint64_t seed = 60; seed < 70; ++seed) {
    Hypergraph h = RandomUniformHypergraph(10, 8, 3, seed);
    HypertreeWidthResult r = HypertreeWidth(h);
    ASSERT_TRUE(r.exact) << seed;
    EXPECT_TRUE(ValidateHypertreeDecomposition(h, r.decomposition).ok())
        << seed;
  }
}

TEST(SpecialConditionTest, DetectsViolations) {
  // Path hypergraph a-b, b-c with a hand-built GHD whose root guard leaks a
  // variable that reappears below without being in the root bag.
  HypergraphBuilder b;
  b.AddEdge("e1", {"a", "b"});
  b.AddEdge("e2", {"b", "c"});
  Hypergraph h = std::move(b).Build();
  const int va = h.VertexIdOf("a"), vb = h.VertexIdOf("b"),
            vc = h.VertexIdOf("c");
  GeneralizedHypertreeDecomposition ghd;
  // Root covers {b, c} but guards it with e2 AND e1 (whose variable a is not
  // in the root bag yet reappears in the child): condition 4 violated at the
  // root for variable a.
  ghd.bags = {VertexSet::Of(3, {vb, vc}), VertexSet::Of(3, {va, vb})};
  ghd.guards = {{1, 0}, {0}};
  ghd.tree_edges = {{0, 1}};
  ASSERT_TRUE(ghd.Validate(h).ok());
  EXPECT_FALSE(ValidateSpecialCondition(h, ghd, /*root=*/0).ok());
  // Rooted at the other end the same tree is fine.
  EXPECT_TRUE(ValidateSpecialCondition(h, ghd, /*root=*/1).ok());
}

TEST(SpecialConditionTest, StructuredFamilies) {
  for (int k = 1; k <= 3; ++k) {
    Hypergraph h = AdderHypergraph(k);
    HypertreeWidthResult r = HypertreeWidth(h);
    ASSERT_TRUE(r.exact);
    EXPECT_TRUE(ValidateHypertreeDecomposition(h, r.decomposition).ok()) << k;
  }
  Hypergraph cyc = CycleHypergraph(7);
  HypertreeWidthResult r = HypertreeWidth(cyc);
  ASSERT_TRUE(r.exact);
  EXPECT_TRUE(ValidateHypertreeDecomposition(cyc, r.decomposition).ok());
}

}  // namespace
}  // namespace ghd
