#include "core/bip.h"
#include "core/ghw_exact.h"
#include "core/k_decider.h"
#include "gen/circuits.h"
#include "gen/generators.h"
#include "gen/random_hypergraphs.h"
#include "gtest/gtest.h"
#include "htd/det_k_decomp.h"
#include "hypergraph/hypergraph_builder.h"
#include "obs/obs.h"

namespace ghd {
namespace {

Hypergraph SmallExample() {
  HypergraphBuilder b;
  b.AddEdge("c1", {"x1", "x2", "x3"});
  b.AddEdge("c2", {"x1", "x5", "x6"});
  b.AddEdge("c3", {"x3", "x4", "x5"});
  return std::move(b).Build();
}

TEST(OriginalEdgesFamilyTest, MapsEdgesToThemselves) {
  Hypergraph h = SmallExample();
  GuardFamily f = OriginalEdgesFamily(h);
  ASSERT_EQ(f.size(), 3);
  EXPECT_TRUE(f.HasParents());
  for (int e = 0; e < 3; ++e) {
    EXPECT_EQ(f.guards[e], h.edge(e));
    EXPECT_EQ(f.parent_edge[e], e);
  }
}

TEST(KDeciderTest, AcyclicInstanceAtWidth1) {
  Hypergraph star = StarHypergraph(4, 3);
  KDeciderResult r = DecideWidthK(star, OriginalEdgesFamily(star), 1);
  ASSERT_TRUE(r.decided);
  EXPECT_TRUE(r.exists);
  EXPECT_TRUE(r.guards_valid);
  EXPECT_TRUE(r.decomposition.Validate(star).ok());
  EXPECT_LE(r.decomposition.Width(), 1);
}

TEST(KDeciderTest, IntervalHypergraphAtWidth1) {
  Hypergraph windows = WindowPathHypergraph(12, 4, 2);
  KDeciderResult r = DecideWidthK(windows, OriginalEdgesFamily(windows), 1);
  ASSERT_TRUE(r.decided);
  EXPECT_TRUE(r.exists);
}

TEST(KDeciderTest, TriangleNeedsWidth2) {
  Hypergraph triangle = CycleHypergraph(3);
  KDeciderResult r1 = DecideWidthK(triangle, OriginalEdgesFamily(triangle), 1);
  ASSERT_TRUE(r1.decided);
  EXPECT_FALSE(r1.exists);
  KDeciderResult r2 = DecideWidthK(triangle, OriginalEdgesFamily(triangle), 2);
  ASSERT_TRUE(r2.decided);
  EXPECT_TRUE(r2.exists);
  EXPECT_TRUE(r2.decomposition.Validate(triangle).ok());
}

TEST(KDeciderTest, CyclesNeedWidth2) {
  for (int n = 4; n <= 9; ++n) {
    Hypergraph c = CycleHypergraph(n);
    EXPECT_FALSE(DecideWidthK(c, OriginalEdgesFamily(c), 1).exists) << n;
    EXPECT_TRUE(DecideWidthK(c, OriginalEdgesFamily(c), 2).exists) << n;
  }
}

TEST(KDeciderTest, AdderAtWidth2) {
  for (int k = 1; k <= 5; ++k) {
    Hypergraph h = AdderHypergraph(k);
    EXPECT_FALSE(DecideWidthK(h, OriginalEdgesFamily(h), 1).exists) << k;
    KDeciderResult r = DecideWidthK(h, OriginalEdgesFamily(h), 2);
    ASSERT_TRUE(r.decided) << k;
    EXPECT_TRUE(r.exists) << k;
    EXPECT_TRUE(r.decomposition.Validate(h).ok()) << k;
  }
}

TEST(KDeciderTest, DisconnectedInstances) {
  HypergraphBuilder b;
  b.AddEdge("p", {"a", "b"});
  b.AddEdge("q", {"c", "d"});
  b.AddEdge("r", {"d", "e"});
  Hypergraph h = std::move(b).Build();
  KDeciderResult r = DecideWidthK(h, OriginalEdgesFamily(h), 1);
  ASSERT_TRUE(r.decided);
  EXPECT_TRUE(r.exists);
  EXPECT_TRUE(r.decomposition.Validate(h).ok());
}

TEST(KDeciderTest, EmptyHypergraph) {
  Hypergraph h({}, {}, {});
  KDeciderResult r = DecideWidthK(h, OriginalEdgesFamily(h), 1);
  ASSERT_TRUE(r.decided);
  EXPECT_TRUE(r.exists);
}

TEST(KDeciderTest, BudgetExhaustionIsReported) {
  Hypergraph h = RandomUniformHypergraph(20, 18, 3, 1);
  KDeciderOptions options;
  options.state_budget = 2;
  KDeciderResult r = DecideWidthK(h, OriginalEdgesFamily(h), 2, options);
  EXPECT_FALSE(r.decided);
}

TEST(KDeciderTest, MonotoneInK) {
  for (uint64_t seed = 0; seed < 6; ++seed) {
    Hypergraph h = RandomUniformHypergraph(10, 8, 3, seed);
    const GuardFamily family = OriginalEdgesFamily(h);
    bool prev = false;
    for (int k = 1; k <= 4; ++k) {
      KDeciderResult r = DecideWidthK(h, family, k);
      ASSERT_TRUE(r.decided);
      // Once decomposable at k, also at k+1.
      if (prev) {
        EXPECT_TRUE(r.exists) << seed << " k=" << k;
      }
      prev = r.exists;
    }
  }
}

// The original-edges decider computes hypertree width, an upper bound on ghw;
// the full subedge closure makes the same engine complete for ghw. Both must
// bracket the ordering-based exact GHW on random instances.
TEST(KDeciderTest, AgreesWithOrderingExactGhwThroughFullClosure) {
  for (uint64_t seed = 0; seed < 12; ++seed) {
    Hypergraph h = RandomUniformHypergraph(9, 7, 3, seed);
    ExactGhwResult exact = ExactGhw(h);
    ASSERT_TRUE(exact.exact) << seed;
    const GuardFamily closure = FullSubedgeClosure(h).family;
    ASSERT_GT(closure.size(), 0) << seed;
    for (int k = 1; k <= exact.upper_bound + 1; ++k) {
      KDeciderResult r = DecideWidthK(h, closure, k);
      ASSERT_TRUE(r.decided) << seed << " k=" << k;
      EXPECT_EQ(r.exists, k >= exact.upper_bound)
          << "seed=" << seed << " k=" << k << " ghw=" << exact.upper_bound;
      if (r.exists) {
        EXPECT_TRUE(r.decomposition.Validate(h).ok());
        EXPECT_LE(r.decomposition.Width(), k);
      }
    }
  }
}

TEST(KDeciderTest, HwNeverBelowGhw) {
  for (uint64_t seed = 20; seed < 28; ++seed) {
    Hypergraph h = RandomUniformHypergraph(10, 8, 3, seed);
    ExactGhwResult exact = ExactGhw(h);
    ASSERT_TRUE(exact.exact);
    // hw >= ghw: the original-edges decider must fail below ghw.
    if (exact.upper_bound >= 2) {
      KDeciderResult below =
          DecideWidthK(h, OriginalEdgesFamily(h), exact.upper_bound - 1);
      ASSERT_TRUE(below.decided);
      EXPECT_FALSE(below.exists) << seed;
    }
  }
}

#if GHD_OBS_ENABLED
TEST(KDeciderTest, TruncatedRunsNeverMemoizeUnsoundNegatives) {
  // The decider must refuse to cache a "no" computed under truncation: such
  // an entry would poison later lookups. kDeciderMemoPoisoned tallies exactly
  // those refused insertions at the one choke point, so it stays 0 on every
  // instance, budget-truncated (200 states) and unbounded.
  const std::vector<Hypergraph> instances = {
      AdderHypergraph(3),
      BridgeHypergraph(3),
      Grid2dHypergraph(3, 3),
      CycleHypergraph(9),
      CliqueHypergraph(7),
      TriangleStripHypergraph(3),
      HypercubeHypergraph(3),
      RandomCircuitHypergraph(4, 10, 5),
      RandomUniformHypergraph(10, 8, 3, 1),
      RandomUniformHypergraph(11, 7, 4, 3),
      RandomBoundedIntersectionHypergraph(12, 8, 3, 1, 4),
      RandomBoundedDegreeHypergraph(14, 9, 3, 2, 5),
  };
  obs::EnableCounters(true);
  for (const Hypergraph& h : instances) {
    for (long budget : {200L, 0L}) {
      obs::ResetCounters();
      KDeciderOptions options;
      options.state_budget = budget;
      HypertreeWidth(h, 0, options);
      const obs::CounterSnapshot s = obs::SnapshotCounters();
      EXPECT_EQ(s.counter(obs::Counter::kDeciderMemoPoisoned), 0)
          << "budget=" << budget;
      EXPECT_GT(s.counter(obs::Counter::kDeciderStates), 0);
    }
  }
  obs::ResetCounters();
  obs::EnableCounters(false);
}
#endif  // GHD_OBS_ENABLED

}  // namespace
}  // namespace ghd
