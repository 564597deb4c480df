#include <algorithm>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/bip.h"
#include "core/ghw_exact.h"
#include "gen/circuits.h"
#include "gen/generators.h"
#include "gen/random_hypergraphs.h"
#include "gtest/gtest.h"
#include "hypergraph/hypergraph_builder.h"
#include "hypergraph/stats.h"
#include "test_instances.h"

namespace ghd {
namespace {

TEST(SubedgeClosureTest, ContainsOriginalEdges) {
  Hypergraph h = AdderHypergraph(2);
  SubedgeClosureResult r = BipSubedgeClosure(h);
  EXPECT_TRUE(r.complete());
  const GuardFamily& f = r.family;
  ASSERT_GE(f.size(), h.num_edges());
  for (int e = 0; e < h.num_edges(); ++e) {
    EXPECT_EQ(f.guards[e], h.edge(e));
  }
  EXPECT_TRUE(f.HasParents());
}

TEST(SubedgeClosureTest, GuardsAreSubedgesOfParents) {
  Hypergraph h = RandomUniformHypergraph(12, 8, 4, 3);
  const GuardFamily f = BipSubedgeClosure(h).family;
  for (int g = 0; g < f.size(); ++g) {
    EXPECT_TRUE(f.guards[g].IsSubsetOf(h.edge(f.parent_edge[g])));
    EXPECT_FALSE(f.guards[g].Empty());
  }
}

TEST(SubedgeClosureTest, NoDuplicateGuards) {
  Hypergraph h = RandomUniformHypergraph(10, 8, 3, 9);
  const GuardFamily f = BipSubedgeClosure(h).family;
  for (int a = 0; a < f.size(); ++a) {
    for (int b = a + 1; b < f.size(); ++b) {
      EXPECT_NE(f.guards[a], f.guards[b]) << a << " vs " << b;
    }
  }
}

// At union arity 1 without pruning, the closure is the original edges, then
// each parent e's distinct atoms e ∩ f (nonempty, not e itself) in ascending
// partner f, kept on first occurrence. Built here from the edges' VertexSets
// by a full pairwise sweep; the library gathers the partners from the vertex
// CSR and merges sorted rows, and must give the same family in the same
// order with the same probe count.
TEST(SubedgeClosureTest, ArityOneMatchesPairwiseSweep) {
  std::vector<Hypergraph> instances = {AdderHypergraph(3),
                                       TriangleStripHypergraph(6)};
  {
    // Nested edges: a ⊂ b and a duplicate of b, so some e ∩ f equal e.
    HypergraphBuilder b;
    b.AddEdge("a", {"x", "y"});
    b.AddEdge("b", {"x", "y", "z"});
    b.AddEdge("c", {"z", "w", "x"});
    b.AddEdge("d", {"x", "y", "z"});
    instances.push_back(std::move(b).Build());
  }
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    instances.push_back(MixedArityHypergraph(40, 30, 6, seed));
    instances.push_back(RandomUniformHypergraph(130, 60, 5, seed));
  }
  for (size_t i = 0; i < instances.size(); ++i) {
    const Hypergraph& h = instances[i];
    GuardFamily want = OriginalEdgesFamily(h);
    std::unordered_set<VertexSet, VertexSetHash> in_family(
        h.edges().begin(), h.edges().end());
    long probed = 0;
    for (int e = 0; e < h.num_edges(); ++e) {
      std::unordered_set<VertexSet, VertexSetHash> atoms;
      for (int f = 0; f < h.num_edges(); ++f) {
        if (f == e) continue;
        const VertexSet cut = h.edge(e) & h.edge(f);
        if (cut.Empty() || cut == h.edge(e) || !atoms.insert(cut).second) {
          continue;
        }
        ++probed;
        if (in_family.insert(cut).second) {
          want.guards.push_back(cut);
          want.parent_edge.push_back(e);
        }
      }
    }
    SubedgeClosureOptions options;
    options.max_union_arity = 1;
    options.prune_dominated = false;
    const SubedgeClosureResult got = BipSubedgeClosure(h, options);
    EXPECT_TRUE(got.complete()) << "instance " << i;
    EXPECT_EQ(got.family.guards, want.guards) << "instance " << i;
    EXPECT_EQ(got.family.parent_edge, want.parent_edge) << "instance " << i;
    EXPECT_EQ(got.candidates_probed, probed) << "instance " << i;
  }
}

TEST(SubedgeClosureTest, DisjointEdgesAddNothing) {
  HypergraphBuilder b;
  b.AddEdge("e1", {"a", "b"});
  b.AddEdge("e2", {"c", "d"});
  Hypergraph h = std::move(b).Build();
  SubedgeClosureResult r = BipSubedgeClosure(h);
  EXPECT_TRUE(r.complete());
  EXPECT_EQ(r.family.size(), 2);  // no nonempty proper intersections
}

TEST(SubedgeClosureTest, HigherArityAddsMoreGuards) {
  Hypergraph h = RandomUniformHypergraph(14, 10, 4, 5);
  SubedgeClosureOptions a1, a2;
  a1.max_union_arity = 1;
  a2.max_union_arity = 2;
  // Compare raw closures: pruning can shrink the higher-arity family below
  // the lower-arity one (a new union dominates its own atoms).
  a1.prune_dominated = false;
  a2.prune_dominated = false;
  EXPECT_LE(BipSubedgeClosure(h, a1).family.size(),
            BipSubedgeClosure(h, a2).family.size());
}

TEST(SubedgeClosureTest, RespectsCap) {
  Hypergraph h = RandomUniformHypergraph(20, 15, 4, 2);
  SubedgeClosureOptions options;
  options.max_guards = 20;
  SubedgeClosureResult r = BipSubedgeClosure(h, options);
  EXPECT_LE(r.family.size(), 20);
  if (!r.complete()) {
    EXPECT_EQ(r.stop, ClosureStop::kGuardCap);
    EXPECT_EQ(r.stop_reason, StopReason::kGuardCap);
  }
}

TEST(SubedgeClosureTest, BipBoundsGuardSizes) {
  // Under BIP(i) with union arity j, added guards have <= j*i vertices.
  const int i = 1, j = 2;
  Hypergraph h = RandomBoundedIntersectionHypergraph(20, 10, 3, i, 7);
  ASSERT_LE(IntersectionWidth(h), i);
  SubedgeClosureOptions options;
  options.max_union_arity = j;
  const GuardFamily f = BipSubedgeClosure(h, options).family;
  for (int g = h.num_edges(); g < f.size(); ++g) {
    EXPECT_LE(f.guards[g].Count(), j * i);
  }
}

TEST(FullSubedgeClosureTest, CountsAllSubsets) {
  HypergraphBuilder b;
  b.AddEdge("e1", {"a", "b", "c"});
  b.AddEdge("e2", {"c", "d"});
  Hypergraph h = std::move(b).Build();
  SubedgeClosureResult r = FullSubedgeClosure(h);
  EXPECT_TRUE(r.complete());
  // Subsets: 7 of e1 + 3 of e2, minus the shared {c} counted once: 9.
  EXPECT_EQ(r.family.size(), 9);
}

TEST(FullSubedgeClosureTest, RefusesHugeRank) {
  std::vector<std::string> names;
  for (int i = 0; i < 30; ++i) names.push_back("v" + std::to_string(i));
  HypergraphBuilder b;
  b.AddEdge("big", names);
  Hypergraph h = std::move(b).Build();
  SubedgeClosureResult r = FullSubedgeClosure(h);
  EXPECT_EQ(r.family.size(), 0);
  EXPECT_EQ(r.stop, ClosureStop::kRankRefusal);
}

TEST(BipGhwDecideTest, SoundOnStructuredFamilies) {
  // BIP decision is sound: a positive answer implies ghw <= k.
  Hypergraph adder = AdderHypergraph(3);
  KDeciderResult r = BipGhwDecide(adder, 2);
  ASSERT_TRUE(r.decided);
  EXPECT_TRUE(r.exists);
  EXPECT_TRUE(r.decomposition.Validate(adder).ok());
  EXPECT_LE(r.decomposition.Width(), 2);
}

TEST(BipGhwDecideTest, MatchesExactGhwOnBipInstances) {
  // On bounded-intersection instances the closure decision should match the
  // ordering-based exact GHW (completeness of the tractable variant).
  for (uint64_t seed = 0; seed < 10; ++seed) {
    Hypergraph h = RandomBoundedIntersectionHypergraph(12, 8, 3, 1, seed);
    ExactGhwResult exact = ExactGhw(h);
    ASSERT_TRUE(exact.exact) << seed;
    SubedgeClosureOptions closure;
    closure.max_union_arity = 3;
    for (int k = std::max(1, exact.upper_bound - 1);
         k <= exact.upper_bound + 1; ++k) {
      KDeciderResult r = BipGhwDecide(h, k, closure);
      ASSERT_TRUE(r.decided) << seed << " k=" << k;
      EXPECT_EQ(r.exists, k >= exact.upper_bound)
          << "seed=" << seed << " k=" << k << " ghw=" << exact.upper_bound;
    }
  }
}

TEST(BipGhwDecideTest, NeverClaimsBelowGhw) {
  // Soundness on arbitrary (non-BIP) instances: exists => ghw <= k.
  for (uint64_t seed = 50; seed < 58; ++seed) {
    Hypergraph h = RandomUniformHypergraph(10, 7, 4, seed);
    ExactGhwResult exact = ExactGhw(h);
    ASSERT_TRUE(exact.exact);
    if (exact.upper_bound >= 2) {
      KDeciderResult r = BipGhwDecide(h, exact.upper_bound - 1);
      ASSERT_TRUE(r.decided);
      EXPECT_FALSE(r.exists) << seed;
    }
  }
}

TEST(BoundedDegreeTest, GeneratorRespectsDegree) {
  Hypergraph h = RandomBoundedDegreeHypergraph(30, 15, 3, 2, 3);
  EXPECT_LE(h.MaxDegree(), 2);
  // Degree-bounded instances have bounded multi-intersections:
  // any 3 distinct edges meet in at most... with degree 2 they meet in 0.
  EXPECT_EQ(MultiIntersectionWidth(h, 3), 0);
}

TEST(BoundedIntersectionTest, GeneratorRespectsBound) {
  for (int i = 1; i <= 2; ++i) {
    Hypergraph h = RandomBoundedIntersectionHypergraph(24, 10, 4, i, 11);
    EXPECT_LE(IntersectionWidth(h), i) << i;
  }
  // i = 0 forces pairwise-disjoint edges: needs m * arity <= n.
  Hypergraph disjoint = RandomBoundedIntersectionHypergraph(45, 10, 4, 0, 11);
  EXPECT_EQ(IntersectionWidth(disjoint), 0);
}

}  // namespace
}  // namespace ghd
