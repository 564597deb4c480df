// CoverIndex: the CSRs must mirror the family, and a state's cursor — scored
// prefix, then the lazily read tail — must list exactly the guards touching
// the component in the connected-first order; NegSeparatorCache must be a
// sound (forgetting-only) negative cache.
#include <algorithm>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "core/bip.h"
#include "core/cover_index.h"
#include "core/k_decider.h"
#include "gen/circuits.h"
#include "gen/generators.h"
#include "gen/random_hypergraphs.h"
#include "hypergraph/hypergraph_builder.h"
#include "split_reference.h"
#include "test_instances.h"
#include "util/rng.h"

namespace ghd {
namespace {

Hypergraph PathExample() {
  HypergraphBuilder b;
  b.AddEdge("e0", {"a", "b"});
  b.AddEdge("e1", {"b", "c"});
  b.AddEdge("e2", {"c", "d"});
  b.AddEdge("e3", {"d", "e"});
  return std::move(b).Build();
}

// Every candidate of the cursor, prefix and tail.
std::vector<int> ReadAll(CandidateCursor* cursor) {
  std::vector<int> out;
  for (size_t i = 0; cursor->Has(i); ++i) out.push_back((*cursor)[i]);
  return out;
}

// The order the decider used to sort out of every guard touching v_comp:
// guards meeting conn by descending |g ∩ conn|, then the rest; ties by
// descending |g ∩ v_comp|, then ascending id.
std::vector<int> ReferenceOrder(const GuardFamily& family,
                                const VertexSet& v_comp,
                                const VertexSet& conn) {
  struct Scored {
    int conn_cover;
    int comp_cover;
    int guard;
  };
  std::vector<Scored> scored;
  for (int g = 0; g < family.size(); ++g) {
    const int comp_cover = family.guards[g].IntersectCount(v_comp);
    if (comp_cover == 0) continue;
    scored.push_back(
        Scored{family.guards[g].IntersectCount(conn), comp_cover, g});
  }
  std::sort(scored.begin(), scored.end(), [](const Scored& a, const Scored& b) {
    const bool a_conn = a.conn_cover > 0;
    const bool b_conn = b.conn_cover > 0;
    if (a_conn != b_conn) return a_conn;
    if (a_conn && a.conn_cover != b.conn_cover) {
      return a.conn_cover > b.conn_cover;
    }
    if (a.comp_cover != b.comp_cover) return a.comp_cover > b.comp_cover;
    return a.guard < b.guard;
  });
  std::vector<int> out;
  for (const Scored& s : scored) out.push_back(s.guard);
  return out;
}

TEST(CoverIndexTest, CsrsMirrorTheFamily) {
  const Hypergraph h = AdderHypergraph(4);
  SubedgeClosureOptions options;
  options.max_union_arity = 2;
  const GuardFamily family = BipSubedgeClosure(h, options).family;
  const CoverIndex index(h, family);
  ASSERT_EQ(index.num_guards(), family.size());
  for (int g = 0; g < family.size(); ++g) {
    std::vector<int> want;
    family.guards[g].ForEach([&](int v) { want.push_back(v); });
    const auto got = index.GuardVertices(g);
    EXPECT_EQ(std::vector<int>(got.begin(), got.end()), want) << g;
  }
  for (int v = 0; v < h.num_vertices(); ++v) {
    std::vector<int> want;
    for (int g = 0; g < family.size(); ++g) {
      if (family.guards[g].Test(v)) want.push_back(g);
    }
    const auto got = index.VertexGuards(v);
    EXPECT_EQ(std::vector<int>(got.begin(), got.end()), want) << v;
  }
  // The static order: nonempty guards by (size desc, id asc).
  const std::vector<int32_t>& order = index.static_order();
  for (size_t i = 1; i < order.size(); ++i) {
    const int a = family.guards[order[i - 1]].Count();
    const int b = family.guards[order[i]].Count();
    EXPECT_TRUE(a > b || (a == b && order[i - 1] < order[i])) << i;
  }
}

TEST(CoverIndexTest, ConnectorCoveringGuardsComeFirst) {
  const Hypergraph h = PathExample();
  const GuardFamily family = OriginalEdgesFamily(h);
  const CoverIndex index(h, family);
  // Component = all edges; connector = e2's endpoints {c, d}. Guards that
  // meet the connector (e1, e2, e3) must precede the one that does not (e0),
  // and e2 — covering both connector vertices — must come first of all.
  const VertexSet comp = VertexSet::Full(h.num_edges());
  const VertexSet v_comp = VertexSet::Full(h.num_vertices());
  VertexSet conn(h.num_vertices());
  h.edge(2).ForEach([&](int v) { conn.Set(v); });
  CandidateCursor cursor;
  index.Open(comp, v_comp, conn, &cursor);
  EXPECT_EQ(cursor.prefix_size(), 3u);
  EXPECT_EQ(cursor.read(), 3u);  // nothing of the tail read yet
  EXPECT_EQ(ReadAll(&cursor), (std::vector<int>{2, 1, 3, 0}));
  EXPECT_EQ(cursor.read(), 4u);
}

TEST(CoverIndexTest, TailStaysUnreadUntilAsked) {
  const Hypergraph h = CycleHypergraph(64);
  const GuardFamily family = OriginalEdgesFamily(h);
  const CoverIndex index(h, family);
  CandidateCursor cursor;
  const VertexSet comp = VertexSet::Full(h.num_edges());
  const VertexSet v_comp = VertexSet::Full(h.num_vertices());
  const VertexSet conn(h.num_vertices());
  index.Open(comp, v_comp, conn, &cursor);
  EXPECT_EQ(cursor.prefix_size(), 0u);
  ASSERT_TRUE(cursor.Has(1));
  EXPECT_EQ(cursor[0], 0);
  EXPECT_EQ(cursor[1], 1);
  EXPECT_EQ(cursor.read(), 2u);
  EXPECT_FALSE(cursor.Has(64));
}

// Random states reached the way the decider reaches them — a root
// component, then repeatedly a random guard choice covering the connector
// and one of the child blocks it leaves — all satisfy the state invariant.
// On each, prefix + tail must be the reference order, for hw families,
// closures, and families without parent edges.
TEST(CoverIndexTest, PrefixPlusTailEqualsReferenceOrderOnReachableStates) {
  Rng rng(2024);
  std::vector<Hypergraph> instances = {
      CycleHypergraph(40),       Grid2dHypergraph(4, 5),
      AdderHypergraph(5),        BridgeHypergraph(5),
      TriangleStripHypergraph(9), WindowPathHypergraph(30, 4, 1),
  };
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    instances.push_back(RandomUniformHypergraph(24, 30, 3, seed));
    instances.push_back(MixedArityHypergraph(24, 40, 5, seed));
    // Large enough for deep walks into small components.
    instances.push_back(MixedArityHypergraph(300, 240, 5, seed));
  }
  int states = 0;
  for (const Hypergraph& h : instances) {
    SubedgeClosureOptions closure;
    closure.max_union_arity = 2;
    GuardFamily no_parents = OriginalEdgesFamily(h);
    no_parents.parent_edge.assign(no_parents.size(), -1);
    const std::vector<GuardFamily> families = {
        OriginalEdgesFamily(h), BipSubedgeClosure(h, closure).family,
        no_parents};
    for (const GuardFamily& family : families) {
      const CoverIndex index(h, family);
      CandidateCursor cursor;
      for (int walk = 0; walk < 8; ++walk) {
        VertexSet comp = VertexSet::Full(h.num_edges());
        // Start at a random root component.
        {
          const std::vector<VertexSet> roots =
              ReferenceSplit(h, comp, VertexSet(h.num_vertices()));
          comp = roots[rng.UniformInt(static_cast<int>(roots.size()))];
        }
        VertexSet conn(h.num_vertices());
        for (int depth = 0; depth < 40 && !comp.Empty(); ++depth) {
          const VertexSet v_comp = ReferenceVerticesOf(h, comp);
          index.Open(comp, v_comp, conn, &cursor);
          const std::vector<int> want = ReferenceOrder(family, v_comp, conn);
          EXPECT_EQ(ReadAll(&cursor), want) << "state " << states;
          ++states;
          // Next state: chi = (conn ∪ a random edge of comp) ∩ V(comp),
          // which contains conn, then a random part of what it leaves.
          VertexSet chi = conn;
          const std::vector<int> edges = [&] {
            std::vector<int> e;
            comp.ForEach([&](int x) { e.push_back(x); });
            return e;
          }();
          chi |= h.edge(edges[rng.UniformInt(static_cast<int>(edges.size()))]);
          chi &= v_comp;
          VertexSet rem = comp;
          comp.ForEach([&](int e) {
            if (h.edge(e).IsSubsetOf(chi)) rem.Reset(e);
          });
          const std::vector<VertexSet> parts = ReferenceSplit(h, rem, chi);
          if (parts.empty()) break;
          comp = parts[rng.UniformInt(static_cast<int>(parts.size()))];
          conn = ReferenceVerticesOf(h, comp);
          conn &= chi;
        }
      }
    }
  }
  EXPECT_GT(states, 500);
}

TEST(NegSeparatorCacheTest, InsertThenContains) {
  NegSeparatorCache cache(1 << 6);
  const uint64_t key = NegSeparatorCache::Key(3, 7);
  EXPECT_FALSE(cache.Contains(key));
  cache.Insert(key);
  EXPECT_TRUE(cache.Contains(key));
  // A different pair never aliases to a hit: keys are exact-compared.
  EXPECT_FALSE(cache.Contains(NegSeparatorCache::Key(7, 3)));
}

TEST(NegSeparatorCacheTest, CollisionEvictsInsteadOfLying) {
  // One slot: every insert evicts the previous entry. The cache may forget
  // but must never report a key it does not hold.
  NegSeparatorCache cache(1);
  const uint64_t k1 = NegSeparatorCache::Key(1, 1);
  const uint64_t k2 = NegSeparatorCache::Key(2, 2);
  cache.Insert(k1);
  cache.Insert(k2);
  EXPECT_TRUE(cache.Contains(k2));
  EXPECT_FALSE(cache.Contains(k1));
}

TEST(NegSeparatorCacheTest, KeysAreNonZeroAndDistinct) {
  EXPECT_NE(NegSeparatorCache::Key(0, 0), 0u);
  EXPECT_NE(NegSeparatorCache::Key(0, 1), NegSeparatorCache::Key(1, 0));
}

}  // namespace
}  // namespace ghd
