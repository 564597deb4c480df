// Differential and fault-injection tests for the demand-driven subedge
// closure (core/bip.cc) and the k-ladder context (core/k_decider.cc).
//
// The lazy frontier enumerator is checked against an eager reference
// implementation written the way the original recursive EmitUnions worked:
// for every parent edge e, recurse over all unions of up to j distinct other
// edges and collect the distinct nonempty proper intersections. The reference
// is exponential-ish but obviously correct, which is the point.

#include <algorithm>
#include <set>
#include <vector>

#include "core/bip.h"
#include "core/ghw_exact.h"
#include "gen/random_hypergraphs.h"
#include "gtest/gtest.h"
#include "hypergraph/hypergraph_builder.h"
#include "obs/obs.h"
#include "util/bitset.h"

namespace ghd {
namespace {

// Eager reference closure: recursive union enumeration over edge
// combinations, mirroring the pre-frontier implementation's semantics.
void EagerEmitUnions(const Hypergraph& h, int e, const VertexSet& acc,
                     int from, int remaining, std::set<VertexSet>* out) {
  VertexSet sub = h.edge(e);
  sub &= acc;
  if (!sub.Empty() && sub != h.edge(e)) out->insert(sub);
  if (remaining == 0) return;
  for (int f = from; f < h.num_edges(); ++f) {
    if (f == e) continue;
    VertexSet next = acc;
    next |= h.edge(f);
    EagerEmitUnions(h, e, next, f + 1, remaining - 1, out);
  }
}

// The full eager closure as a set: original edges plus every distinct
// nonempty proper subedge e ∩ (f1 ∪ ... ∪ fj), j <= arity.
std::set<VertexSet> EagerClosure(const Hypergraph& h, int arity) {
  std::set<VertexSet> out;
  for (int e = 0; e < h.num_edges(); ++e) out.insert(h.edge(e));
  for (int e = 0; e < h.num_edges(); ++e) {
    EagerEmitUnions(h, e, VertexSet(h.num_vertices()), 0, arity, &out);
  }
  return out;
}

std::set<VertexSet> AsSet(const GuardFamily& f) {
  return std::set<VertexSet>(f.guards.begin(), f.guards.end());
}

TEST(ClosureDifferentialTest, LazyMatchesEagerReference) {
  for (uint64_t seed = 0; seed < 12; ++seed) {
    Hypergraph h = seed % 2 == 0
                       ? RandomUniformHypergraph(12, 9, 4, seed)
                       : RandomBoundedIntersectionHypergraph(14, 9, 4, 2, seed);
    for (int arity = 1; arity <= 3; ++arity) {
      SubedgeClosureOptions options;
      options.max_union_arity = arity;
      options.prune_dominated = false;  // raw closure vs raw reference
      SubedgeClosureResult lazy = BipSubedgeClosure(h, options);
      ASSERT_TRUE(lazy.complete()) << seed << " arity=" << arity;
      EXPECT_EQ(AsSet(lazy.family), EagerClosure(h, arity))
          << "seed=" << seed << " arity=" << arity;
      for (int g = 0; g < lazy.family.size(); ++g) {
        ASSERT_TRUE(
            lazy.family.guards[g].IsSubsetOf(h.edge(lazy.family.parent_edge[g])))
            << seed;
      }
    }
  }
}

TEST(ClosureDifferentialTest, LazyMatchesEagerAcrossWordBoundaries) {
  // 63 / 64 / 65 vertices straddle the inline-word boundary of VertexSet; the
  // frontier enumerator must agree with the reference on all three.
  for (int n : {63, 64, 65}) {
    for (uint64_t seed = 0; seed < 4; ++seed) {
      Hypergraph h = RandomUniformHypergraph(n, 10, 6, seed + n);
      SubedgeClosureOptions options;
      options.max_union_arity = 2;
      options.prune_dominated = false;
      SubedgeClosureResult lazy = BipSubedgeClosure(h, options);
      ASSERT_TRUE(lazy.complete()) << n << "/" << seed;
      EXPECT_EQ(AsSet(lazy.family), EagerClosure(h, 2))
          << "n=" << n << " seed=" << seed;
    }
  }
}

TEST(ClosurePruningTest, OnlyMaximalAddedGuardsSurvive) {
  for (uint64_t seed = 20; seed < 26; ++seed) {
    Hypergraph h = RandomUniformHypergraph(13, 9, 4, seed);
    SubedgeClosureOptions raw, pruned;
    raw.max_union_arity = pruned.max_union_arity = 2;
    raw.prune_dominated = false;
    pruned.prune_dominated = true;
    SubedgeClosureResult a = BipSubedgeClosure(h, raw);
    SubedgeClosureResult b = BipSubedgeClosure(h, pruned);
    ASSERT_TRUE(a.complete());
    ASSERT_TRUE(b.complete());
    // Originals are never pruned.
    for (int e = 0; e < h.num_edges(); ++e) {
      EXPECT_EQ(b.family.guards[e], h.edge(e));
    }
    // No added guard sits strictly inside another added guard.
    for (int x = h.num_edges(); x < b.family.size(); ++x) {
      for (int y = h.num_edges(); y < b.family.size(); ++y) {
        if (x == y) continue;
        EXPECT_FALSE(b.family.guards[x].IsSubsetOf(b.family.guards[y]))
            << seed << ": guard " << x << " dominated by " << y;
      }
    }
    // The accounting adds up and pruning only removes.
    EXPECT_EQ(b.dominated_pruned, a.family.size() - b.family.size()) << seed;
    std::set<VertexSet> raw_set = AsSet(a.family);
    for (const VertexSet& g : b.family.guards) {
      EXPECT_EQ(raw_set.count(g), 1u) << seed;
    }
  }
}

TEST(ClosurePruningTest, PrunedDecisionMatchesUnpruned) {
  // The decision-equivalence contract from core/bip.h: replacing a dominated
  // guard by its dominating superset preserves width-k decompositions, so
  // pruning must never change the verdict. Exercised across random instances
  // and every k near the true width.
  for (uint64_t seed = 0; seed < 10; ++seed) {
    Hypergraph h = seed % 2 == 0
                       ? RandomUniformHypergraph(11, 8, 4, seed + 100)
                       : RandomBoundedIntersectionHypergraph(12, 8, 3, 1, seed);
    for (int k = 1; k <= 3; ++k) {
      SubedgeClosureOptions raw, pruned;
      raw.max_union_arity = pruned.max_union_arity = k;
      raw.prune_dominated = false;
      pruned.prune_dominated = true;
      KDeciderResult a = BipGhwDecide(h, k, raw);
      KDeciderResult b = BipGhwDecide(h, k, pruned);
      ASSERT_TRUE(a.decided) << seed << " k=" << k;
      ASSERT_TRUE(b.decided) << seed << " k=" << k;
      EXPECT_EQ(a.exists, b.exists) << seed << " k=" << k;
      if (b.exists) {
        EXPECT_TRUE(b.decomposition.Validate(h).ok()) << seed << " k=" << k;
        EXPECT_LE(b.decomposition.Width(), k) << seed << " k=" << k;
      }
    }
  }
}

TEST(ClosureFaultInjectionTest, TruncationNeverFlipsTheDecision) {
  // Sweep the budget failure point across the whole run. A truncated run may
  // come back undecided (with a stop reason), but a decided answer must match
  // the unbudgeted reference at every injection point.
  Hypergraph h = RandomUniformHypergraph(11, 8, 4, 42);
  for (int k = 1; k <= 2; ++k) {
    SubedgeClosureOptions reference_options;
    reference_options.max_union_arity = 2;
    KDeciderResult reference = BipGhwDecide(h, k, reference_options);
    ASSERT_TRUE(reference.decided);
    for (long ticks = 1; ticks <= 20000; ticks = ticks * 3 + 1) {
      Budget budget;
      budget.InjectFailureAfter(ticks);
      SubedgeClosureOptions closure;
      closure.max_union_arity = 2;
      closure.budget = &budget;
      KDeciderResult r = BipGhwDecide(h, k, closure);
      if (r.decided) {
        EXPECT_EQ(r.exists, reference.exists) << "k=" << k << " t=" << ticks;
        if (r.exists) {
          EXPECT_TRUE(r.decomposition.Validate(h).ok());
          EXPECT_LE(r.decomposition.Width(), k);
        }
      } else {
        EXPECT_NE(r.outcome.stop_reason, StopReason::kNone)
            << "k=" << k << " t=" << ticks;
      }
    }
  }
}

TEST(ClosureFaultInjectionTest, TruncatedClosureReportsStopAndStaysValid) {
  Hypergraph h = RandomUniformHypergraph(16, 12, 5, 7);
  bool saw_truncation = false;
  for (long ticks = 1; ticks <= 5000; ticks = ticks * 2 + 1) {
    Budget budget;
    budget.InjectFailureAfter(ticks);
    SubedgeClosureOptions options;
    options.max_union_arity = 3;
    options.budget = &budget;
    SubedgeClosureResult r = BipSubedgeClosure(h, options);
    if (!r.complete()) {
      saw_truncation = true;
      EXPECT_EQ(r.stop, ClosureStop::kBudget) << ticks;
      EXPECT_NE(r.stop_reason, StopReason::kNone) << ticks;
    }
    // Whatever came back is a well-formed family: genuine nonempty subedges.
    for (int g = 0; g < r.family.size(); ++g) {
      ASSERT_FALSE(r.family.guards[g].Empty());
      ASSERT_TRUE(
          r.family.guards[g].IsSubsetOf(h.edge(r.family.parent_edge[g])));
    }
  }
  EXPECT_TRUE(saw_truncation);  // the sweep must actually hit the window
}

TEST(ClosureStopReasonTest, GuardCapAndBudgetAreDistinguishable) {
  Hypergraph h = RandomUniformHypergraph(20, 14, 5, 3);
  SubedgeClosureOptions capped;
  capped.max_union_arity = 3;
  capped.max_guards = 25;
  SubedgeClosureResult a = BipSubedgeClosure(h, capped);
  ASSERT_FALSE(a.complete());
  EXPECT_EQ(a.stop, ClosureStop::kGuardCap);
  EXPECT_EQ(a.stop_reason, StopReason::kGuardCap);

  Budget budget;
  budget.SetTickBudget(30);
  SubedgeClosureOptions tight;
  tight.max_union_arity = 3;
  tight.budget = &budget;
  SubedgeClosureResult b = BipSubedgeClosure(h, tight);
  ASSERT_FALSE(b.complete());
  EXPECT_EQ(b.stop, ClosureStop::kBudget);
  EXPECT_NE(b.stop_reason, StopReason::kGuardCap);
}

TEST(ClosureStopReasonTest, FullClosureThreadsStopReasons) {
  // Rank refusal and guard cap must be distinguishable on FullSubedgeClosure.
  {
    std::vector<std::string> names;
    for (int i = 0; i < 30; ++i) names.push_back("v" + std::to_string(i));
    HypergraphBuilder b;
    b.AddEdge("big", names);
    SubedgeClosureResult r = FullSubedgeClosure(std::move(b).Build());
    EXPECT_EQ(r.stop, ClosureStop::kRankRefusal);
  }
  {
    Hypergraph h = RandomUniformHypergraph(20, 6, 10, 5);
    SubedgeClosureResult r = FullSubedgeClosure(h, /*max_guards=*/50);
    ASSERT_FALSE(r.complete());
    EXPECT_EQ(r.stop, ClosureStop::kGuardCap);
    EXPECT_LE(r.family.size(), 50);
  }
}

TEST(KLadderTest, ReuseMatchesFreshCallsAndNeverPoisonsTheMemo) {
  obs::EnableCounters(true);
  obs::ResetCounters();
  for (uint64_t seed = 30; seed < 36; ++seed) {
    Hypergraph h = RandomUniformHypergraph(10, 7, 3, seed);
    SubedgeClosureResult closure = FullSubedgeClosure(h);
    ASSERT_TRUE(closure.complete());
    const GuardFamily& family = closure.family;
    KLadderContext ladder(h, family);
    size_t last_positive = 0;
    for (int k = 1; k <= 3; ++k) {
      KDeciderResult fresh = DecideWidthK(h, family, k);
      KDeciderResult shared = DecideWidthK(h, family, k, {}, &ladder);
      ASSERT_TRUE(fresh.decided) << seed << " k=" << k;
      ASSERT_TRUE(shared.decided) << seed << " k=" << k;
      EXPECT_EQ(fresh.exists, shared.exists) << seed << " k=" << k;
      if (shared.exists) {
        EXPECT_TRUE(shared.decomposition.Validate(h).ok());
        EXPECT_LE(shared.decomposition.Width(), k);
      }
      // Positive states are monotone across rungs — carried, never dropped.
      EXPECT_GE(ladder.positive_states(), last_positive) << seed << " k=" << k;
      last_positive = ladder.positive_states();
    }
    EXPECT_GT(ladder.interned_sets(), 0u) << seed;
  }
  // The whole ladder sweep must never have memoized an unsound negative.
  EXPECT_EQ(obs::SnapshotCounters().counter(obs::Counter::kDeciderMemoPoisoned),
            0);
  obs::ResetCounters();
  obs::EnableCounters(false);
}

TEST(KLadderTest, GhwViaFullClosureStillExact) {
  // GhwViaFullClosure now drives the whole k-ladder through one context; it
  // must still agree with the independent branch-and-bound engine.
  for (uint64_t seed = 60; seed < 66; ++seed) {
    Hypergraph h = RandomUniformHypergraph(10, 7, 4, seed);
    ExactGhwResult exact = ExactGhw(h);
    ASSERT_TRUE(exact.exact) << seed;
    ClosureGhwResult closure = GhwViaFullClosure(h);
    ASSERT_TRUE(closure.exact) << seed;
    EXPECT_EQ(closure.width, exact.upper_bound) << seed;
    EXPECT_TRUE(closure.decomposition.Validate(h).ok()) << seed;
  }
}

}  // namespace
}  // namespace ghd
