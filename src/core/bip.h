// The paper's tractable variants: for hypergraph classes with the bounded
// intersection property (any two edges share at most i vertices) — and in
// particular bounded-degree classes — deciding ghw(H) <= k is polynomial for
// fixed k. The mechanism: only polynomially many *subedges* (intersections of
// an edge with unions of few other edges) are relevant as guard fragments, so
// ghw(H) <= k reduces to a width-k search over the subedge closure.
//
// The closure is generated demand-driven: per parent edge e the distinct
// nonempty intersections e ∩ f ("atoms") are unioned by an iterative frontier
// enumeration — every subedge e ∩ (f1 ∪ ... ∪ fj) is a union of at most j
// atoms, so the frontier walks atom combinations instead of edge
// combinations, dedups through the engine-wide SetInterner, and runs under
// the shared Budget governor. Closure generation runs parent edge by parent
// edge; the emitted family is deterministic.
#ifndef GHD_CORE_BIP_H_
#define GHD_CORE_BIP_H_

#include <cstddef>

#include "core/k_decider.h"
#include "hypergraph/hypergraph.h"
#include "util/resource_governor.h"

namespace ghd {

/// Controls subedge-closure generation.
struct SubedgeClosureOptions {
  /// Arity j of the unions: subedges e ∩ (f1 ∪ ... ∪ fj) for distinct edges.
  /// j = k (the target width) is what the tractability argument uses; j = 2
  /// is a cheaper ablation level that already closes most practical gaps.
  int max_union_arity = 2;
  /// Hard cap on the number of guards (defensive; generation stops there and
  /// the result reports ClosureStop::kGuardCap).
  size_t max_guards = 500000;
  /// Drop added subedges that sit strictly inside another *added* subedge
  /// (original edges are never pruned, and never prune anything). A width-k
  /// decomposition whose λ uses a dominated guard g stays valid verbatim
  /// with g replaced by its dominating superset — bags only need covering —
  /// so the decision is unchanged while the λ-enumeration space shrinks.
  /// Decision equivalence against the unpruned closure is exercised by the
  /// randomized differential tests (tests/closure_test.cc).
  bool prune_dominated = true;
  /// Shared resource governor; ticked once per generated candidate. When the
  /// budget fires mid-generation the partial family is returned with
  /// ClosureStop::kBudget (sound for positive answers; negative answers over
  /// a truncated family are not decisions — see BipGhwDecide).
  Budget* budget = nullptr;
};

/// How closure generation ended.
enum class ClosureStop {
  kComplete = 0,  // every candidate enumerated: the family is the closure
  kGuardCap,      // max_guards hit: family truncated, decisions conditional
  kBudget,        // the shared Budget fired: family truncated
  kRankRefusal,   // FullSubedgeClosure refused a rank >= 25 edge up front
};
const char* ClosureStopName(ClosureStop stop);

/// A generated guard family plus how generation ended. `family` is always
/// usable as-is (each guard is a genuine subedge with a valid parent edge);
/// `complete()` says whether it is the *whole* closure — the difference
/// between a real refutation and "nothing found in the part we built".
struct SubedgeClosureResult {
  GuardFamily family;
  ClosureStop stop = ClosureStop::kComplete;
  /// Governor detail: why the budget fired (kBudget), or kGuardCap for the
  /// cap; kNone when complete.
  StopReason stop_reason = StopReason::kNone;
  /// Candidate subedges enumerated (pre-dedup), across all parent edges.
  long candidates_probed = 0;
  /// Guards dropped by dominance pruning (0 unless prune_dominated).
  long dominated_pruned = 0;

  bool complete() const { return stop == ClosureStop::kComplete; }
};

/// Bounded-intersection subedge closure: the original edges plus all distinct
/// nonempty proper subedges e ∩ (f1 ∪ ... ∪ fj), j <= max_union_arity.
/// Under BIP(i) each added guard has at most j*i vertices and the family size
/// is polynomial in the number of edges for fixed j.
SubedgeClosureResult BipSubedgeClosure(const Hypergraph& h,
                                       const SubedgeClosureOptions& options = {});

/// All nonempty subsets of every edge. Exponential in the rank — only for
/// small-rank instances — but makes the width-k search complete for ghw
/// unconditionally. This is the reference oracle used by tests: it is never
/// dominance-pruned. Rank >= 25 edges are refused up front (kRankRefusal);
/// overflowing `max_guards` returns the partial family with kGuardCap.
SubedgeClosureResult FullSubedgeClosure(const Hypergraph& h,
                                        size_t max_guards = 2000000,
                                        Budget* budget = nullptr);

/// Decides ghw(H) <= k over the BIP subedge closure. Sound unconditionally
/// (positive answers carry a validated width-<=k GHD; a negative over a
/// truncated closure comes back decided=false with the closure's stop
/// reason). Complete for bounded-intersection instances when
/// max_union_arity >= k. Closure and decider share one governor: the
/// closure's candidate ticks and the decider's state ticks drain the same
/// budget.
KDeciderResult BipGhwDecide(const Hypergraph& h, int k,
                            const SubedgeClosureOptions& closure = {},
                            const KDeciderOptions& decider = {});

/// Exact GHW through the full subedge closure (the second, independent exact
/// engine next to the ordering branch-and-bound): iterates k upward over the
/// all-subsets guard family, reusing one KLadderContext — interner, cover
/// index, and positive decider states — across the whole k-ladder. Only for
/// small-rank instances; `exact` is false when the closure or state budget
/// is exceeded (`closure_stop` / `stop_reason` say which wall was hit).
struct ClosureGhwResult {
  int width = 0;
  bool exact = false;
  GeneralizedHypertreeDecomposition decomposition;
  long states_visited = 0;
  ClosureStop closure_stop = ClosureStop::kComplete;
  StopReason stop_reason = StopReason::kNone;
};
ClosureGhwResult GhwViaFullClosure(const Hypergraph& h,
                                   size_t max_guards = 2000000,
                                   const KDeciderOptions& decider = {});

}  // namespace ghd

#endif  // GHD_CORE_BIP_H_
