// Width-k decomposition decider over an explicit guard family, in the style
// of det-k-decomp (Gottlob & Samer): recursively separate the hypergraph's
// edge components with bags of the form var(λ) ∩ V(component), λ a set of at
// most k guards, memoizing (component, connector) states.
//
// One engine, three instantiations (all used by the paper's results):
//  * guards = original hyperedges            -> decides hw(H) <= k
//    (complete by the Gottlob-Leone-Scarcello normal form theorem);
//  * guards = bounded subedge closure        -> decides ghw(H) <= k for
//    bounded-intersection classes (the paper's tractable variants);
//  * guards = edges of G, k = 1              -> decides the tree projection
//    problem TP(H, G) ("is there a tree decomposition of H all of whose bags
//    fit inside edges of G?"); with G = H^[k] this is the paper's
//    characterization of ghw(H) <= k.
#ifndef GHD_CORE_K_DECIDER_H_
#define GHD_CORE_K_DECIDER_H_

#include <cstddef>
#include <memory>
#include <vector>

#include "core/ghd.h"
#include "hypergraph/hypergraph.h"
#include "util/bitset.h"
#include "util/resource_governor.h"

namespace ghd {

/// A family of candidate guard sets. When `parent_edge[i]` >= 0, guard i must
/// be a subset of that original hyperedge, and found decompositions map back
/// to GHDs of H whose λ uses original edges. Families with parent_edge = -1
/// (e.g. tree-projection targets) still yield valid tree decompositions, but
/// no λ-labels.
struct GuardFamily {
  std::vector<VertexSet> guards;
  std::vector<int> parent_edge;

  int size() const { return static_cast<int>(guards.size()); }
  /// True when every guard maps into an original edge.
  bool HasParents() const {
    for (int p : parent_edge) {
      if (p < 0) return false;
    }
    return true;
  }
};

/// The trivial family: the hyperedges of h themselves.
GuardFamily OriginalEdgesFamily(const Hypergraph& h);

/// Budget knobs for the decider. The search runs on the calling thread.
struct KDeciderOptions {
  /// Limit on visited (component, connector) states plus λ evaluations;
  /// <= 0 means unlimited. Ignored when `budget` is set — the shared
  /// governor's limits apply instead.
  long state_budget = 0;
  /// Shared resource governor (deadline, ticks, memory, cancellation). When
  /// null the decider runs under a private budget built from `state_budget`.
  Budget* budget = nullptr;
};

/// Decision outcome. When `decided && exists`, `decomposition` holds the
/// found tree (bags and tree edges always); its guards are original edge ids
/// and the whole structure is a validated GHD iff `guards_valid` (i.e. the
/// family had parent edges). `outcome` reports how the search ended;
/// `decided` means the answer is trustworthy — either the search space was
/// exhausted (`outcome.complete`), or a complete positive witness was found
/// before the budget fired (truncation can delay an answer, never flip it).
struct KDeciderResult {
  bool decided = false;
  bool exists = false;
  bool guards_valid = false;
  GeneralizedHypertreeDecomposition decomposition;
  long states_visited = 0;
  Outcome outcome;
};

namespace internal {
struct LadderState;  // defined in k_decider.cc
}

/// Counts from one KLadderContext::Rebind sweep: how many memo entries of
/// each kind survived the delta and how many were invalidated. "sep" is the
/// negative-separator cache; it only exists when persistent negatives are
/// armed.
struct RebindStats {
  size_t pos_retained = 0;
  size_t pos_dropped = 0;
  size_t neg_retained = 0;
  size_t neg_dropped = 0;
  size_t sep_retained = 0;
  size_t sep_dropped = 0;
};

/// Shared, reusable search state for a *k-ladder*: a sequence of DecideWidthK
/// calls over the same hypergraph and guard family with nondecreasing k (the
/// hw iteration, GhwViaFullClosure, the anytime det-k rung). Three structures
/// are built once and reused across every rung instead of per call:
///
///  * the SetInterner holding every component/connector/separator set (ids
///    stay stable across rungs, so memo keys carry over);
///  * the CoverIndex (guard/vertex CSRs + the static candidate order — the
///    family does not change with k), whose build also checks that every
///    guard lies inside its parent edge;
///  * the *positive* state memo: a (component, connector) state decided
///    decomposable at width k stays decomposable at every k' >= k (its
///    subtree has width <= k <= k'), so positive entries are monotone in k
///    and sound to reuse. Negative results are k-specific and stay in the
///    per-call memo, discarded between rungs — reusing one would be exactly
///    the unsound cross-k poisoning the decider_memo_poisoned sentinel
///    guards against.
///
/// Passing the context to DecideWidthK with a *smaller* k than an earlier
/// call is a programming error (positive carry would claim width-k' trees at
/// width k < k') and is checked.
class KLadderContext {
 public:
  /// Builds the interner and cover index for (h, family); both must outlive
  /// the context.
  KLadderContext(const Hypergraph& h, const GuardFamily& family);
  /// The same context. The third argument, once a thread count, is ignored;
  /// the overload keeps callers that still pass one compiling.
  KLadderContext(const Hypergraph& h, const GuardFamily& family, int ignored);
  ~KLadderContext();

  KLadderContext(const KLadderContext&) = delete;
  KLadderContext& operator=(const KLadderContext&) = delete;

  /// Canonical sets interned so far (stats/tests).
  size_t interned_sets() const;
  /// Positive states carried across rungs so far (stats/tests).
  size_t positive_states() const;
  /// Largest k decided through this context so far (0 before the first call).
  int max_k() const;
  /// Negative states currently persisted across calls (0 unless
  /// PersistNegatives was armed; stats/tests).
  size_t negative_states() const;

  /// Arms per-k persistent negative stores: each DecideWidthK call through
  /// this context reads and extends a negative memo + negative-separator
  /// cache keyed by its *exact* k, instead of per-call scratch structures. A
  /// refutation at width k is a property of (h, family, k) alone, so reusing
  /// it in a later call at the same k is sound — the cross-k reuse that the
  /// decider_memo_poisoned sentinel forbids never happens because the stores
  /// are segregated by k. This is what makes repeated same-k asks (the
  /// incremental solver's workload) profitable on no-instances.
  void PersistNegatives();

  /// Re-targets the context at a mutated version of its hypergraph, keeping
  /// every memo entry whose component avoids the delta's dirty region and
  /// dropping the rest. Soundness (see core/incremental.h for the full
  /// argument): `dirty_edges` is a bitset over the *old* edge universe that
  /// contains every removed edge and every edge touching a dirty vertex; a
  /// state whose component avoids it has clean component vertices, hence an
  /// unchanged candidate guard set, hence the same decision — positive
  /// witnesses and same-k refutations both carry over with edge ids
  /// renumbered through `edge_map` (old id -> new id, -1 when removed).
  ///
  /// Requirements: `new_h` has the same vertex universe; `new_family` is the
  /// original-edges family of `new_h` (guard ids == edge ids — the only
  /// family shape whose guards `edge_map` can renumber); both outlive the
  /// context. Subsequent DecideWidthK calls must pass exactly (`new_h`,
  /// `new_family`).
  RebindStats Rebind(const Hypergraph& new_h, const GuardFamily& new_family,
                     const VertexSet& dirty_edges,
                     const std::vector<int>& edge_map);

 private:
  friend KDeciderResult DecideWidthK(const Hypergraph& h,
                                     const GuardFamily& family, int k,
                                     const KDeciderOptions& options,
                                     KLadderContext* ladder);
  std::unique_ptr<internal::LadderState> state_;
};

/// Decides whether H admits a (normal form) decomposition of width <= k with
/// guards from `family`. Soundness is unconditional: a positive answer comes
/// with a validated decomposition. Completeness holds whenever the family is
/// rich enough for the normal form (original edges for hw; a sufficient
/// subedge closure for ghw — see core/bip.h). When `ladder` is non-null the
/// call reuses (and extends) the shared interner, cover index, and positive
/// memo — `ladder` must have been built for the same h and family, and k must
/// be nondecreasing across the calls sharing it.
KDeciderResult DecideWidthK(const Hypergraph& h, const GuardFamily& family,
                            int k, const KDeciderOptions& options = {},
                            KLadderContext* ladder = nullptr);

}  // namespace ghd

#endif  // GHD_CORE_K_DECIDER_H_
