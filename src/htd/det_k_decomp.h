// Hypertree width via the det-k-decomp normal-form search (Gottlob & Samer):
// for fixed k, hw(H) <= k is polynomial-time decidable. Together with the
// paper's inequality ghw <= hw <= 3*ghw + 1, this module is the polynomial
// constant-factor approximation engine for generalized hypertree width.
#ifndef GHD_HTD_DET_K_DECOMP_H_
#define GHD_HTD_DET_K_DECOMP_H_

#include "core/k_decider.h"
#include "hypergraph/hypergraph.h"

namespace ghd {

/// Decides hw(H) <= k. Positive results carry a validated decomposition of
/// width <= k (a GHD; the normal form guarantees it extends to a hypertree
/// decomposition satisfying the special condition).
KDeciderResult HypertreeWidthAtMost(const Hypergraph& h, int k,
                                    const KDeciderOptions& options = {});

/// A certified floor on hw(H), known before any search and tick-free:
/// max(GhwLowerBound(H), 2 if H is not alpha-acyclic, 1 if H has an edge).
/// Sound because ghw <= hw and hw = 1 exactly on the alpha-acyclic
/// instances; 0 for the empty hypergraph. A ladder started here still stops
/// at the exact hw, and hw(H) <= k is refuted outright when it exceeds k.
int HwLowerBound(const Hypergraph& h);

/// Result of iterating k upward until hw is found.
struct HypertreeWidthResult {
  /// hw(H) when exact, otherwise meaningless.
  int width = 0;
  bool exact = false;
  /// Largest k with hw(H) > k established before stopping (lower bound - 1).
  int last_failed_k = 0;
  /// The k the ladder started from, a bound known before any rung ran:
  /// hw(H) >= lower_bound, since it is HwLowerBound (of the cyclic part the
  /// ladder ran on). A truncated run has
  /// hw(H) >= max(last_failed_k + 1, lower_bound).
  int lower_bound = 0;
  GeneralizedHypertreeDecomposition decomposition;
  long states_visited = 0;
  /// Why the iteration stopped; carried over from the last k-decider run.
  Outcome outcome;
};

/// Computes hw(H) by trying k = lb, lb+1, ..., max_k (max_k <= 0 means up to
/// the number of edges). Stops early on budget exhaustion with exact = false.
/// Alpha-acyclic components are answered by their GYO join tree; on a
/// disconnected h each cyclic component runs its own ladder. The witness is
/// rooted at node 0.
HypertreeWidthResult HypertreeWidth(const Hypergraph& h, int max_k = 0,
                                    const KDeciderOptions& options = {});

}  // namespace ghd

#endif  // GHD_HTD_DET_K_DECOMP_H_
