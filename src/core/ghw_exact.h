// Exact generalized hypertree width by branch and bound over elimination
// orderings with exact set covers. Complete because at least one elimination
// ordering, covered exactly, attains ghw(H). Worst-case exponential — the
// paper proves deciding ghw(H) <= 3 is NP-complete, so this is unavoidable
// for a general exact solver (see bench/exact_scaling for the empirical
// curve). Anytime: budget exhaustion yields validated bounds.
#ifndef GHD_CORE_GHW_EXACT_H_
#define GHD_CORE_GHW_EXACT_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "core/ghd.h"
#include "core/ghw_upper.h"
#include "hypergraph/hypergraph.h"
#include "util/resource_governor.h"

namespace ghd {

/// Budgets and switches for the exact GHW search.
struct ExactGhwOptions {
  /// Wall-clock limit in seconds; <= 0 means unlimited. Ignored when
  /// `budget` is set.
  double time_limit_seconds = 0;
  /// Search node limit; <= 0 means unlimited. Ignored when `budget` is set.
  long node_budget = 0;
  /// Shared resource governor (deadline, ticks, memory, cancellation). When
  /// null a private budget is built from the two fields above. Component-wise
  /// solving shares one governor across all components, so the deadline and
  /// node budget are global — not per component.
  Budget* budget = nullptr;
  /// Eliminate simplicial vertices of the primal graph eagerly (optimality
  /// preserving for GHW as for treewidth).
  bool use_simplicial_reduction = true;
  /// Randomized heuristic restarts for the initial incumbent.
  int heuristic_restarts = 4;
  uint64_t seed = 1;
  /// Stop as soon as the incumbent width is <= this value (0 = disabled);
  /// used by the decision procedure.
  int stop_at_width = 0;
};

/// Search outcome; `exact` means the ordering space was exhausted, in which
/// case lower_bound == upper_bound == ghw(H). `best_ghd` witnesses the upper
/// bound and always validates. `outcome` reports why a non-exact search
/// stopped; its stop_reason is kNone when the search ended early because the
/// incumbent reached `stop_at_width` (an answer, not a resource failure).
struct ExactGhwResult {
  int lower_bound = 0;
  int upper_bound = 0;
  bool exact = false;
  /// Elimination ordering witnessing upper_bound (covered exactly); always
  /// populated for nonempty hypergraphs.
  std::vector<int> best_ordering;
  GeneralizedHypertreeDecomposition best_ghd;
  long nodes_visited = 0;
  Outcome outcome;
};

/// Computes ghw(H) (or bounds, under budget).
ExactGhwResult ExactGhw(const Hypergraph& h, const ExactGhwOptions& options = {});

/// Decision procedure: ghw(H) <= k? nullopt when the budget ran out first.
std::optional<bool> GhwAtMost(const Hypergraph& h, int k,
                              const ExactGhwOptions& options = {});

/// Solves each connected component independently (ghw of a disconnected
/// hypergraph is the max over its components) and stitches the witnesses
/// back together. Equal answers to ExactGhw, often far faster on
/// multi-component inputs; `exact` requires every component to finish.
ExactGhwResult ExactGhwComponentwise(const Hypergraph& h,
                                     const ExactGhwOptions& options = {});

namespace internal {

/// ExactGhwComponentwise for a caller that already holds a lower bound on
/// ghw(h) and an incumbent (a GhwFromOrdering result on h with exact covers)
/// — AnytimeGhw's rungs 1 and 3. On a connected h the search starts from
/// them instead of computing GhwLowerBound and its own warm start, and
/// covers bags through the caller's `memo` (exact covers of h; null = a memo
/// of this search). None of them is per component, so a disconnected h is
/// solved as ExactGhwComponentwise solves it.
ExactGhwResult ExactGhwSeeded(const Hypergraph& h,
                              const ExactGhwOptions& options, int lower_bound,
                              GhwUpperBoundResult incumbent,
                              CoverMemo* memo = nullptr);

}  // namespace internal

}  // namespace ghd

#endif  // GHD_CORE_GHW_EXACT_H_
