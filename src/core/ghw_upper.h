// GHW upper bounds from elimination orderings: bucket elimination on the
// primal graph produces the bags, set covering produces the λ-labels. With
// exact covers, at least one ordering attains ghw(H) exactly, which makes the
// ordering space a complete search space (used by core/ghw_exact.h).
#ifndef GHD_CORE_GHW_UPPER_H_
#define GHD_CORE_GHW_UPPER_H_

#include <vector>

#include "core/ghd.h"
#include "hypergraph/hypergraph.h"
#include "td/ordering_heuristics.h"
#include "util/rng.h"

namespace ghd {

/// How λ-labels are computed from bags.
enum class CoverMode {
  kGreedy,  // Chvátal greedy (fast, may overshoot)
  kExact,   // branch-and-bound minimum cover
};

/// A GHW upper bound together with its witnessing decomposition and the
/// elimination ordering that produced it.
struct GhwUpperBoundResult {
  int width = 0;
  GeneralizedHypertreeDecomposition ghd;
  std::vector<int> ordering;
};

/// A λ-label for `bag`: ids of hyperedges of h whose union contains it.
/// Only the edges that meet the bag take part, found through the flat vertex
/// CSR and restricted to the bag's own vertices. Local ids keep ascending
/// vertex and edge order and map back to edge ids, so greedy tie-breaks, Rng
/// draws and exact optima are those of a cover over all of h.edges().
/// `bag` must be coverable (checked).
std::vector<int> CoverBag(const Hypergraph& h, const VertexSet& bag,
                          CoverMode mode);

/// Builds the GHD induced by an elimination ordering of the primal graph:
/// bags via bucket elimination, guards via set covering of each bag.
/// The result always validates against h.
GhwUpperBoundResult GhwFromOrdering(const Hypergraph& h,
                                    const std::vector<int>& ordering,
                                    CoverMode mode);

/// Width-only fast path (no decomposition construction). Stops early when the
/// width provably reaches `stop_at_width` (< 0 = never).
int GhwWidthFromOrdering(const Hypergraph& h, const std::vector<int>& ordering,
                         CoverMode mode, int stop_at_width = -1);

/// Convenience: ordering from a greedy heuristic on the primal graph, then
/// GhwFromOrdering.
GhwUpperBoundResult GhwUpperBound(const Hypergraph& h,
                                  OrderingHeuristic heuristic,
                                  CoverMode mode);

/// Multi-restart randomized upper bound: `restarts` randomized min-fill /
/// min-degree orderings with randomized cover tie-breaking; keeps the best.
GhwUpperBoundResult GhwUpperBoundMultiRestart(const Hypergraph& h,
                                              int restarts, uint64_t seed,
                                              CoverMode mode);

}  // namespace ghd

#endif  // GHD_CORE_GHW_UPPER_H_
