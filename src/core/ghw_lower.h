// GHW lower bounds, combining treewidth lower bounds on the primal graph with
// k-set-cover reasoning: any GHD is a tree decomposition of the primal graph,
// so some bag has at least tw(H)+1 vertices, and that bag's λ must cover it.
#ifndef GHD_CORE_GHW_LOWER_H_
#define GHD_CORE_GHW_LOWER_H_

#include <vector>

#include "hypergraph/hypergraph.h"

namespace ghd {

/// Lower bound on ghw(H): the smallest k such that the k largest hyperedges
/// can reach (treewidth-lower-bound + 1) vertices, i.e. the tw × k-set-cover
/// combination. The treewidth bound runs on the sparse primal graph built
/// from h's flat CSRs. Returns 0 for the empty hypergraph.
int GhwLowerBound(const Hypergraph& h);

/// h's edge sizes, largest first.
std::vector<int> EdgeSizesDescending(const Hypergraph& h);

/// Same combination but from an explicit treewidth lower bound, for a
/// hypergraph with edge sizes EdgeSizesDescending(h) (used by the exact GHW
/// search on residual graphs, where the caller already has one, once per
/// node).
int GhwLowerBoundFromTwBound(const std::vector<int>& sizes_descending,
                             int tw_lower_bound);

}  // namespace ghd

#endif  // GHD_CORE_GHW_LOWER_H_
