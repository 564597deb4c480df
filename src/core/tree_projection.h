// Tree projections. TP(H, G) asks for an acyclic hypergraph sandwiched
// between H and G: equivalently, a tree decomposition of H all of whose bags
// fit inside edges of G. The paper proves TP is NP-complete and that
// ghw(H) <= k iff H has a tree projection with respect to H^[k], the
// hypergraph of all unions of at most k edges of H.
//
// Completeness caveat (this is exactly where the paper's NP-hardness bites):
// the polynomial search below explores *cover-normal-form* projections whose
// bags are full sets g ∩ V(component). That is complete when G's edge family
// is subedge-closed, but in general only sound — a full TP may need bags that
// are proper subsets of G-edges. With G = H^[k] the normal-form search
// coincides with the hypertree-width check (hw(H) <= k); closing the family
// under subedges (core/bip.h) restores completeness for ghw, at exponential
// cost in general and polynomial cost under bounded intersections. The
// equivalences and gaps are measured by bench/tree_projection.
#ifndef GHD_CORE_TREE_PROJECTION_H_
#define GHD_CORE_TREE_PROJECTION_H_

#include <cstddef>
#include <string>
#include <vector>

#include "core/k_decider.h"
#include "hypergraph/hypergraph.h"
#include "td/tree_decomposition.h"
#include "util/resource_governor.h"
#include "util/status.h"

namespace ghd {

/// Builds H^[k]: the hypergraph over the same vertices whose edges are all
/// distinct unions of 1..k edges of H, enumerated by an iterative frontier
/// over edge combinations (deduped through a SetInterner, no recursion).
/// Fails (ResourceExhausted) when the edge count would exceed `max_edges` or
/// when the shared `budget` governor fires mid-enumeration (one tick per
/// candidate union).
Result<Hypergraph> KFoldUnionHypergraph(const Hypergraph& h, int k,
                                        size_t max_edges = 200000,
                                        Budget* budget = nullptr);

/// Tree projection decision outcome.
struct TreeProjectionResult {
  bool decided = false;
  bool exists = false;
  /// When exists: a tree decomposition of H whose bags all fit in G-edges.
  TreeDecomposition witness;
  long states_visited = 0;
  /// Why an undecided search stopped; carried over from the k-decider.
  Outcome outcome;
  /// Human-readable detail when `decided` is false for a structural reason
  /// (H^[k] overflow, witness sandwich violation) rather than a budget stop.
  std::string diagnostic;
};

/// Decides cover-normal-form TP(H, G) via the width-1 guard search over G's
/// edges (bags of the form g ∩ V(component)). Sound: positive answers carry a
/// validated witness — every bag is checked to fit inside a G-edge
/// (internal::FirstBagOutsideEdges); a violation (an engine bug, not an input
/// error) comes back decided=false with a diagnostic instead of aborting.
/// Complete when G's edges are subedge-closed.
TreeProjectionResult TreeProjectionExists(const Hypergraph& h,
                                          const Hypergraph& g,
                                          const KDeciderOptions& options = {});

/// The paper's characterization instantiated in normal form: searches a tree
/// projection of H w.r.t. H^[k]. `exists` implies ghw(H) <= k; a negative
/// answer implies hw(H) > k (hence ghw(H) > (k-1)/3 by the approximation
/// theorem). Undecided when H^[k] exceeds the cap or the budget runs out.
TreeProjectionResult GhwAtMostViaTreeProjection(
    const Hypergraph& h, int k, size_t max_kfold_edges = 200000,
    const KDeciderOptions& options = {});

namespace internal {

/// The sandwich check of TreeProjectionExists, exposed for tests: the index
/// of the first bag that no edge of `g` contains, or -1 when every bag fits.
/// Bags are over g's vertex universe. Only the G-edges holding a bag's first
/// vertex are tested; an empty bag fits iff g has an edge.
int FirstBagOutsideEdges(const Hypergraph& g,
                         const std::vector<VertexSet>& bags);

}  // namespace internal

}  // namespace ghd

#endif  // GHD_CORE_TREE_PROJECTION_H_
