// The GYO front door of the width engines. ghw = hw = 1 exactly on
// alpha-acyclic hypergraphs, and the GYO reduction (hypergraph/acyclicity.h)
// decides that in linear time while recording, for each edge it removes, the
// live edge that contained it. These helpers turn that record into
// decompositions: the graft that hangs removed edges back as width-1 leaves
// onto a decomposition of the GYO core (what the reduction could not remove,
// `EdgeSubhypergraph(h, gyo.core_edges, &gyo.residual)`), which onto an
// empty base is the join tree of an acyclic instance. DESIGN.md ("GYO front
// door") gives the soundness argument.
#ifndef GHD_CORE_FRONT_DOOR_H_
#define GHD_CORE_FRONT_DOOR_H_

#include <vector>

#include "core/ghd.h"
#include "hypergraph/acyclicity.h"
#include "hypergraph/hypergraph.h"

namespace ghd {

/// Completes `base`, a decomposition with guards in h's edge ids, to one of
/// h. `hang` marks the edges base does not cover whole: for a marked
/// survivor base covers its residual, and a marked dead edge is not in base
/// at all. A marked dead edge e becomes a node χ = e, λ = {e}, under
///  * the node of its container, when that container is a marked dead edge
///    (it died later, so it is placed first);
///  * when the container c is a marked survivor, the first base node whose
///    bag holds c's residual — or, if that bag misses some of c's own
///    vertices, a leaf χ = c, λ = {c} that c gets under it either way;
///  * node 0 when e died empty (the first hung node is the root when `base`
///    has no nodes).
/// Base nodes keep their indices, so a base rooted at node 0 stays rooted
/// there; survivor leaves follow by id, then dead edges in reverse removal
/// order. The width is max(base width, 1), and every added node satisfies
/// the special condition of hypertree decompositions (χ = var(λ)).
GeneralizedHypertreeDecomposition GraftGyoEdges(
    const Hypergraph& h, const GyoReduction& gyo,
    const std::vector<char>& hang, GeneralizedHypertreeDecomposition base);

}  // namespace ghd

#endif  // GHD_CORE_FRONT_DOOR_H_
