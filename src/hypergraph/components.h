// Connected components of hypergraphs (two edges connected when they share a
// vertex). Width measures take the maximum over components, so solvers and
// reports can treat components independently.
#ifndef GHD_HYPERGRAPH_COMPONENTS_H_
#define GHD_HYPERGRAPH_COMPONENTS_H_

#include <vector>

#include "hypergraph/hypergraph.h"

namespace ghd {

/// Edge-id groups of the connected components (vertex-sharing transitive
/// closure). Singleton-free: every group is nonempty; edges appear exactly
/// once; group count == 1 iff the hypergraph is connected (or empty).
std::vector<std::vector<int>> ConnectedEdgeComponents(const Hypergraph& h);

/// The edges `edge_ids` of h, in that order, over h's whole vertex universe
/// (vertex ids stay comparable), with their names. With `sets`, edge i is
/// `(*sets)[i]` instead of h's own set for `edge_ids[i]` (the GYO core).
Hypergraph EdgeSubhypergraph(const Hypergraph& h,
                             const std::vector<int>& edge_ids,
                             const std::vector<VertexSet>* sets = nullptr);

/// Splits h into one sub-hypergraph per component. Each part keeps the full
/// vertex universe (ids remain comparable) but only its component's edges.
std::vector<Hypergraph> SplitIntoComponents(const Hypergraph& h);

}  // namespace ghd

#endif  // GHD_HYPERGRAPH_COMPONENTS_H_
