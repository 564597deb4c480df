// Alpha-acyclicity via GYO reduction (Graham / Yu-Ozsoyoglu): repeatedly
// remove "ear" vertices (contained in at most one edge) and edges contained
// in other edges; the hypergraph is alpha-acyclic iff everything vanishes.
// Alpha-acyclic instances are exactly those with ghw = hw = 1 — the class
// whose CSPs Yannakakis' algorithm solves directly.
#ifndef GHD_HYPERGRAPH_ACYCLICITY_H_
#define GHD_HYPERGRAPH_ACYCLICITY_H_

#include <vector>

#include "hypergraph/hypergraph.h"

namespace ghd {

/// The record of one GYO reduction: the edges that survive and what is left
/// of them, and for each edge that died, the live edge that contained it.
/// Following `container` from any dead edge ends at a survivor or at an edge
/// that died empty, and the dead edges with their containers form a join
/// tree of the part of h the reduction removed (core/front_door.h builds it).
struct GyoReduction {
  /// Per edge: 1 when it survives into the residual (the GYO core).
  std::vector<char> alive;
  /// Per edge: the live edge that contained it when it died; -1 for
  /// survivors and for edges that died empty.
  std::vector<int> container;
  /// Dead edges in the order they died.
  std::vector<int> removal_order;
  /// The survivors by ascending id, and each one's residual vertex set.
  std::vector<int> core_edges;
  std::vector<VertexSet> residual;

  /// True iff every edge died, i.e. h is alpha-acyclic.
  bool acyclic() const { return core_edges.empty(); }
};

/// Runs the GYO reduction once and records it.
GyoReduction GyoReduce(const Hypergraph& h);

/// True iff h is alpha-acyclic (GYO reduction empties it).
bool IsAlphaAcyclic(const Hypergraph& h);

/// Remainder of the GYO reduction: the edges (as vertex sets, original ids
/// lost to containment-merging) that could not be eliminated. Empty iff
/// alpha-acyclic. Exposed for diagnostics ("which part of the instance is
/// cyclic?").
std::vector<VertexSet> GyoResidual(const Hypergraph& h);

}  // namespace ghd

#endif  // GHD_HYPERGRAPH_ACYCLICITY_H_
