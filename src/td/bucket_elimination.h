// Bucket / vertex elimination: turns an elimination ordering into a tree
// decomposition. The set of all elimination orderings is a complete search
// space for treewidth, and (with exact set covering of the bags) for
// generalized hypertree width as well — which is why every width solver here
// is built on top of these routines. They eliminate on the sparse
// EliminationGraph; the Graph overloads convert and call the same code.
#ifndef GHD_TD_BUCKET_ELIMINATION_H_
#define GHD_TD_BUCKET_ELIMINATION_H_

#include <vector>

#include "graph/elimination_graph.h"
#include "graph/graph.h"
#include "td/tree_decomposition.h"
#include "util/bitset.h"

namespace ghd {

/// Checks `ordering` is a permutation of {0, ..., num_vertices-1}.
bool IsValidOrdering(int num_vertices, const std::vector<int>& ordering);
bool IsValidOrdering(const Graph& g, const std::vector<int>& ordering);

/// Eliminates `ordering` from a copy of g, first-eliminated first. Before
/// each vertex v goes, visit(v, bag) sees bag = {v} ∪ N(v) in the graph
/// left so far, as an ascending id list; visit returns false to stop.
template <typename Visit>
void EliminateAlong(const EliminationGraph& g,
                    const std::vector<int>& ordering, Visit visit) {
  EliminationGraph work = g;
  std::vector<int> bag;
  for (int v : ordering) {
    work.ClosedNeighborhood(v, &bag);
    if (!visit(v, bag)) return;
    work.Eliminate(v);
  }
}

/// The elimination bags ("cliques(σ, H)"): bag[i] = {σ(i)} ∪ N(σ(i)) in the
/// graph after eliminating σ(0..i-1). ordering[0] is eliminated first.
/// bag[i] is indexed by position in the ordering.
std::vector<VertexSet> EliminationBags(const Graph& g,
                                       const std::vector<int>& ordering);

/// Width of the tree decomposition induced by the ordering: max bag size - 1.
/// Early-exits when the width provably reaches `stop_at_width` (< 0 = never).
int EliminationWidth(const EliminationGraph& g,
                     const std::vector<int>& ordering, int stop_at_width = -1);
int EliminationWidth(const Graph& g, const std::vector<int>& ordering,
                     int stop_at_width = -1);

/// Full bucket elimination: builds the tree decomposition induced by the
/// ordering. The result always validates against g.
TreeDecomposition TdFromOrdering(const EliminationGraph& g,
                                 const std::vector<int>& ordering);
TreeDecomposition TdFromOrdering(const Graph& g,
                                 const std::vector<int>& ordering);

}  // namespace ghd

#endif  // GHD_TD_BUCKET_ELIMINATION_H_
