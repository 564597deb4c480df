// Tree decompositions (Robertson-Seymour) of graphs and hypergraphs, with a
// full validator used by tests and by every decomposition-producing algorithm.
#ifndef GHD_TD_TREE_DECOMPOSITION_H_
#define GHD_TD_TREE_DECOMPOSITION_H_

#include <utility>
#include <vector>

#include "graph/graph.h"
#include "hypergraph/hypergraph.h"
#include "util/bitset.h"
#include "util/status.h"

namespace ghd {

/// A tree decomposition: bags χ(p) plus tree edges over bag indices.
struct TreeDecomposition {
  std::vector<VertexSet> bags;
  std::vector<std::pair<int, int>> tree_edges;

  int num_nodes() const { return static_cast<int>(bags.size()); }

  /// Width = max bag size - 1 (width of the empty decomposition is -1).
  int Width() const;

  /// Checks the tree-decomposition conditions against a graph:
  ///  (T) tree_edges form a tree over the bags,
  ///  (1) every graph edge is inside some bag,
  ///  (2) for every vertex, the bags containing it induce a subtree.
  Status ValidateForGraph(const Graph& g) const;

  /// Same, with condition (1) over hyperedges: each hyperedge inside a bag.
  Status ValidateForHypergraph(const Hypergraph& h) const;
};

namespace internal {
/// Shared by TD and GHD validators: tree-ness plus per-vertex connectedness.
Status ValidateTreeAndConnectedness(const std::vector<VertexSet>& bags,
                                    const std::vector<std::pair<int, int>>& edges,
                                    int num_vertices);

/// Vertex -> bags holding it, as a CSR built in one pass over the bags. A
/// lookup tries only the bags that hold the set's least vertex. The index
/// reads `bags` through a reference; bags appended later are not indexed.
class BagIndex {
 public:
  /// Indexes the vertices below `num_vertices`.
  BagIndex(const std::vector<VertexSet>& bags, int num_vertices);

  /// The least index of an indexed bag holding s, or -1 when none does. An
  /// empty s is held by bag 0 (by none when there are no bags).
  int FirstHolder(const VertexSet& s) const;

 private:
  const std::vector<VertexSet>& bags_;
  int num_bags_;
  std::vector<int> offsets_;
  std::vector<int> holders_;
};

/// Condition (1) over hyperedges: the first hyperedge of h, by id, that no
/// bag contains is reported. Bags are looked up through a BagIndex.
Status ValidateEdgesInsideBags(const Hypergraph& h,
                               const std::vector<VertexSet>& bags);
}  // namespace internal

}  // namespace ghd

#endif  // GHD_TD_TREE_DECOMPOSITION_H_
