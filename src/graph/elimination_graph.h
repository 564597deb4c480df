// Sparse primal graph for vertex elimination. The orderings, the treewidth
// lower bounds, bucket elimination and the exact GHW branch and bound all
// eliminate or contract vertices one at a time and only ever look at one
// vertex's neighbourhood (and the neighbourhoods of its neighbours). Here
// each neighbourhood is a sorted id list, and all lists live in one pooled
// array, so one step costs about the sum of the degrees it touches instead
// of one n-bit row per vertex, and a copy is a handful of flat arrays.
//
// Built straight from FlatHypergraph's two CSRs (vertex -> edges -> vertices)
// or, for callers that hold a dense Graph, from its rows. Every operation
// leaves the same graph as its dense Graph namesake.
#ifndef GHD_GRAPH_ELIMINATION_GRAPH_H_
#define GHD_GRAPH_ELIMINATION_GRAPH_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "hypergraph/flat_hypergraph.h"
#include "util/check.h"

namespace ghd {

/// Undirected simple graph over {0, ..., n-1} with sorted adjacency lists in
/// one pooled array. A list that outgrows its slot moves to the end of the
/// pool with doubled capacity, and the vertex an Eliminate, Contract or
/// Isolate removes gives its slot up (no operation ever gives an isolated
/// vertex an edge again); the pool is compacted when more than half of it is
/// abandoned slots.
class EliminationGraph {
 public:
  /// The primal graph of the hypergraph `flat` views: u ~ v iff they share
  /// an edge.
  explicit EliminationGraph(const FlatHypergraph& flat);
  /// The same graph as `g`.
  explicit EliminationGraph(const Graph& g);

  int num_vertices() const { return static_cast<int>(size_.size()); }
  int Degree(int v) const { return size_[v]; }
  /// N(v), ascending.
  std::span<const int32_t> Neighbors(int v) const {
    return {pool_.data() + begin_[v], static_cast<size_t>(size_[v])};
  }
  bool HasEdge(int u, int v) const;
  /// {v} ∪ N(v), ascending: the bag that eliminating v closes.
  void ClosedNeighborhood(int v, std::vector<int>* bag) const;

  /// Fill edges that eliminating v would add: non-adjacent pairs in N(v).
  long FillIn(int v) const;
  /// True when N(v) is a clique (an isolated v is simplicial).
  bool IsSimplicial(int v) const;

  /// Turns N(v) into a clique, then removes every edge at v.
  void Eliminate(int v);
  /// Contracts edge {u, v} into u: N(u) gains N(v), then v is isolated.
  void Contract(int u, int v);
  /// Removes every edge at v without adding fill.
  void Isolate(int v);

 private:
  // Makes room for `size` entries in v's slot, moving it to the end of the
  // pool when it is too small. The slot's current entries are not copied.
  int32_t* Reserve(int v, int size);
  // Removes u from N(v), which must hold it.
  void Erase(int v, int u);
  // Empties v's list and gives up its slot.
  void Release(int v);
  // Compacts the pool once more than half of it is abandoned slots.
  void CompactIfSparse() {
    if (static_cast<long>(pool_.size()) > 2 * live_capacity_ + 64) Compact();
  }
  void Compact();

  std::vector<int32_t> pool_;
  std::vector<int32_t> begin_;
  std::vector<int32_t> size_;
  std::vector<int32_t> capacity_;
  long live_capacity_ = 0;  // sum of capacity_
};

}  // namespace ghd

#endif  // GHD_GRAPH_ELIMINATION_GRAPH_H_
