// Hypergraph: the central data structure of the library. Vertices carry names
// (CSP variables / query attributes); hyperedges are bitsets over vertices and
// carry names (constraints / query atoms).
#ifndef GHD_HYPERGRAPH_HYPERGRAPH_H_
#define GHD_HYPERGRAPH_HYPERGRAPH_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "graph/graph.h"
#include "util/bitset.h"

namespace ghd {

class FlatHypergraph;

/// Immutable-after-construction hypergraph. Build with HypergraphBuilder.
class Hypergraph {
 public:
  /// Constructs from explicit parts; edge bitsets must be sized to
  /// vertex_names.size(). Prefer HypergraphBuilder.
  Hypergraph(std::vector<std::string> vertex_names,
             std::vector<std::string> edge_names, std::vector<VertexSet> edges);

  int num_vertices() const { return static_cast<int>(vertex_names_.size()); }
  int num_edges() const { return static_cast<int>(edges_.size()); }

  const std::string& vertex_name(int v) const { return vertex_names_[v]; }
  const std::string& edge_name(int e) const { return edge_names_[e]; }
  /// Vertex id for a name, or -1 when unknown.
  int VertexIdOf(const std::string& name) const;

  /// The vertex set of edge e.
  const VertexSet& edge(int e) const { return edges_[e]; }
  const std::vector<VertexSet>& edges() const { return edges_; }

  /// Ids of all edges containing at least one vertex of `vs`, read from the
  /// vertex CSR: O(|vs| + the incidences of vs), plus the m-bit result.
  VertexSet EdgesIntersecting(const VertexSet& vs) const;

  /// Vertices that occur in at least one edge.
  VertexSet CoveredVertices() const;

  /// Gaifman / primal graph: vertices adjacent iff they co-occur in an edge.
  Graph PrimalGraph() const;

  /// Maximum edge cardinality (rank).
  int Rank() const;
  /// Maximum number of edges any vertex appears in (degree).
  int MaxDegree() const;

  /// True when the primal graph restricted to covered vertices is connected.
  bool IsConnected() const;

  /// The flat CSR view (hypergraph/flat_hypergraph.h), built eagerly at
  /// construction and shared by copies — the engines read it on every
  /// hot-path step. It holds the only per-vertex incidence
  /// (vertex_offsets/vertex_edges).
  const FlatHypergraph& Flat() const { return *flat_; }

 private:
  std::vector<std::string> vertex_names_;
  std::vector<std::string> edge_names_;
  std::vector<VertexSet> edges_;
  std::unordered_map<std::string, int> vertex_ids_;
  // shared_ptr, not value: copies of an immutable Hypergraph share one flat
  // view instead of rebuilding the CSRs.
  std::shared_ptr<const FlatHypergraph> flat_;
};

/// One batched mutation of a hypergraph's edge set. The vertex universe is
/// fixed across deltas (dynamic workloads add and drop constraints over a
/// stable attribute space); inserts reference existing vertex ids only.
/// Versions stay immutable — applying a delta builds the *next* Hypergraph
/// value rather than mutating the base.
struct EdgeDelta {
  struct InsertedEdge {
    std::string name;
    VertexSet vertices;  // universe = base.num_vertices()
  };
  std::vector<InsertedEdge> inserts;
  /// Edge ids of the base version to drop; must be valid and distinct.
  std::vector<int> removed_edges;
};

/// The next version plus the bookkeeping incremental consumers need:
/// `edge_map` translates base edge ids into next-version ids (-1 when the
/// edge was removed; survivors are compacted in base order, inserts appended
/// after them), `inserted_edges` lists the new ids of `delta.inserts` in
/// order, and `dirty_vertices` is the union of the vertex sets of every
/// removed and inserted edge — the region whose derived state (memo entries,
/// separator caches, cover candidates) a consumer must revisit.
struct EdgeDeltaResult {
  Hypergraph next;
  std::vector<int> edge_map;
  std::vector<int> inserted_edges;
  VertexSet dirty_vertices;
};

/// Applies `delta` to `base`. Checked preconditions: removed ids in range
/// and distinct, inserted vertex sets over base's vertex universe.
EdgeDeltaResult ApplyEdgeDelta(const Hypergraph& base, const EdgeDelta& delta);

}  // namespace ghd

#endif  // GHD_HYPERGRAPH_HYPERGRAPH_H_
