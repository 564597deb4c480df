// FlatHypergraph: an immutable CSR view of a Hypergraph, built once per
// instance and carried alongside it (Hypergraph::Flat()).
//
// The decomposition engines walk hyperedge–vertex incidence in both
// directions: component splitting after separator removal, λ-cover
// candidates, and the edges meeting a bag. This view lays that incidence out
// as two compressed sparse rows:
//
//  * edge -> sorted vertex ids (edge_offsets/edge_vertices);
//  * vertex -> sorted incident edge ids (vertex_offsets/vertex_edges).
//
// Both take O(n + m + Σ|e|) words, so a sparse instance pays for the
// incidences it has, not for an n × m matrix. Four integer arrays, no
// pointers. Build time is recorded in the flat_build_ns counter.
#ifndef GHD_HYPERGRAPH_FLAT_HYPERGRAPH_H_
#define GHD_HYPERGRAPH_FLAT_HYPERGRAPH_H_

#include <cstdint>
#include <vector>

namespace ghd {

class Hypergraph;

/// The flat view of one Hypergraph. Immutable after construction; references
/// into it (CSR spans) are stable for its lifetime. It is the only per-vertex
/// incidence store: the vertex CSR is built by transposing the edge CSR, in
/// one pass over the edges (accumulated in flat_build_ns).
class FlatHypergraph {
 public:
  explicit FlatHypergraph(const Hypergraph& h);

  int num_vertices() const { return num_vertices_; }
  int num_edges() const { return num_edges_; }

  /// CSR edge -> sorted vertex ids: edge e's vertices are
  /// edge_vertices()[edge_offsets()[e] .. edge_offsets()[e+1]).
  const std::vector<int32_t>& edge_offsets() const { return edge_offsets_; }
  const std::vector<int32_t>& edge_vertices() const { return edge_vertices_; }

  /// CSR vertex -> sorted incident edge ids.
  const std::vector<int32_t>& vertex_offsets() const {
    return vertex_offsets_;
  }
  const std::vector<int32_t>& vertex_edges() const { return vertex_edges_; }

  /// Nanoseconds this view took to build (also added to flat_build_ns).
  long build_ns() const { return build_ns_; }

 private:
  int num_vertices_ = 0;
  int num_edges_ = 0;
  std::vector<int32_t> edge_offsets_;
  std::vector<int32_t> edge_vertices_;
  std::vector<int32_t> vertex_offsets_;
  std::vector<int32_t> vertex_edges_;
  long build_ns_ = 0;
};

}  // namespace ghd

#endif  // GHD_HYPERGRAPH_FLAT_HYPERGRAPH_H_
