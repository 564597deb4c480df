// FlatHypergraph: an immutable CSR + bitset-matrix view of a Hypergraph,
// built once per instance and carried alongside it (Hypergraph::Flat()).
//
// The decomposition engines spend their time in three inner loops — component
// splitting after separator removal, λ-cover feasibility tests, and candidate
// union enumeration — all of which walk per-edge VertexSets through pointers:
// one heap row per set (universes > 128), one virtual word-pointer branch per
// access, no locality across rows. This view re-lays the same data out flat:
//
//  * CSR arrays in both directions: edge -> sorted vertex ids
//    (edge_offsets/edge_vertices) and vertex -> sorted incident edge ids
//    (vertex_offsets/vertex_edges) — the iteration form of the kernels;
//  * two row-major contiguous bitset matrices: edge_bits() (one row per
//    edge over the vertex universe) and incidence_bits() (one row per vertex
//    over the edge universe) — the word-parallel form. Rows are padded to a
//    multiple of 4 words (one 256-bit lane) so the SIMD kernels in
//    hypergraph/kernels.h run whole lanes with zero-filled tails.
//
// The layout is also the serialization shape for the planned server-side
// instance cache and the on-ramp to a GPU backend (ROADMAP item 2): four
// integer arrays plus two word matrices, no pointers.
//
// Everything here is plain data; the batched algorithms over it live in
// hypergraph/kernels.h. Build time is recorded in the flat_build_ns counter.
#ifndef GHD_HYPERGRAPH_FLAT_HYPERGRAPH_H_
#define GHD_HYPERGRAPH_FLAT_HYPERGRAPH_H_

#include <cstdint>
#include <vector>

#include "util/bitset.h"
#include "util/check.h"

namespace ghd {

class Hypergraph;

/// Row-major contiguous bitset matrix: `rows` bitsets over a fixed
/// `universe`, each occupying `stride_words` consecutive 64-bit words
/// (logical words rounded up to a multiple of 4 — one AVX2 lane; the padding
/// words are always zero). Rows of one matrix are adjacent in memory, so the
/// batched kernels stream them instead of chasing per-set heap pointers.
class BitMatrix {
 public:
  BitMatrix() = default;
  BitMatrix(int rows, int universe)
      : rows_(rows),
        universe_(universe),
        logical_words_((universe + 63) / 64),
        stride_words_((logical_words_ + 3) & ~3),
        words_(static_cast<size_t>(rows) * stride_words_, 0) {
    GHD_CHECK(rows >= 0 && universe >= 0);
  }

  int rows() const { return rows_; }
  int universe() const { return universe_; }
  /// Words that carry set bits: (universe + 63) / 64.
  int logical_words() const { return logical_words_; }
  /// Words from one row to the next (logical words padded to 4).
  int stride_words() const { return stride_words_; }

  uint64_t* row(int r) {
    GHD_DCHECK(r >= 0 && r < rows_);
    return words_.data() + static_cast<size_t>(r) * stride_words_;
  }
  const uint64_t* row(int r) const {
    GHD_DCHECK(r >= 0 && r < rows_);
    return words_.data() + static_cast<size_t>(r) * stride_words_;
  }

  /// Copies the words of `s` (universe must match) into row r.
  void SetRow(int r, const VertexSet& s);
  /// Materializes row r as a VertexSet over the matrix universe.
  VertexSet RowAsVertexSet(int r) const;

 private:
  int rows_ = 0;
  int universe_ = 0;
  int logical_words_ = 0;
  int stride_words_ = 0;
  std::vector<uint64_t> words_;
};

/// The flat view of one Hypergraph. Immutable after construction; references
/// into it (rows, CSR spans) are stable for its lifetime. It is the only
/// per-vertex incidence store: the vertex CSR and incidence_bits are built
/// by transposing the edge CSR, in one pass over the edges (accumulated in
/// flat_build_ns).
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

  /// One row per edge, universe = num_vertices (the edges' vertex sets).
  const BitMatrix& edge_bits() const { return edge_bits_; }
  /// One row per vertex, universe = num_edges (the vertices' incident-edge
  /// sets) — the word-parallel dual used by component splitting.
  const BitMatrix& incidence_bits() const { return incidence_bits_; }

  /// Nanoseconds this view took to build (also added to flat_build_ns).
  long build_ns() const { return build_ns_; }

 private:
  int num_vertices_ = 0;
  int num_edges_ = 0;
  std::vector<int32_t> edge_offsets_;
  std::vector<int32_t> edge_vertices_;
  std::vector<int32_t> vertex_offsets_;
  std::vector<int32_t> vertex_edges_;
  BitMatrix edge_bits_;
  BitMatrix incidence_bits_;
  long build_ns_ = 0;
};

}  // namespace ghd

#endif  // GHD_HYPERGRAPH_FLAT_HYPERGRAPH_H_
