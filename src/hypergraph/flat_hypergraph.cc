#include "hypergraph/flat_hypergraph.h"

#include <chrono>
#include <cstring>

#include "hypergraph/hypergraph.h"
#include "obs/obs.h"

namespace ghd {

void BitMatrix::SetRow(int r, const VertexSet& s) {
  GHD_DCHECK(s.universe_size() == universe_);
  if (logical_words_ > 0) {
    std::memcpy(row(r), s.word_data(), sizeof(uint64_t) * logical_words_);
  }
}

VertexSet BitMatrix::RowAsVertexSet(int r) const {
  return VertexSet::FromWords(universe_, row(r));
}

FlatHypergraph::FlatHypergraph(const Hypergraph& h)
    : num_vertices_(h.num_vertices()),
      num_edges_(h.num_edges()),
      edge_bits_(h.num_edges(), h.num_vertices()),
      incidence_bits_(h.num_vertices(), h.num_edges()) {
  const auto t0 = std::chrono::steady_clock::now();

  edge_offsets_.reserve(num_edges_ + 1);
  edge_offsets_.push_back(0);
  for (int e = 0; e < num_edges_; ++e) {
    const VertexSet& ev = h.edge(e);
    edge_bits_.SetRow(e, ev);
    ev.ForEach([&](int v) { edge_vertices_.push_back(v); });
    edge_offsets_.push_back(static_cast<int32_t>(edge_vertices_.size()));
  }

  // Vertex -> edge CSR by transposing the edge CSR (a counting sort):
  // edges are visited in ascending id order, so each vertex's list comes
  // out sorted.
  vertex_offsets_.assign(num_vertices_ + 1, 0);
  for (int32_t v : edge_vertices_) ++vertex_offsets_[v + 1];
  for (int v = 0; v < num_vertices_; ++v) {
    vertex_offsets_[v + 1] += vertex_offsets_[v];
  }
  vertex_edges_.resize(edge_vertices_.size());
  std::vector<int32_t> next(vertex_offsets_.begin(), vertex_offsets_.end() - 1);
  for (int e = 0; e < num_edges_; ++e) {
    for (int32_t i = edge_offsets_[e]; i < edge_offsets_[e + 1]; ++i) {
      const int32_t v = edge_vertices_[i];
      vertex_edges_[next[v]++] = e;
      incidence_bits_.row(v)[e >> 6] |= uint64_t{1} << (e & 63);
    }
  }

  build_ns_ = std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
  GHD_COUNT_N(kFlatBuildNs, build_ns_);
}

}  // namespace ghd
