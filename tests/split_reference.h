// Scalar component splitting shared by the differential tests that keep an
// older engine as their reference (the recursive width-k decider in
// k_decider_diff_test, the candidate order in cover_index_test). Built from
// the edges' VertexSets and the vertex CSR; the library's own splits live
// inside the decider and are checked against these through the references.
#ifndef GHD_TESTS_SPLIT_REFERENCE_H_
#define GHD_TESTS_SPLIT_REFERENCE_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "hypergraph/flat_hypergraph.h"
#include "hypergraph/hypergraph.h"
#include "util/bitset.h"

namespace ghd {

/// Splits the edges in `edges_left` into [chi]-connected components: edges
/// are adjacent when they share a vertex outside `chi`. Components come in
/// ascending order of their least edge id, each as a set over the edge ids;
/// an edge inside `chi` forms a singleton (it still hangs off the separator).
inline std::vector<VertexSet> ReferenceSplit(const Hypergraph& h,
                                             const VertexSet& edges_left,
                                             const VertexSet& chi) {
  const std::vector<int32_t>& voff = h.Flat().vertex_offsets();
  const std::vector<int32_t>& vedges = h.Flat().vertex_edges();
  VertexSet unseen = edges_left;
  std::vector<VertexSet> parts;
  std::vector<int> stack;
  while (unseen.Any()) {
    const int seed = unseen.First();
    VertexSet part(h.num_edges());
    part.Set(seed);
    unseen.Reset(seed);
    stack.assign(1, seed);
    while (!stack.empty()) {
      const int e = stack.back();
      stack.pop_back();
      h.edge(e).ForEach([&](int v) {
        if (chi.Test(v)) return;
        for (int32_t i = voff[v]; i < voff[v + 1]; ++i) {
          const int f = vedges[i];
          if (unseen.Test(f)) {
            unseen.Reset(f);
            part.Set(f);
            stack.push_back(f);
          }
        }
      });
    }
    parts.push_back(std::move(part));
  }
  return parts;
}

/// Union of the vertex sets of the edges in `edge_set` (a set over the edge
/// ids).
inline VertexSet ReferenceVerticesOf(const Hypergraph& h,
                                     const VertexSet& edge_set) {
  VertexSet out(h.num_vertices());
  edge_set.ForEach([&](int e) { out |= h.edge(e); });
  return out;
}

}  // namespace ghd

#endif  // GHD_TESTS_SPLIT_REFERENCE_H_
