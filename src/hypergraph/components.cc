#include "hypergraph/components.h"

#include <algorithm>
#include <string>

#include "hypergraph/flat_hypergraph.h"

namespace ghd {

std::vector<std::vector<int>> ConnectedEdgeComponents(const Hypergraph& h) {
  const int m = h.num_edges();
  const FlatHypergraph& flat = h.Flat();
  const std::vector<int32_t>& eoff = flat.edge_offsets();
  const std::vector<int32_t>& everts = flat.edge_vertices();
  const std::vector<int32_t>& voff = flat.vertex_offsets();
  const std::vector<int32_t>& vedges = flat.vertex_edges();
  // Depth-first over the two CSRs: an edge reaches the edges of its
  // vertices. The edges an expansion newly reaches are pushed in ascending
  // id, so a group's order depends on the edge ids alone, not on how the
  // CSR lists them.
  std::vector<char> seen(m, 0);
  std::vector<std::vector<int>> components;
  std::vector<int> stack;
  std::vector<int> fresh;
  for (int start = 0; start < m; ++start) {
    if (seen[start]) continue;
    components.emplace_back();
    std::vector<int>& group = components.back();
    seen[start] = 1;
    stack.assign(1, start);
    while (!stack.empty()) {
      const int e = stack.back();
      stack.pop_back();
      group.push_back(e);
      fresh.clear();
      for (int32_t i = eoff[e]; i < eoff[e + 1]; ++i) {
        const int32_t v = everts[i];
        for (int32_t j = voff[v]; j < voff[v + 1]; ++j) {
          const int f = vedges[j];
          if (!seen[f]) {
            seen[f] = 1;
            fresh.push_back(f);
          }
        }
      }
      std::sort(fresh.begin(), fresh.end());
      stack.insert(stack.end(), fresh.begin(), fresh.end());
    }
  }
  return components;
}

Hypergraph EdgeSubhypergraph(const Hypergraph& h,
                             const std::vector<int>& edge_ids,
                             const std::vector<VertexSet>* sets) {
  std::vector<std::string> vertex_names;
  vertex_names.reserve(h.num_vertices());
  for (int v = 0; v < h.num_vertices(); ++v) {
    vertex_names.push_back(h.vertex_name(v));
  }
  std::vector<std::string> edge_names;
  std::vector<VertexSet> edges;
  if (sets != nullptr) edges = *sets;
  for (int e : edge_ids) {
    edge_names.push_back(h.edge_name(e));
    if (sets == nullptr) edges.push_back(h.edge(e));
  }
  return Hypergraph(std::move(vertex_names), std::move(edge_names),
                    std::move(edges));
}

std::vector<Hypergraph> SplitIntoComponents(const Hypergraph& h) {
  std::vector<Hypergraph> parts;
  for (const std::vector<int>& group : ConnectedEdgeComponents(h)) {
    parts.push_back(EdgeSubhypergraph(h, group));
  }
  return parts;
}

}  // namespace ghd
