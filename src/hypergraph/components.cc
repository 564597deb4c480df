#include "hypergraph/components.h"

#include <string>

namespace ghd {

std::vector<std::vector<int>> ConnectedEdgeComponents(const Hypergraph& h) {
  const int m = h.num_edges();
  // Word-parallel BFS over edge-id bitsets: expanding an edge intersects its
  // incidence union against the unseen set, whole words at a time.
  VertexSet unseen = VertexSet::Full(m);
  std::vector<std::vector<int>> components;
  std::vector<int> stack;
  for (int start = 0; start < m; ++start) {
    if (!unseen.Test(start)) continue;
    components.emplace_back();
    std::vector<int>& group = components.back();
    unseen.Reset(start);
    stack.assign(1, start);
    while (!stack.empty()) {
      const int e = stack.back();
      stack.pop_back();
      group.push_back(e);
      VertexSet adj = h.EdgesIntersecting(h.edge(e));
      adj &= unseen;
      unseen -= adj;
      adj.ForEach([&](int f) { stack.push_back(f); });
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
