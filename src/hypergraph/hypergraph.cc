#include "hypergraph/hypergraph.h"

#include <algorithm>

#include "hypergraph/flat_hypergraph.h"
#include "util/check.h"

namespace ghd {

Hypergraph::Hypergraph(std::vector<std::string> vertex_names,
                       std::vector<std::string> edge_names,
                       std::vector<VertexSet> edges)
    : vertex_names_(std::move(vertex_names)),
      edge_names_(std::move(edge_names)),
      edges_(std::move(edges)) {
  GHD_CHECK(edge_names_.size() == edges_.size());
  const int n = num_vertices();
  for (const VertexSet& e : edges_) GHD_CHECK(e.universe_size() == n);
  vertex_ids_.reserve(vertex_names_.size());
  for (int v = 0; v < n; ++v) vertex_ids_[vertex_names_[v]] = v;
  flat_ = std::make_shared<const FlatHypergraph>(*this);
}

int Hypergraph::VertexIdOf(const std::string& name) const {
  auto it = vertex_ids_.find(name);
  return it == vertex_ids_.end() ? -1 : it->second;
}

VertexSet Hypergraph::EdgesIntersecting(const VertexSet& vs) const {
  const std::vector<int32_t>& voff = flat_->vertex_offsets();
  const std::vector<int32_t>& vedges = flat_->vertex_edges();
  VertexSet out(num_edges());
  vs.ForEach([&](int v) {
    for (int32_t i = voff[v]; i < voff[v + 1]; ++i) out.Set(vedges[i]);
  });
  return out;
}

VertexSet Hypergraph::CoveredVertices() const {
  VertexSet u(num_vertices());
  for (const VertexSet& e : edges_) u |= e;
  return u;
}

Graph Hypergraph::PrimalGraph() const {
  Graph g(num_vertices());
  for (const VertexSet& e : edges_) g.MakeClique(e);
  return g;
}

int Hypergraph::Rank() const {
  const std::vector<int32_t>& offsets = flat_->edge_offsets();
  int r = 0;
  for (size_t e = 0; e + 1 < offsets.size(); ++e) {
    r = std::max(r, offsets[e + 1] - offsets[e]);
  }
  return r;
}

int Hypergraph::MaxDegree() const {
  const std::vector<int32_t>& offsets = flat_->vertex_offsets();
  int d = 0;
  for (size_t v = 0; v + 1 < offsets.size(); ++v) {
    d = std::max(d, offsets[v + 1] - offsets[v]);
  }
  return d;
}

bool Hypergraph::IsConnected() const {
  // Breadth-first over the two CSRs from the first covered vertex: a vertex
  // reaches its edges, an edge its vertices, each entered once.
  const std::vector<int32_t>& voff = flat_->vertex_offsets();
  const std::vector<int32_t>& vedges = flat_->vertex_edges();
  const std::vector<int32_t>& eoff = flat_->edge_offsets();
  const std::vector<int32_t>& everts = flat_->edge_vertices();
  const int n = num_vertices();
  int covered = 0;
  int start = -1;
  for (int v = 0; v < n; ++v) {
    if (voff[v + 1] == voff[v]) continue;
    ++covered;
    if (start < 0) start = v;
  }
  if (covered == 0) return true;
  std::vector<char> seen_vertex(n, 0), seen_edge(num_edges(), 0);
  std::vector<int> queue = {start};
  seen_vertex[start] = 1;
  for (size_t i = 0; i < queue.size(); ++i) {
    const int v = queue[i];
    for (int j = voff[v]; j < voff[v + 1]; ++j) {
      const int e = vedges[j];
      if (seen_edge[e]) continue;
      seen_edge[e] = 1;
      for (int k = eoff[e]; k < eoff[e + 1]; ++k) {
        const int u = everts[k];
        if (!seen_vertex[u]) {
          seen_vertex[u] = 1;
          queue.push_back(u);
        }
      }
    }
  }
  return static_cast<int>(queue.size()) == covered;
}

EdgeDeltaResult ApplyEdgeDelta(const Hypergraph& base, const EdgeDelta& delta) {
  const int n = base.num_vertices();
  const int m = base.num_edges();
  std::vector<char> removed(m, 0);
  VertexSet dirty(n);
  for (int e : delta.removed_edges) {
    GHD_CHECK(e >= 0 && e < m);
    GHD_CHECK(!removed[e]);  // distinct removal ids
    removed[e] = 1;
    dirty |= base.edge(e);
  }
  for (const EdgeDelta::InsertedEdge& ins : delta.inserts) {
    GHD_CHECK(ins.vertices.universe_size() == n);
    dirty |= ins.vertices;
  }
  std::vector<std::string> edge_names;
  std::vector<VertexSet> edges;
  const int next_m =
      m - static_cast<int>(delta.removed_edges.size()) +
      static_cast<int>(delta.inserts.size());
  edge_names.reserve(next_m);
  edges.reserve(next_m);
  std::vector<int> edge_map(m, -1);
  for (int e = 0; e < m; ++e) {
    if (removed[e]) continue;
    edge_map[e] = static_cast<int>(edges.size());
    edge_names.push_back(base.edge_name(e));
    edges.push_back(base.edge(e));
  }
  std::vector<int> inserted_edges;
  inserted_edges.reserve(delta.inserts.size());
  for (const EdgeDelta::InsertedEdge& ins : delta.inserts) {
    inserted_edges.push_back(static_cast<int>(edges.size()));
    edge_names.push_back(ins.name);
    edges.push_back(ins.vertices);
  }
  std::vector<std::string> vertex_names;
  vertex_names.reserve(n);
  for (int v = 0; v < n; ++v) vertex_names.push_back(base.vertex_name(v));
  EdgeDeltaResult result{
      Hypergraph(std::move(vertex_names), std::move(edge_names),
                 std::move(edges)),
      std::move(edge_map), std::move(inserted_edges), std::move(dirty)};
  return result;
}

}  // namespace ghd
