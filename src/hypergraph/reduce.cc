#include "hypergraph/reduce.h"

#include <string>
#include <vector>

#include "hypergraph/flat_hypergraph.h"

namespace ghd {
namespace {

// Calls visit(f) on each edge f that may hold edge e, in ascending id, until
// visit returns true. Every superset of a non-empty edge holds each of its
// vertices, so the candidates are the edges through e's least-degree vertex
// (the first in id order on ties), read off the vertex CSR; an empty edge is
// a subset of every edge and scans them all.
template <typename Visit>
void ForEachSupersetCandidate(const FlatHypergraph& flat, int e,
                              Visit visit) {
  const auto& eo = flat.edge_offsets();
  const auto& ev = flat.edge_vertices();
  const auto& vo = flat.vertex_offsets();
  const auto& ve = flat.vertex_edges();
  if (eo[e] == eo[e + 1]) {
    for (int f = 0; f < flat.num_edges(); ++f) {
      if (visit(f)) return;
    }
    return;
  }
  int rarest = ev[eo[e]];
  for (int32_t i = eo[e] + 1; i < eo[e + 1]; ++i) {
    const int v = ev[i];
    if (vo[v + 1] - vo[v] < vo[rarest + 1] - vo[rarest]) rarest = v;
  }
  for (int32_t i = vo[rarest]; i < vo[rarest + 1]; ++i) {
    if (visit(ve[i])) return;
  }
}

std::vector<char> SubsumedFlags(const Hypergraph& h) {
  const int m = h.num_edges();
  std::vector<char> subsumed(m, 0);
  for (int e = 0; e < m; ++e) {
    ForEachSupersetCandidate(h.Flat(), e, [&](int f) {
      if (e == f || subsumed[f] || !h.edge(e).IsSubsetOf(h.edge(f))) {
        return false;
      }
      // Duplicates: keep the lower id.
      if (h.edge(e) == h.edge(f) && e < f) return false;
      subsumed[e] = 1;
      return true;
    });
  }
  return subsumed;
}

}  // namespace

Hypergraph RemoveSubsumedEdges(const Hypergraph& h) {
  return RemoveSubsumedEdgesMapped(h).reduced;
}

ReducedHypergraph RemoveSubsumedEdgesMapped(const Hypergraph& h) {
  const std::vector<char> subsumed = SubsumedFlags(h);
  const int m = h.num_edges();
  ReducedHypergraph out;
  std::vector<int> reduced_id(m, -1);
  for (int e = 0; e < m; ++e) {
    if (!subsumed[e]) {
      reduced_id[e] = static_cast<int>(out.kept_edges.size());
      out.kept_edges.push_back(e);
    }
  }
  out.superset_of.resize(m, -1);
  for (int e = 0; e < m; ++e) {
    if (!subsumed[e]) {
      out.superset_of[e] = reduced_id[e];
      continue;
    }
    // Dropped: point at any surviving superset. One exists — subsumption is
    // transitive and SubsumedFlags never drops the last member of a
    // duplicate class.
    ForEachSupersetCandidate(h.Flat(), e, [&](int f) {
      if (subsumed[f] || !h.edge(e).IsSubsetOf(h.edge(f))) return false;
      out.superset_of[e] = reduced_id[f];
      return true;
    });
  }
  if (static_cast<int>(out.kept_edges.size()) == m) {
    // Nothing dropped: a copy shares h's flat view instead of rebuilding it.
    out.reduced = h;
    return out;
  }
  std::vector<std::string> vertex_names;
  vertex_names.reserve(h.num_vertices());
  for (int v = 0; v < h.num_vertices(); ++v) {
    vertex_names.push_back(h.vertex_name(v));
  }
  std::vector<std::string> edge_names;
  std::vector<VertexSet> edges;
  for (const int e : out.kept_edges) {
    edge_names.push_back(h.edge_name(e));
    edges.push_back(h.edge(e));
  }
  out.reduced = Hypergraph(std::move(vertex_names), std::move(edge_names),
                           std::move(edges));
  return out;
}

int CountSubsumedEdges(const Hypergraph& h) {
  int count = 0;
  for (char s : SubsumedFlags(h)) count += s;
  return count;
}

}  // namespace ghd
