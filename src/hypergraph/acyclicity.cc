#include "hypergraph/acyclicity.h"

#include <algorithm>
#include <vector>

#include "hypergraph/flat_hypergraph.h"

namespace ghd {

// Runs the GYO rules in rounds: first every ear (vertex in exactly one live
// edge, by the degrees at the start of the round) leaves its edge, then each
// live edge, by ascending id, dies if it is empty or another live edge
// contains it. Edges only ever shrink, so an edge that survived a
// containment check stays uncontained until it loses a vertex itself: after
// the first round, which checks every edge, a round checks only the edges
// that just lost an ear, and its ears are the vertices that the previous
// round's deaths left with degree 1. Degrees and incidence come from the
// flat vertex CSR, so a round costs only what it touches.
std::vector<VertexSet> GyoResidual(const Hypergraph& h) {
  const FlatHypergraph& flat = h.Flat();
  const std::vector<int32_t>& voff = flat.vertex_offsets();
  const std::vector<int32_t>& vedges = flat.vertex_edges();
  const int n = h.num_vertices();
  const int m = h.num_edges();
  std::vector<VertexSet> edges = h.edges();
  std::vector<char> alive(m, 1);
  std::vector<int> degree(n);  // live edges containing the vertex
  std::vector<int> ears;
  for (int v = 0; v < n; ++v) {
    degree[v] = voff[v + 1] - voff[v];
    if (degree[v] == 1) ears.push_back(v);
  }
  std::vector<int> to_check(m);
  for (int e = 0; e < m; ++e) to_check[e] = e;

  while (!to_check.empty() || !ears.empty()) {
    // Rule 1. An ear never rejoins an edge, so a vertex of degree 1 is still
    // in the one live edge among its original edges.
    for (int v : ears) {
      if (degree[v] != 1) continue;  // its edge died too
      int i = voff[v];
      while (!alive[vedges[i]]) ++i;
      edges[vedges[i]].Reset(v);
      degree[v] = 0;
      to_check.push_back(vedges[i]);
    }
    ears.clear();
    std::sort(to_check.begin(), to_check.end());
    to_check.erase(std::unique(to_check.begin(), to_check.end()),
                   to_check.end());
    // Rule 2. Any container of e holds e's least-degree vertex, so only that
    // vertex's edges are tried.
    for (int e : to_check) {
      if (!alive[e]) continue;
      if (edges[e].Empty()) {
        alive[e] = 0;
        continue;
      }
      int pivot = -1;
      edges[e].ForEach([&](int v) {
        if (pivot < 0 || degree[v] < degree[pivot]) pivot = v;
      });
      for (int i = voff[pivot]; i < voff[pivot + 1]; ++i) {
        const int f = vedges[i];
        if (f == e || !alive[f] || !edges[e].IsSubsetOf(edges[f])) continue;
        alive[e] = 0;
        edges[e].ForEach([&](int v) {
          if (--degree[v] == 1) ears.push_back(v);
        });
        break;
      }
    }
    to_check.clear();
  }
  std::vector<VertexSet> residual;
  for (int e = 0; e < m; ++e) {
    if (alive[e]) residual.push_back(edges[e]);
  }
  return residual;
}

bool IsAlphaAcyclic(const Hypergraph& h) { return GyoResidual(h).empty(); }

}  // namespace ghd
