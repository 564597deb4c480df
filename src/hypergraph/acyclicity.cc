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
// round's deaths left with degree 1. Edges are sorted vertex lists in a copy
// of the flat edge CSR, and degrees and incidence come from the vertex CSR,
// so a round costs only what it touches and no step is universe-wide. Each
// death is recorded with the edge that contained it, which is what the
// join trees of core/front_door.h are built from.
GyoReduction GyoReduce(const Hypergraph& h) {
  const FlatHypergraph& flat = h.Flat();
  const std::vector<int32_t>& voff = flat.vertex_offsets();
  const std::vector<int32_t>& vedges = flat.vertex_edges();
  const std::vector<int32_t>& eoff = flat.edge_offsets();
  const int n = h.num_vertices();
  const int m = h.num_edges();
  GyoReduction gyo;
  gyo.alive.assign(m, 1);
  gyo.container.assign(m, -1);
  std::vector<char>& alive = gyo.alive;
  // Edge e's live vertices, ascending: verts[eoff[e] .. eoff[e] + size[e]).
  std::vector<int32_t> verts = flat.edge_vertices();
  std::vector<int> size(m);
  for (int e = 0; e < m; ++e) size[e] = eoff[e + 1] - eoff[e];
  auto begin = [&](int e) { return verts.begin() + eoff[e]; };
  auto end = [&](int e) { return verts.begin() + eoff[e] + size[e]; };
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
    // in the one live edge among its original edges. The ear is marked by
    // degree 0 and its edge queued; each queued edge then drops all of its
    // ears in one pass, so an edge of s ears costs O(s), not O(s^2).
    for (int v : ears) {
      if (degree[v] != 1) continue;  // its edge died too
      int i = voff[v];
      while (!alive[vedges[i]]) ++i;
      degree[v] = 0;
      to_check.push_back(vedges[i]);
    }
    ears.clear();
    std::sort(to_check.begin(), to_check.end());
    to_check.erase(std::unique(to_check.begin(), to_check.end()),
                   to_check.end());
    for (int e : to_check) {
      size[e] = static_cast<int>(
          std::remove_if(begin(e), end(e),
                         [&](int32_t v) { return degree[v] == 0; }) -
          begin(e));
    }
    // Rule 2. Any container of e holds e's least-degree vertex, so only that
    // vertex's edges are tried.
    for (int e : to_check) {
      if (!alive[e]) continue;
      if (size[e] == 0) {
        alive[e] = 0;
        gyo.removal_order.push_back(e);
        continue;
      }
      int pivot = *begin(e);
      for (auto it = begin(e); it != end(e); ++it) {
        if (degree[*it] < degree[pivot]) pivot = *it;
      }
      for (int i = voff[pivot]; i < voff[pivot + 1]; ++i) {
        const int f = vedges[i];
        if (f == e || !alive[f] ||
            !std::includes(begin(f), end(f), begin(e), end(e))) {
          continue;
        }
        alive[e] = 0;
        gyo.container[e] = f;
        gyo.removal_order.push_back(e);
        for (auto it = begin(e); it != end(e); ++it) {
          if (--degree[*it] == 1) ears.push_back(*it);
        }
        break;
      }
    }
    to_check.clear();
  }
  for (int e = 0; e < m; ++e) {
    if (!alive[e]) continue;
    gyo.core_edges.push_back(e);
    VertexSet residual(n);
    for (auto it = begin(e); it != end(e); ++it) residual.Set(*it);
    gyo.residual.push_back(std::move(residual));
  }
  return gyo;
}

bool IsAlphaAcyclic(const Hypergraph& h) { return GyoReduce(h).acyclic(); }

std::vector<VertexSet> GyoResidual(const Hypergraph& h) {
  return GyoReduce(h).residual;
}

}  // namespace ghd
