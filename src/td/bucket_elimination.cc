#include "td/bucket_elimination.h"

#include <algorithm>

#include "util/check.h"

namespace ghd {

bool IsValidOrdering(int num_vertices, const std::vector<int>& ordering) {
  if (static_cast<int>(ordering.size()) != num_vertices) return false;
  std::vector<char> seen(num_vertices, 0);
  for (int v : ordering) {
    if (v < 0 || v >= num_vertices || seen[v]) return false;
    seen[v] = 1;
  }
  return true;
}

bool IsValidOrdering(const Graph& g, const std::vector<int>& ordering) {
  return IsValidOrdering(g.num_vertices(), ordering);
}

std::vector<VertexSet> EliminationBags(const Graph& g,
                                       const std::vector<int>& ordering) {
  GHD_CHECK(IsValidOrdering(g, ordering));
  std::vector<VertexSet> bags;
  bags.reserve(ordering.size());
  EliminateAlong(EliminationGraph(g), ordering,
                 [&](int, const std::vector<int>& bag) {
                   bags.push_back(VertexSet::Of(g.num_vertices(), bag));
                   return true;
                 });
  return bags;
}

int EliminationWidth(const EliminationGraph& g,
                     const std::vector<int>& ordering, int stop_at_width) {
  GHD_CHECK(IsValidOrdering(g.num_vertices(), ordering));
  int width = -1;
  EliminateAlong(g, ordering, [&](int, const std::vector<int>& bag) {
    width = std::max(width, static_cast<int>(bag.size()) - 1);
    return stop_at_width < 0 || width < stop_at_width;
  });
  return width;
}

int EliminationWidth(const Graph& g, const std::vector<int>& ordering,
                     int stop_at_width) {
  return EliminationWidth(EliminationGraph(g), ordering, stop_at_width);
}

TreeDecomposition TdFromOrdering(const EliminationGraph& g,
                                 const std::vector<int>& ordering) {
  GHD_CHECK(IsValidOrdering(g.num_vertices(), ordering));
  const int n = g.num_vertices();
  TreeDecomposition td;
  td.bags.reserve(n);
  // position_of[v] = index of v in the ordering = index of v's bag.
  std::vector<int> position_of(n);
  for (int i = 0; i < n; ++i) position_of[ordering[i]] = i;

  // Eliminate and connect each bag to the bucket of the next-eliminated
  // neighbor (the classic bucket-elimination tree).
  std::vector<int> parent(n, -1);
  EliminateAlong(g, ordering, [&](int v, const std::vector<int>& bag) {
    const int i = position_of[v];
    td.bags.push_back(VertexSet::Of(n, bag));
    int next = -1;
    for (int u : bag) {
      if (u != v && (next == -1 || position_of[u] < position_of[next])) {
        next = u;
      }
    }
    if (next != -1) parent[i] = position_of[next];
    return true;
  });
  // Link roots (bags with no parent) into a chain so the result is one tree;
  // root bags share no vertices with later roots, so connectedness holds.
  int previous_root = -1;
  for (int i = 0; i < n; ++i) {
    if (parent[i] >= 0) {
      td.tree_edges.emplace_back(i, parent[i]);
    } else {
      if (previous_root >= 0) td.tree_edges.emplace_back(previous_root, i);
      previous_root = i;
    }
  }
  return td;
}

TreeDecomposition TdFromOrdering(const Graph& g,
                                 const std::vector<int>& ordering) {
  return TdFromOrdering(EliminationGraph(g), ordering);
}

}  // namespace ghd
