#include "td/tree_decomposition.h"

#include <algorithm>
#include <string>

namespace ghd {
namespace internal {

Status ValidateTreeAndConnectedness(
    const std::vector<VertexSet>& bags,
    const std::vector<std::pair<int, int>>& edges, int num_vertices) {
  const int t = static_cast<int>(bags.size());
  if (t == 0) return Status::InvalidArgument("decomposition has no nodes");
  if (static_cast<int>(edges.size()) != t - 1) {
    return Status::InvalidArgument("tree must have exactly #nodes-1 edges");
  }
  // Build adjacency and check connectivity (t-1 edges + connected => tree).
  std::vector<std::vector<int>> adj(t);
  for (const auto& [a, b] : edges) {
    if (a < 0 || a >= t || b < 0 || b >= t || a == b) {
      return Status::InvalidArgument("tree edge endpoint out of range");
    }
    adj[a].push_back(b);
    adj[b].push_back(a);
  }
  std::vector<int> parent(t, -1);
  std::vector<char> seen(t, 0);
  std::vector<int> stack = {0};
  seen[0] = 1;
  int reached = 1;
  while (!stack.empty()) {
    int p = stack.back();
    stack.pop_back();
    for (int q : adj[p]) {
      if (!seen[q]) {
        seen[q] = 1;
        parent[q] = p;
        ++reached;
        stack.push_back(q);
      }
    }
  }
  if (reached != t) return Status::InvalidArgument("tree is not connected");

  // Connectedness condition: for each vertex, bags containing it induce a
  // connected subtree. Count nodes and induced edges: a forest restricted to
  // the occurrence set is connected iff edges == nodes - 1. Rooted at node
  // 0, the induced edges are the nodes holding v whose parent holds v too.
  std::vector<int> nodes(num_vertices, 0), induced(num_vertices, 0);
  for (int p = 0; p < t; ++p) {
    bags[p].ForEach([&](int v) {
      if (v >= num_vertices) return;
      ++nodes[v];
      if (parent[p] >= 0 && bags[parent[p]].Test(v)) ++induced[v];
    });
  }
  for (int v = 0; v < num_vertices; ++v) {
    if (nodes[v] != 0 && induced[v] != nodes[v] - 1) {
      return Status::InvalidArgument("connectedness violated for vertex " +
                                     std::to_string(v));
    }
  }
  return Status::Ok();
}

BagIndex::BagIndex(const std::vector<VertexSet>& bags, int num_vertices)
    : bags_(bags),
      num_bags_(static_cast<int>(bags.size())),
      offsets_(num_vertices + 1, 0) {
  const int n = num_vertices;
  for (const VertexSet& bag : bags) {
    bag.ForEach([&](int v) {
      if (v < n) ++offsets_[v + 1];
    });
  }
  for (int v = 0; v < n; ++v) offsets_[v + 1] += offsets_[v];
  holders_.resize(offsets_[n]);
  std::vector<int> fill(offsets_.begin(), offsets_.end() - 1);
  for (int p = 0; p < num_bags_; ++p) {
    bags[p].ForEach([&](int v) {
      if (v < n) holders_[fill[v]++] = p;
    });
  }
}

int BagIndex::FirstHolder(const VertexSet& s) const {
  const int v = s.First();
  if (v < 0) return num_bags_ > 0 ? 0 : -1;
  if (v + 1 >= static_cast<int>(offsets_.size())) return -1;
  // Holders of v are in ascending bag order, so the first hit is the least.
  for (int i = offsets_[v]; i < offsets_[v + 1]; ++i) {
    if (s.IsSubsetOf(bags_[holders_[i]])) return holders_[i];
  }
  return -1;
}

Status ValidateEdgesInsideBags(const Hypergraph& h,
                               const std::vector<VertexSet>& bags) {
  const BagIndex index(bags, h.num_vertices());
  for (int e = 0; e < h.num_edges(); ++e) {
    if (index.FirstHolder(h.edge(e)) < 0) {
      return Status::InvalidArgument("hyperedge " + h.edge_name(e) +
                                     " not inside any bag");
    }
  }
  return Status::Ok();
}

}  // namespace internal

int TreeDecomposition::Width() const {
  int w = -1;
  for (const VertexSet& bag : bags) w = std::max(w, bag.Count() - 1);
  return w;
}

Status TreeDecomposition::ValidateForGraph(const Graph& g) const {
  Status s = internal::ValidateTreeAndConnectedness(bags, tree_edges,
                                                    g.num_vertices());
  if (!s.ok()) return s;
  for (int u = 0; u < g.num_vertices(); ++u) {
    bool fail = false;
    int bad = -1;
    g.Neighbors(u).ForEach([&](int v) {
      if (v < u || fail) return;
      for (const VertexSet& bag : bags) {
        if (bag.Test(u) && bag.Test(v)) return;
      }
      fail = true;
      bad = v;
    });
    if (fail) {
      return Status::InvalidArgument("edge {" + std::to_string(u) + "," +
                                     std::to_string(bad) + "} not in any bag");
    }
  }
  return Status::Ok();
}

Status TreeDecomposition::ValidateForHypergraph(const Hypergraph& h) const {
  Status s = internal::ValidateTreeAndConnectedness(bags, tree_edges,
                                                    h.num_vertices());
  if (!s.ok()) return s;
  return internal::ValidateEdgesInsideBags(h, bags);
}

}  // namespace ghd
