#include "core/front_door.h"

#include <utility>

#include "util/check.h"

namespace ghd {

GeneralizedHypertreeDecomposition GraftGyoEdges(
    const Hypergraph& h, const GyoReduction& gyo,
    const std::vector<char>& hang, GeneralizedHypertreeDecomposition base) {
  GeneralizedHypertreeDecomposition out = std::move(base);
  // Built before any node is added, so it finds base nodes only.
  const internal::BagIndex base_index(out.bags, h.num_vertices());
  // The node whose bag holds the edge: its own node once hung, or for a
  // survivor its host in base (or the leaf under it).
  std::vector<int> node_of(h.num_edges(), -1);
  auto add_node = [&](int e, int parent) {
    const int id = out.num_nodes();
    out.bags.push_back(h.edge(e));
    out.guards.push_back({e});
    if (parent >= 0) out.tree_edges.emplace_back(parent, id);
    return id;
  };
  for (size_t i = 0; i < gyo.core_edges.size(); ++i) {
    const int c = gyo.core_edges[i];
    if (!hang[c]) continue;
    const int host = base_index.FirstHolder(gyo.residual[i]);
    GHD_CHECK(host >= 0);  // base covers the residual of c
    node_of[c] =
        h.edge(c).IsSubsetOf(out.bags[host]) ? host : add_node(c, host);
  }
  for (auto it = gyo.removal_order.rbegin(); it != gyo.removal_order.rend();
       ++it) {
    const int e = *it;
    if (!hang[e]) continue;
    const int c = gyo.container[e];
    const int parent = c >= 0 ? node_of[c] : out.num_nodes() == 0 ? -1 : 0;
    GHD_CHECK(c < 0 || parent >= 0);  // the container is placed first
    node_of[e] = add_node(e, parent);
  }
  return out;
}

}  // namespace ghd
