#include "core/ghd.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "util/check.h"

namespace ghd {

int GeneralizedHypertreeDecomposition::Width() const {
  size_t w = 0;
  for (const auto& lambda : guards) w = std::max(w, lambda.size());
  return static_cast<int>(w);
}

Status GeneralizedHypertreeDecomposition::Validate(const Hypergraph& h) const {
  if (bags.size() != guards.size()) {
    return Status::InvalidArgument("χ and λ have different node counts");
  }
  Status s = internal::ValidateTreeAndConnectedness(bags, tree_edges,
                                                    h.num_vertices());
  if (!s.ok()) return s;
  // Condition (1): every hyperedge inside some bag.
  s = internal::ValidateEdgesInsideBags(h, bags);
  if (!s.ok()) return s;
  // Condition (3): χ(p) ⊆ var(λ(p)).
  for (int p = 0; p < num_nodes(); ++p) {
    VertexSet lambda_vars(h.num_vertices());
    for (int e : guards[p]) {
      if (e < 0 || e >= h.num_edges()) {
        return Status::InvalidArgument("guard edge id out of range");
      }
      lambda_vars |= h.edge(e);
    }
    if (!bags[p].IsSubsetOf(lambda_vars)) {
      return Status::InvalidArgument("bag of node " + std::to_string(p) +
                                     " not covered by its λ");
    }
  }
  return Status::Ok();
}

bool GeneralizedHypertreeDecomposition::IsComplete(const Hypergraph& h) const {
  for (int e = 0; e < h.num_edges(); ++e) {
    bool witnessed = false;
    for (int p = 0; p < num_nodes() && !witnessed; ++p) {
      if (h.edge(e).IsSubsetOf(bags[p]) &&
          std::find(guards[p].begin(), guards[p].end(), e) !=
              guards[p].end()) {
        witnessed = true;
      }
    }
    if (!witnessed) return false;
  }
  return true;
}

TreeDecomposition GeneralizedHypertreeDecomposition::ToTreeDecomposition()
    const {
  TreeDecomposition td;
  td.bags = bags;
  td.tree_edges = tree_edges;
  return td;
}

GeneralizedHypertreeDecomposition MakeComplete(
    const Hypergraph& h, GeneralizedHypertreeDecomposition ghd) {
  GHD_CHECK(ghd.num_nodes() > 0);
  for (int e = 0; e < h.num_edges(); ++e) {
    bool witnessed = false;
    int host = -1;
    for (int p = 0; p < ghd.num_nodes(); ++p) {
      if (h.edge(e).IsSubsetOf(ghd.bags[p])) {
        if (host < 0) host = p;
        if (std::find(ghd.guards[p].begin(), ghd.guards[p].end(), e) !=
            ghd.guards[p].end()) {
          witnessed = true;
          break;
        }
      }
    }
    if (witnessed) continue;
    GHD_CHECK(host >= 0);  // Validate()'s condition (1) guarantees a host.
    // New leaf with χ = e, λ = {e}; e's vertices all occur in the host bag,
    // so per-vertex connectedness is preserved.
    ghd.bags.push_back(h.edge(e));
    ghd.guards.push_back({e});
    ghd.tree_edges.emplace_back(host, ghd.num_nodes() - 1);
  }
  return ghd;
}

void AppendPart(GeneralizedHypertreeDecomposition* ghd,
                GeneralizedHypertreeDecomposition part,
                const std::vector<int>& edge_ids, int parent) {
  const int offset = ghd->num_nodes();
  for (int node = 0; node < part.num_nodes(); ++node) {
    ghd->bags.push_back(std::move(part.bags[node]));
    std::vector<int> mapped;
    for (int local : part.guards[node]) mapped.push_back(edge_ids[local]);
    ghd->guards.push_back(std::move(mapped));
  }
  for (const auto& [a, b] : part.tree_edges) {
    ghd->tree_edges.emplace_back(a + offset, b + offset);
  }
  if (parent >= 0 && part.num_nodes() > 0) {
    ghd->tree_edges.emplace_back(parent, offset);
  }
}

}  // namespace ghd
