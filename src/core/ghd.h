// Generalized hypertree decompositions (Gottlob-Leone-Scarcello): a tree
// decomposition whose bags χ(p) are each covered by a small set λ(p) of
// hyperedges. Width = max |λ(p)|; the minimum over all decompositions is the
// generalized hypertree width ghw(H) — the object of study of the paper.
#ifndef GHD_CORE_GHD_H_
#define GHD_CORE_GHD_H_

#include <utility>
#include <vector>

#include "hypergraph/hypergraph.h"
#include "td/tree_decomposition.h"
#include "util/bitset.h"
#include "util/status.h"

namespace ghd {

/// A generalized hypertree decomposition 〈T, χ, λ〉.
struct GeneralizedHypertreeDecomposition {
  /// χ: vertex set per tree node.
  std::vector<VertexSet> bags;
  /// λ: hyperedge ids per tree node; var(λ(p)) must contain bags[p].
  std::vector<std::vector<int>> guards;
  /// Tree structure over node indices.
  std::vector<std::pair<int, int>> tree_edges;

  int num_nodes() const { return static_cast<int>(bags.size()); }

  /// Width = max |λ(p)| (0 for the empty decomposition).
  int Width() const;

  /// Checks all three GHD conditions against h:
  ///  (1) every hyperedge is inside some bag,
  ///  (2) per-vertex connectedness over the tree,
  ///  (3) χ(p) ⊆ var(λ(p)) for every node.
  Status Validate(const Hypergraph& h) const;

  /// True when for each hyperedge e some node p has e ⊆ χ(p) and e ∈ λ(p)
  /// ("complete" GHDs are the form CSP solvers consume).
  bool IsComplete(const Hypergraph& h) const;

  /// The underlying tree decomposition (forgets λ).
  TreeDecomposition ToTreeDecomposition() const;
};

/// Transforms a valid GHD into a complete GHD of the same width by attaching,
/// for each hyperedge e without a witness node, a leaf with χ = e, λ = {e}
/// under a node whose bag contains e (Lemma 4.4 of Gottlob et al.).
GeneralizedHypertreeDecomposition MakeComplete(
    const Hypergraph& h, GeneralizedHypertreeDecomposition ghd);

/// Appends `part`, a decomposition of the sub-hypergraph of h on the edges
/// `edge_ids` (guards are indices into `edge_ids`), to `ghd`: guards map back
/// to h's edge ids and part's node 0 hangs under node `parent` of `ghd` (no
/// link when `parent` < 0). For vertex-disjoint parts this keeps every GHD
/// condition, and the special condition when each part is rooted at its
/// node 0.
void AppendPart(GeneralizedHypertreeDecomposition* ghd,
                GeneralizedHypertreeDecomposition part,
                const std::vector<int>& edge_ids, int parent);

}  // namespace ghd

#endif  // GHD_CORE_GHD_H_
