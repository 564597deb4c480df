// Treewidth lower bounds. These feed both the exact treewidth search and —
// via the tw/k-set-cover combination in core/ghw_lower.h — the GHW lower
// bound used by the exact GHW branch-and-bound. Each bound runs on the
// sparse EliminationGraph; the Graph overloads convert and call the same
// code.
#ifndef GHD_TD_LOWER_BOUNDS_H_
#define GHD_TD_LOWER_BOUNDS_H_

#include "graph/elimination_graph.h"
#include "graph/graph.h"

namespace ghd {

/// Degeneracy (MMD): max over the min-degree removal sequence. tw >= this.
int DegeneracyLowerBound(const EliminationGraph& g);
int DegeneracyLowerBound(const Graph& g);

/// Minor-min-width (MMD+ / least-c): contracts the min-degree vertex with its
/// min-degree neighbor instead of deleting. At least as strong as degeneracy.
int MinorMinWidthLowerBound(const EliminationGraph& g);
int MinorMinWidthLowerBound(const Graph& g);

/// Ramachandramurthi gamma with contractions (minor-gamma_R): gamma of each
/// successive minor. gamma(G) = n-1 for complete graphs, otherwise the
/// smallest degree bound witnessed by a non-universal vertex.
int GammaRLowerBound(const EliminationGraph& g);
int GammaRLowerBound(const Graph& g);

/// Best of the above three (the bound used by default everywhere).
int TreewidthLowerBound(const EliminationGraph& g);
int TreewidthLowerBound(const Graph& g);

}  // namespace ghd

#endif  // GHD_TD_LOWER_BOUNDS_H_
