// Greedy elimination-ordering heuristics. These supply the upper-bound side
// of every width computation: treewidth via EliminationWidth, and GHW via
// covering the elimination bags with hyperedges. The greedy strategies run on
// the sparse EliminationGraph; the Graph overloads convert and call the same
// code.
#ifndef GHD_TD_ORDERING_HEURISTICS_H_
#define GHD_TD_ORDERING_HEURISTICS_H_

#include <string>
#include <vector>

#include "graph/elimination_graph.h"
#include "graph/graph.h"
#include "util/rng.h"

namespace ghd {

/// Available greedy ordering strategies.
enum class OrderingHeuristic {
  kMinFill,    // eliminate the vertex adding the fewest fill edges
  kMinDegree,  // eliminate the vertex of minimum current degree
  kMcs,        // maximum cardinality search (reverse visit order)
  kMinWidth,   // minimum degree in the *original* graph, fixed upfront
  kRandom,     // uniformly random permutation
};

/// Human-readable name ("min-fill", ...), for report tables.
std::string OrderingHeuristicName(OrderingHeuristic h);

/// Computes an elimination ordering of g (first-eliminated first). Ties break
/// toward the lowest vertex id, or randomly when `rng` is non-null.
std::vector<int> ComputeOrdering(const EliminationGraph& g,
                                 OrderingHeuristic heuristic,
                                 Rng* rng = nullptr);
std::vector<int> ComputeOrdering(const Graph& g, OrderingHeuristic heuristic,
                                 Rng* rng = nullptr);

/// Min-fill ordering (the default upper-bound heuristic).
std::vector<int> MinFillOrdering(const EliminationGraph& g, Rng* rng = nullptr);
std::vector<int> MinFillOrdering(const Graph& g, Rng* rng = nullptr);

/// Min-degree ordering.
std::vector<int> MinDegreeOrdering(const EliminationGraph& g,
                                   Rng* rng = nullptr);
std::vector<int> MinDegreeOrdering(const Graph& g, Rng* rng = nullptr);

/// Maximum cardinality search ordering (eliminate in reverse visit order).
std::vector<int> McsOrdering(const EliminationGraph& g, Rng* rng = nullptr);
std::vector<int> McsOrdering(const Graph& g, Rng* rng = nullptr);

}  // namespace ghd

#endif  // GHD_TD_ORDERING_HEURISTICS_H_
