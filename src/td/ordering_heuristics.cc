#include "td/ordering_heuristics.h"

#include <algorithm>
#include <limits>

#include "util/check.h"
#include "util/tournament_tree.h"

namespace ghd {
namespace {

// Repeatedly eliminates the vertex minimizing `score`, with deterministic or
// randomized tie-breaking. `score(work, v)` may read only v's neighborhood
// and the edges among it. Eliminating x changes exactly the neighborhoods of
// N(x) and, when kSecondRing is set (scores that read the edges among a
// neighborhood), the edges among the neighborhoods of N(N(x)); only those
// cached scores are recomputed. The pick is the lowest id of minimum score,
// or the Rng's choice among all tied ids in ascending order: the tie lists
// and Rng draws of a full rescan of every vertex.
template <bool kSecondRing, typename ScoreFn>
std::vector<int> GreedyEliminate(const EliminationGraph& g, Rng* rng,
                                 ScoreFn score) {
  EliminationGraph work = g;
  const int n = g.num_vertices();
  TournamentTree scores(n);
  for (int v = 0; v < n; ++v) scores.Init(v, score(work, v));
  scores.Rebuild();
  std::vector<int> ordering;
  ordering.reserve(n);
  std::vector<int32_t> neighbors;
  std::vector<int> rescored_at(n, -1);
  for (int step = 0; step < n; ++step) {
    const int ties = scores.Ties();
    const int pick = scores.Tied(rng != nullptr && ties > 1
                                     ? rng->UniformInt(ties)
                                     : 0);
    ordering.push_back(pick);
    scores.Set(pick, TournamentTree::kNone);
    const auto current = work.Neighbors(pick);
    neighbors.assign(current.begin(), current.end());
    work.Eliminate(pick);
    auto rescore = [&](int u) {
      if (rescored_at[u] == step) return;
      rescored_at[u] = step;
      scores.Set(u, score(work, u));
    };
    for (int u : neighbors) rescore(u);
    if (kSecondRing) {
      for (int u : neighbors) {
        for (int w : work.Neighbors(u)) rescore(w);
      }
    }
  }
  return ordering;
}

}  // namespace

std::string OrderingHeuristicName(OrderingHeuristic h) {
  switch (h) {
    case OrderingHeuristic::kMinFill:
      return "min-fill";
    case OrderingHeuristic::kMinDegree:
      return "min-degree";
    case OrderingHeuristic::kMcs:
      return "mcs";
    case OrderingHeuristic::kMinWidth:
      return "min-width";
    case OrderingHeuristic::kRandom:
      return "random";
  }
  return "unknown";
}

std::vector<int> MinFillOrdering(const EliminationGraph& g, Rng* rng) {
  return GreedyEliminate<true>(
      g, rng,
      [](const EliminationGraph& work, int v) { return work.FillIn(v); });
}

std::vector<int> MinDegreeOrdering(const EliminationGraph& g, Rng* rng) {
  return GreedyEliminate<false>(
      g, rng, [](const EliminationGraph& work, int v) -> long {
        return work.Degree(v);
      });
}

std::vector<int> McsOrdering(const EliminationGraph& g, Rng* rng) {
  const int n = g.num_vertices();
  std::vector<int> weight(n, 0);
  std::vector<char> visited(n, 0);
  std::vector<int> visit_order;
  visit_order.reserve(n);
  std::vector<int> tied;
  for (int step = 0; step < n; ++step) {
    int best = -1;
    tied.clear();
    for (int v = 0; v < n; ++v) {
      if (visited[v]) continue;
      if (weight[v] > best) {
        best = weight[v];
        tied.assign(1, v);
      } else if (weight[v] == best && rng != nullptr) {
        tied.push_back(v);
      }
    }
    const int pick = (rng != nullptr && tied.size() > 1)
                         ? tied[rng->UniformInt(static_cast<int>(tied.size()))]
                         : tied.front();
    visited[pick] = 1;
    visit_order.push_back(pick);
    for (int u : g.Neighbors(pick)) {
      if (!visited[u]) ++weight[u];
    }
  }
  // MCS visits toward the "top" of the ordering; eliminate in reverse.
  std::reverse(visit_order.begin(), visit_order.end());
  return visit_order;
}

std::vector<int> MinFillOrdering(const Graph& g, Rng* rng) {
  return MinFillOrdering(EliminationGraph(g), rng);
}

std::vector<int> MinDegreeOrdering(const Graph& g, Rng* rng) {
  return MinDegreeOrdering(EliminationGraph(g), rng);
}

std::vector<int> McsOrdering(const Graph& g, Rng* rng) {
  return McsOrdering(EliminationGraph(g), rng);
}

std::vector<int> ComputeOrdering(const EliminationGraph& g,
                                 OrderingHeuristic heuristic, Rng* rng) {
  switch (heuristic) {
    case OrderingHeuristic::kMinFill:
      return MinFillOrdering(g, rng);
    case OrderingHeuristic::kMinDegree:
      return MinDegreeOrdering(g, rng);
    case OrderingHeuristic::kMcs:
      return McsOrdering(g, rng);
    case OrderingHeuristic::kMinWidth: {
      // Order by degree in the original graph (stable for determinism).
      std::vector<int> ordering(g.num_vertices());
      for (int v = 0; v < g.num_vertices(); ++v) ordering[v] = v;
      std::stable_sort(ordering.begin(), ordering.end(), [&](int a, int b) {
        return g.Degree(a) < g.Degree(b);
      });
      return ordering;
    }
    case OrderingHeuristic::kRandom: {
      std::vector<int> ordering(g.num_vertices());
      for (int v = 0; v < g.num_vertices(); ++v) ordering[v] = v;
      GHD_CHECK(rng != nullptr);
      rng->Shuffle(&ordering);
      return ordering;
    }
  }
  GHD_CHECK(false);
  return {};
}

std::vector<int> ComputeOrdering(const Graph& g, OrderingHeuristic heuristic,
                                 Rng* rng) {
  return ComputeOrdering(EliminationGraph(g), heuristic, rng);
}

}  // namespace ghd
