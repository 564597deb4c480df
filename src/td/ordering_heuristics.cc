#include "td/ordering_heuristics.h"

#include <algorithm>
#include <limits>

#include "util/check.h"

namespace ghd {
namespace {

// Repeatedly eliminates the vertex minimizing `score`, with deterministic or
// randomized tie-breaking. `score(work, v)` may read only v's neighborhood
// and the edges among it. Eliminating x changes exactly the neighborhoods of
// N(x) and the edges among the neighborhoods of N(N(x)), so only those
// cached scores are recomputed; the pick still scans all vertices by
// ascending id, so tie lists and Rng draws are those of a full rescoring.
template <typename ScoreFn>
std::vector<int> GreedyEliminate(const Graph& g, Rng* rng, ScoreFn score) {
  Graph work = g;
  const int n = g.num_vertices();
  std::vector<char> alive(n, 1);
  std::vector<long> cached(n);
  for (int v = 0; v < n; ++v) cached[v] = score(work, v);
  std::vector<int> ordering;
  ordering.reserve(n);
  std::vector<int> tied;
  for (int step = 0; step < n; ++step) {
    long best = std::numeric_limits<long>::max();
    tied.clear();
    for (int v = 0; v < n; ++v) {
      if (!alive[v]) continue;
      const long s = cached[v];
      if (s < best) {
        best = s;
        tied.assign(1, v);
      } else if (s == best && rng != nullptr) {
        tied.push_back(v);
      }
    }
    const int pick = (rng != nullptr && tied.size() > 1)
                         ? tied[rng->UniformInt(static_cast<int>(tied.size()))]
                         : tied.front();
    ordering.push_back(pick);
    alive[pick] = 0;
    const VertexSet neighbors = work.Neighbors(pick);
    work.EliminateVertex(pick);
    VertexSet stale = neighbors;
    neighbors.ForEach([&](int u) { stale |= work.Neighbors(u); });
    stale.ForEach([&](int u) {
      if (alive[u]) cached[u] = score(work, u);
    });
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

std::vector<int> MinFillOrdering(const Graph& g, Rng* rng) {
  return GreedyEliminate(
      g, rng, [](const Graph& work, int v) -> long {
        return work.EliminationFill(v);
      });
}

std::vector<int> MinDegreeOrdering(const Graph& g, Rng* rng) {
  return GreedyEliminate(g, rng, [](const Graph& work, int v) -> long {
    return work.Degree(v);
  });
}

std::vector<int> McsOrdering(const Graph& g, Rng* rng) {
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
    g.Neighbors(pick).ForEach([&](int u) {
      if (!visited[u]) ++weight[u];
    });
  }
  // MCS visits toward the "top" of the ordering; eliminate in reverse.
  std::reverse(visit_order.begin(), visit_order.end());
  return visit_order;
}

std::vector<int> ComputeOrdering(const Graph& g, OrderingHeuristic heuristic,
                                 Rng* rng) {
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

}  // namespace ghd
