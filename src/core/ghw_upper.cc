#include "core/ghw_upper.h"

#include <algorithm>

#include "hypergraph/flat_hypergraph.h"
#include "setcover/set_cover.h"
#include "td/bucket_elimination.h"
#include "util/check.h"

namespace ghd {

std::vector<int> CoverBag(const Hypergraph& h, const VertexSet& bag,
                          CoverMode mode) {
  const FlatHypergraph& flat = h.Flat();
  const std::vector<int32_t>& voff = flat.vertex_offsets();
  const std::vector<int32_t>& vedges = flat.vertex_edges();
  const std::vector<int> members = bag.ToVector();
  std::vector<int> edges;  // edges meeting the bag, ascending
  for (int v : members) {
    edges.insert(edges.end(), vedges.begin() + voff[v],
                 vedges.begin() + voff[v + 1]);
  }
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  // Local set k is edges[k] ∩ bag over the universe {0..|bag|-1}, member i
  // standing for members[i].
  const int size = static_cast<int>(members.size());
  std::vector<VertexSet> sets(edges.size(), VertexSet(size));
  for (int i = 0; i < size; ++i) {
    const int v = members[i];
    for (int j = voff[v]; j < voff[v + 1]; ++j) {
      const auto k = std::lower_bound(edges.begin(), edges.end(), vedges[j]);
      sets[k - edges.begin()].Set(i);
    }
  }
  const VertexSet target = VertexSet::Full(size);
  std::vector<int> cover;
  if (mode == CoverMode::kExact) {
    auto exact = ExactSetCover(target, sets);
    GHD_CHECK(exact.has_value());  // Unbudgeted exact cover always returns.
    cover = std::move(*exact);
  } else {
    cover = GreedySetCover(target, sets);
  }
  for (int& k : cover) k = edges[k];
  return cover;
}

GhwUpperBoundResult GhwFromOrdering(const Hypergraph& h,
                                    const std::vector<int>& ordering,
                                    CoverMode mode) {
  const Graph primal = h.PrimalGraph();
  // Vertices in no hyperedge may not appear in bags (condition 3 would be
  // unsatisfiable); their elimination bags are emptied.
  const VertexSet covered = h.CoveredVertices();
  TreeDecomposition td = TdFromOrdering(primal, ordering);
  GhwUpperBoundResult result;
  result.ordering = ordering;
  result.ghd.tree_edges = td.tree_edges;
  result.ghd.bags.reserve(td.bags.size());
  result.ghd.guards.reserve(td.bags.size());
  for (VertexSet& bag : td.bags) {
    bag &= covered;
    std::vector<int> lambda = CoverBag(h, bag, mode);
    result.width = std::max(result.width, static_cast<int>(lambda.size()));
    result.ghd.guards.push_back(std::move(lambda));
    result.ghd.bags.push_back(std::move(bag));
  }
  return result;
}

int GhwWidthFromOrdering(const Hypergraph& h, const std::vector<int>& ordering,
                         CoverMode mode, int stop_at_width) {
  const Graph primal = h.PrimalGraph();
  const VertexSet covered = h.CoveredVertices();
  Graph work = primal;
  int width = 0;
  for (int v : ordering) {
    VertexSet bag = work.Neighbors(v);
    bag.Set(v);
    bag &= covered;
    const int cost = static_cast<int>(CoverBag(h, bag, mode).size());
    width = std::max(width, cost);
    if (stop_at_width >= 0 && width >= stop_at_width) return width;
    work.EliminateVertex(v);
  }
  return width;
}

GhwUpperBoundResult GhwUpperBound(const Hypergraph& h,
                                  OrderingHeuristic heuristic,
                                  CoverMode mode) {
  const Graph primal = h.PrimalGraph();
  return GhwFromOrdering(h, ComputeOrdering(primal, heuristic), mode);
}

GhwUpperBoundResult GhwUpperBoundMultiRestart(const Hypergraph& h,
                                              int restarts, uint64_t seed,
                                              CoverMode mode) {
  GHD_CHECK(restarts >= 1);
  const Graph primal = h.PrimalGraph();
  Rng rng(seed);
  GhwUpperBoundResult best;
  bool have_best = false;
  for (int r = 0; r < restarts; ++r) {
    const OrderingHeuristic heuristic =
        (r % 2 == 0) ? OrderingHeuristic::kMinFill
                     : OrderingHeuristic::kMinDegree;
    std::vector<int> ordering = ComputeOrdering(primal, heuristic, &rng);
    GhwUpperBoundResult candidate = GhwFromOrdering(h, ordering, mode);
    if (!have_best || candidate.width < best.width) {
      best = std::move(candidate);
      have_best = true;
    }
  }
  return best;
}

}  // namespace ghd
