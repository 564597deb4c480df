// Differential tests for the pre-passes that run before (or instead of) the
// exact width engines: the treewidth lower bounds, the GYO reduction, the
// greedy elimination orderings, the greedy and exact set covers, the per-bag
// covers, bucket elimination, the multi-restart upper bound, the exact GHW
// branch and bound and the structural statistics (intersection widths,
// connectivity). The GYO front door of HypertreeWidth and AnytimeGhw is
// swept against the engines it bypasses.
// Each is compared with a reference version kept only here, which rescans
// the whole instance at every step on the dense Graph (and, for the
// multi-restart and the branch and bound, covers every bag without a memo
// and never prunes a restart), on random graphs and hypergraphs, including
// universes on both sides of the 64- and 128-bit word boundaries, and on
// data/*.hg and relabeled cycles, adders and triangle strips. The library
// versions must return the same values, residuals, orderings, covers,
// decompositions and search-node counts, and draw the same random numbers.
#include <algorithm>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/anytime.h"
#include "core/ghw_exact.h"
#include "core/ghw_lower.h"
#include "core/ghw_upper.h"
#include "core/k_decider.h"
#include "gen/circuits.h"
#include "gen/generators.h"
#include "gen/random_hypergraphs.h"
#include "gtest/gtest.h"
#include "htd/det_k_decomp.h"
#include "htd/hypertree_decomposition.h"
#include "hypergraph/acyclicity.h"
#include "hypergraph/canonical.h"
#include "hypergraph/hg_io.h"
#include "hypergraph/stats.h"
#include "setcover/set_cover.h"
#include "td/bucket_elimination.h"
#include "td/lower_bounds.h"
#include "td/ordering_heuristics.h"
#include "util/resource_governor.h"
#include "util/rng.h"

namespace ghd {
namespace {

const int kBoundarySizes[] = {63, 64, 65, 127, 128, 129};

// ---- Reference treewidth lower bounds: popcount every row at every step.

int RefMinDegreeAlive(const Graph& g, const std::vector<char>& alive) {
  int best = -1;
  int best_deg = g.num_vertices() + 1;
  for (int v = 0; v < g.num_vertices(); ++v) {
    if (!alive[v]) continue;
    const int d = g.Degree(v);
    if (d >= 1 && d < best_deg) {
      best_deg = d;
      best = v;
    }
  }
  return best;
}

int RefMinDegreeNeighbor(const Graph& g, int v) {
  int best = -1;
  int best_deg = g.num_vertices() + 1;
  g.Neighbors(v).ForEach([&](int u) {
    if (g.Degree(u) < best_deg) {
      best_deg = g.Degree(u);
      best = u;
    }
  });
  return best;
}

int RefDegeneracy(const Graph& g) {
  Graph work = g;
  std::vector<char> alive(g.num_vertices(), 1);
  int lb = 0;
  for (int v; (v = RefMinDegreeAlive(work, alive)) >= 0;) {
    lb = std::max(lb, work.Degree(v));
    work.IsolateVertex(v);
    alive[v] = 0;
  }
  return lb;
}

int RefMinorMinWidth(const Graph& g) {
  Graph work = g;
  std::vector<char> alive(g.num_vertices(), 1);
  int lb = 0;
  for (int v; (v = RefMinDegreeAlive(work, alive)) >= 0;) {
    lb = std::max(lb, work.Degree(v));
    work.ContractEdge(RefMinDegreeNeighbor(work, v), v);
    alive[v] = 0;
  }
  return lb;
}

int RefGammaR(const Graph& g) {
  Graph work = g;
  std::vector<char> alive(g.num_vertices(), 1);
  int lb = 0;
  while (true) {
    std::vector<int> active;
    for (int v = 0; v < work.num_vertices(); ++v) {
      if (alive[v] && work.Degree(v) >= 1) active.push_back(v);
    }
    if (active.empty()) break;
    std::stable_sort(active.begin(), active.end(), [&](int a, int b) {
      return work.Degree(a) < work.Degree(b);
    });
    int chosen = -1;
    for (size_t i = 1; i < active.size() && chosen < 0; ++i) {
      for (size_t j = 0; j < i; ++j) {
        if (!work.HasEdge(active[i], active[j])) {
          chosen = active[i];
          break;
        }
      }
    }
    if (chosen < 0) {
      lb = std::max(lb, static_cast<int>(active.size()) - 1);
      break;
    }
    lb = std::max(lb, work.Degree(chosen));
    work.ContractEdge(RefMinDegreeNeighbor(work, chosen), chosen);
    alive[chosen] = 0;
  }
  return lb;
}

// ---- Reference GYO: recount degrees and test every pair each round.

std::vector<VertexSet> RefGyoResidual(const Hypergraph& h) {
  const int n = h.num_vertices();
  std::vector<VertexSet> edges = h.edges();
  std::vector<char> alive(edges.size(), 1);
  bool changed = true;
  while (changed) {
    changed = false;
    std::vector<int> degree(n, 0);
    for (size_t e = 0; e < edges.size(); ++e) {
      if (alive[e]) edges[e].ForEach([&](int v) { ++degree[v]; });
    }
    for (size_t e = 0; e < edges.size(); ++e) {
      if (!alive[e]) continue;
      VertexSet reduced = edges[e];
      reduced.ForEach([&](int v) {
        if (degree[v] <= 1) {
          reduced.Reset(v);
          changed = true;
        }
      });
      edges[e] = reduced;
      if (edges[e].Empty()) alive[e] = 0;
    }
    for (size_t e = 0; e < edges.size(); ++e) {
      if (!alive[e]) continue;
      for (size_t f = 0; f < edges.size(); ++f) {
        if (e != f && alive[f] && edges[e].IsSubsetOf(edges[f])) {
          alive[e] = 0;
          changed = true;
          break;
        }
      }
    }
  }
  std::vector<VertexSet> residual;
  for (size_t e = 0; e < edges.size(); ++e) {
    if (alive[e]) residual.push_back(edges[e]);
  }
  return residual;
}

// ---- Reference statistics: every pair, every c-tuple of universe-wide sets.

int RefIntersectionWidth(const Hypergraph& h) {
  int best = 0;
  for (int a = 0; a < h.num_edges(); ++a) {
    for (int b = a + 1; b < h.num_edges(); ++b) {
      best = std::max(best, h.edge(a).IntersectCount(h.edge(b)));
    }
  }
  return best;
}

// Extends the intersection `acc` (over edges chosen so far) with `remaining`
// more edges starting from index `from`, tracking the best count found.
void RefMultiIntersectRec(const Hypergraph& h, const VertexSet& acc, int from,
                          int remaining, int* best) {
  if (remaining == 0) {
    *best = std::max(*best, acc.Count());
    return;
  }
  if (acc.Count() <= *best) return;  // Intersections only shrink.
  for (int e = from; e <= h.num_edges() - remaining; ++e) {
    VertexSet next = acc;
    next &= h.edge(e);
    if (next.Count() > *best) {
      RefMultiIntersectRec(h, next, e + 1, remaining - 1, best);
    }
  }
}

int RefMultiIntersectionWidth(const Hypergraph& h, int c) {
  if (h.num_edges() < c) return 0;
  if (c == 1) return h.Rank();
  int best = 0;
  for (int e = 0; e <= h.num_edges() - c; ++e) {
    RefMultiIntersectRec(h, h.edge(e), e + 1, c - 1, &best);
  }
  return best;
}

bool RefIsConnected(const Hypergraph& h) {
  const VertexSet covered = h.CoveredVertices();
  if (covered.Empty()) return true;
  return h.PrimalGraph().ComponentsWithin(covered).size() == 1;
}

// ---- Reference greedy elimination: rescore every vertex at every step.

template <typename ScoreFn>
std::vector<int> RefGreedyEliminate(const Graph& g, Rng* rng, ScoreFn score) {
  Graph work = g;
  const int n = g.num_vertices();
  std::vector<char> alive(n, 1);
  std::vector<int> ordering;
  std::vector<int> tied;
  for (int step = 0; step < n; ++step) {
    long best = std::numeric_limits<long>::max();
    tied.clear();
    for (int v = 0; v < n; ++v) {
      if (!alive[v]) continue;
      const long s = score(work, v);
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
    work.EliminateVertex(pick);
  }
  return ordering;
}

std::vector<int> RefMinFill(const Graph& g, Rng* rng) {
  return RefGreedyEliminate(g, rng, [](const Graph& w, int v) -> long {
    return w.EliminationFill(v);
  });
}

std::vector<int> RefMinDegree(const Graph& g, Rng* rng) {
  return RefGreedyEliminate(
      g, rng, [](const Graph& w, int v) -> long { return w.Degree(v); });
}

// ---- Reference greedy cover: recount every set's gain at every pick.

std::vector<int> RefGreedySetCover(const VertexSet& target,
                                   const std::vector<VertexSet>& sets,
                                   Rng* rng) {
  std::vector<int> chosen;
  VertexSet uncovered = target;
  std::vector<int> tied;
  while (!uncovered.Empty()) {
    int best_gain = 0;
    tied.clear();
    for (int s = 0; s < static_cast<int>(sets.size()); ++s) {
      const int gain = sets[s].IntersectCount(uncovered);
      if (gain > best_gain) {
        best_gain = gain;
        tied.assign(1, s);
      } else if (gain == best_gain && gain > 0 && rng != nullptr) {
        tied.push_back(s);
      }
    }
    const int pick = (rng != nullptr && tied.size() > 1)
                         ? tied[rng->UniformInt(static_cast<int>(tied.size()))]
                         : tied.front();
    chosen.push_back(pick);
    uncovered -= sets[pick];
  }
  return chosen;
}

// ---- Reference exact cover: branch and bound over VertexSets.

struct RefExactCoverSearch {
  const std::vector<VertexSet>* sets;
  int best_size = 0;
  std::vector<int> best;
  std::vector<int> current;
  int max_set_size = 1;

  void Recurse(const VertexSet& uncovered) {
    if (uncovered.Empty()) {
      if (static_cast<int>(current.size()) < best_size) {
        best_size = static_cast<int>(current.size());
        best = current;
      }
      return;
    }
    const int lb = (uncovered.Count() + max_set_size - 1) / max_set_size;
    if (static_cast<int>(current.size()) + lb >= best_size) return;
    int branch_vertex = -1;
    int fewest = static_cast<int>(sets->size()) + 1;
    uncovered.ForEach([&](int v) {
      int covering = 0;
      for (const VertexSet& s : *sets) covering += s.Test(v);
      if (covering < fewest) {
        fewest = covering;
        branch_vertex = v;
      }
    });
    if (fewest == 0) return;
    std::vector<std::pair<int, int>> candidates;  // (-gain, id)
    for (int s = 0; s < static_cast<int>(sets->size()); ++s) {
      if ((*sets)[s].Test(branch_vertex)) {
        candidates.emplace_back(-(*sets)[s].IntersectCount(uncovered), s);
      }
    }
    std::sort(candidates.begin(), candidates.end());
    for (const auto& [neg_gain, s] : candidates) {
      current.push_back(s);
      Recurse(uncovered - (*sets)[s]);
      current.pop_back();
    }
  }
};

std::vector<int> RefExactSetCover(const VertexSet& target,
                                  const std::vector<VertexSet>& sets) {
  RefExactCoverSearch search;
  search.sets = &sets;
  search.best = RefGreedySetCover(target, sets, nullptr);
  search.best_size = static_cast<int>(search.best.size());
  for (const VertexSet& s : sets) {
    search.max_set_size = std::max(search.max_set_size, s.Count());
  }
  search.Recurse(target);
  return search.best;
}

// ---- Reference bucket elimination on the dense graph.

TreeDecomposition RefTdFromOrdering(const Graph& g,
                                    const std::vector<int>& ordering) {
  const int n = g.num_vertices();
  Graph work = g;
  TreeDecomposition td;
  std::vector<int> position_of(n);
  for (int i = 0; i < n; ++i) position_of[ordering[i]] = i;
  std::vector<int> parent(n, -1);
  for (int i = 0; i < n; ++i) {
    const int v = ordering[i];
    VertexSet bag = work.Neighbors(v);
    bag.Set(v);
    td.bags.push_back(bag);
    int next = -1;
    work.Neighbors(v).ForEach([&](int u) {
      if (next == -1 || position_of[u] < position_of[next]) next = u;
    });
    if (next != -1) parent[i] = position_of[next];
    work.EliminateVertex(v);
  }
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

// ---- Reference bag covers: the cover solvers over every hyperedge.

std::vector<int> RefCoverBag(const Hypergraph& h, const VertexSet& bag,
                             CoverMode mode) {
  if (mode == CoverMode::kExact) return RefExactSetCover(bag, h.edges());
  return RefGreedySetCover(bag, h.edges(), nullptr);
}

GhwUpperBoundResult RefGhwFromOrdering(const Hypergraph& h,
                                       const std::vector<int>& ordering,
                                       CoverMode mode) {
  const VertexSet covered = h.CoveredVertices();
  TreeDecomposition td = RefTdFromOrdering(h.PrimalGraph(), ordering);
  GhwUpperBoundResult result;
  result.ordering = ordering;
  result.ghd.tree_edges = td.tree_edges;
  for (VertexSet& bag : td.bags) {
    bag &= covered;
    std::vector<int> lambda = RefCoverBag(h, bag, mode);
    result.width = std::max(result.width, static_cast<int>(lambda.size()));
    result.ghd.guards.push_back(std::move(lambda));
    result.ghd.bags.push_back(std::move(bag));
  }
  return result;
}

int RefGhwWidthFromOrdering(const Hypergraph& h,
                            const std::vector<int>& ordering, CoverMode mode,
                            int stop_at_width) {
  const VertexSet covered = h.CoveredVertices();
  Graph work = h.PrimalGraph();
  int width = 0;
  for (int v : ordering) {
    VertexSet bag = work.Neighbors(v);
    bag.Set(v);
    bag &= covered;
    width = std::max(width,
                     static_cast<int>(RefCoverBag(h, bag, mode).size()));
    if (stop_at_width >= 0 && width >= stop_at_width) return width;
    work.EliminateVertex(v);
  }
  return width;
}

// Every restart covered in full, no memo, no stop at a lower bound.
GhwUpperBoundResult RefMultiRestart(const Hypergraph& h, int restarts,
                                    uint64_t seed, CoverMode mode) {
  const Graph primal = h.PrimalGraph();
  Rng rng(seed);
  GhwUpperBoundResult best;
  for (int r = 0; r < restarts; ++r) {
    const std::vector<int> ordering = r % 2 == 0 ? RefMinFill(primal, &rng)
                                                 : RefMinDegree(primal, &rng);
    GhwUpperBoundResult candidate = RefGhwFromOrdering(h, ordering, mode);
    if (r == 0 || candidate.width < best.width) best = std::move(candidate);
  }
  return best;
}

int RefGhwLowerBoundFromTw(const Hypergraph& h, int tw) {
  if (h.num_edges() == 0) return 0;
  return std::max(1, CoverCountLowerBound(tw + 1, h.edges()));
}

int RefGhwLowerBound(const Hypergraph& h) {
  const Graph primal = h.PrimalGraph();
  return RefGhwLowerBoundFromTw(
      h, std::max(RefMinorMinWidth(primal), RefGammaR(primal)));
}

// The exact GHW branch and bound on the dense graph, sequential, with a
// plain map for the exact cover sizes: ExactGhw with default options and a
// node budget.
struct RefBnb {
  const Hypergraph* h;
  VertexSet covered;
  Budget* budget;
  long nodes = 0;
  int ub = 0;
  std::vector<int> best_ordering;
  std::map<VertexSet, int> cover_sizes;
  std::vector<int> prefix;
  std::vector<char> alive;
  int alive_count = 0;

  int ExactCoverSize(const VertexSet& bag) {
    auto it = cover_sizes.find(bag);
    if (it == cover_sizes.end()) {
      const int size =
          static_cast<int>(RefCoverBag(*h, bag, CoverMode::kExact).size());
      it = cover_sizes.emplace(bag, size).first;
    }
    return it->second;
  }

  void Accept(int width) {
    if (width >= ub) return;
    ub = width;
    best_ordering = prefix;
    for (int v = 0; v < static_cast<int>(alive.size()); ++v) {
      if (alive[v]) best_ordering.push_back(v);
    }
  }

  VertexSet BagOf(const Graph& g, int v) const {
    VertexSet bag = g.Neighbors(v);
    bag.Set(v);
    bag &= covered;
    return bag;
  }

  void Branch(const Graph& g, int v, int width) {
    Graph next = g;
    next.EliminateVertex(v);
    prefix.push_back(v);
    alive[v] = 0;
    --alive_count;
    Recurse(next, width);
    ++alive_count;
    alive[v] = 1;
    prefix.pop_back();
  }

  void Recurse(const Graph& g, int width_so_far) {
    ++nodes;
    if (!budget->Tick()) return;
    if (alive_count == 0) {
      Accept(width_so_far);
      return;
    }
    VertexSet remaining(g.num_vertices());
    for (int v = 0; v < g.num_vertices(); ++v) {
      if (alive[v]) remaining.Set(v);
    }
    remaining &= covered;
    const int rest_cost = static_cast<int>(
        RefCoverBag(*h, remaining, CoverMode::kGreedy).size());
    Accept(std::max(width_so_far, rest_cost));
    if (rest_cost <= width_so_far) return;
    const int node_lb = RefGhwLowerBoundFromTw(*h, RefMinorMinWidth(g));
    if (std::max(width_so_far, node_lb) >= ub) return;
    for (int v = 0; v < g.num_vertices(); ++v) {
      if (!alive[v] || !g.IsSimplicial(v)) continue;
      const int next_width = std::max(width_so_far, ExactCoverSize(BagOf(g, v)));
      if (next_width < ub) Branch(g, v, next_width);
      return;
    }
    std::vector<std::pair<int, int>> order;  // (cost, vertex)
    for (int v = 0; v < g.num_vertices(); ++v) {
      if (alive[v]) order.emplace_back(ExactCoverSize(BagOf(g, v)), v);
    }
    std::sort(order.begin(), order.end());
    for (const auto& [cost, v] : order) {
      const int next_width = std::max(width_so_far, cost);
      if (next_width >= ub) continue;
      Branch(g, v, next_width);
      if (budget->Stopped()) return;
    }
  }
};

// `warm` = RefMultiRestart(h, 4, 1, kExact), `root_lb` = RefGhwLowerBound(h).
ExactGhwResult RefExactGhw(const Hypergraph& h, const GhwUpperBoundResult& warm,
                           int root_lb, long node_budget) {
  ExactGhwResult result;
  if (root_lb >= warm.width) {
    result.lower_bound = root_lb;
    result.upper_bound = warm.width;
    result.exact = true;
    result.best_ordering = warm.ordering;
    result.best_ghd = warm.ghd;
    return result;
  }
  Budget budget(0, node_budget);
  RefBnb search;
  search.h = &h;
  search.covered = h.CoveredVertices();
  search.budget = &budget;
  search.ub = warm.width;
  search.alive.assign(h.num_vertices(), 1);
  search.alive_count = h.num_vertices();
  search.Recurse(h.PrimalGraph(), 0);
  result.nodes_visited = search.nodes;
  result.upper_bound = search.ub;
  result.exact = !budget.Stopped();
  result.lower_bound = result.exact ? result.upper_bound : root_lb;
  if (search.best_ordering.empty()) {
    result.best_ordering = warm.ordering;
    result.best_ghd = warm.ghd;
  } else {
    result.best_ordering = search.best_ordering;
    GhwUpperBoundResult witness =
        RefGhwFromOrdering(h, search.best_ordering, CoverMode::kExact);
    result.upper_bound = witness.width;
    result.best_ghd = std::move(witness.ghd);
  }
  return result;
}

// ---- Instances.

// `m` edges over `n` vertices of arity 0..max_arity; some edges repeat or
// shrink an earlier edge, so containment, duplicates and empty edges occur.
Hypergraph RandomHypergraph(int n, int m, int max_arity, Rng* rng) {
  std::vector<std::string> vertex_names, edge_names;
  for (int v = 0; v < n; ++v) vertex_names.push_back("v" + std::to_string(v));
  std::vector<VertexSet> edges;
  for (int e = 0; e < m; ++e) {
    VertexSet s(n);
    const int kind = rng->UniformInt(10);
    if (kind == 0 && !edges.empty()) {
      s = edges[rng->UniformInt(static_cast<int>(edges.size()))];
    } else if (kind == 1 && !edges.empty()) {
      s = edges[rng->UniformInt(static_cast<int>(edges.size()))];
      const int drop = s.First();
      if (drop >= 0) s.Reset(drop);
    } else {
      const int arity = rng->UniformInt(max_arity + 1);
      for (int i = 0; i < arity; ++i) s.Set(rng->UniformInt(n));
    }
    edges.push_back(std::move(s));
    edge_names.push_back("e" + std::to_string(e));
  }
  return Hypergraph(std::move(vertex_names), std::move(edge_names),
                    std::move(edges));
}

// An alpha-acyclic hypergraph: each edge keeps part of an earlier edge and
// adds fresh vertices, so GYO has to peel it all, one ear at a time.
Hypergraph RandomJoinTree(int n, Rng* rng) {
  std::vector<std::string> vertex_names, edge_names;
  for (int v = 0; v < n; ++v) vertex_names.push_back("v" + std::to_string(v));
  std::vector<VertexSet> edges;
  int next = 0;
  while (next < n) {
    VertexSet s(n);
    if (!edges.empty()) {
      const VertexSet& parent =
          edges[rng->UniformInt(static_cast<int>(edges.size()))];
      parent.ForEach([&](int v) {
        if (rng->Bernoulli(0.5)) s.Set(v);
      });
    }
    for (int k = 1 + rng->UniformInt(2); k > 0 && next < n; --k) s.Set(next++);
    edges.push_back(std::move(s));
    edge_names.push_back("e" + std::to_string(edges.size() - 1));
  }
  return Hypergraph(std::move(vertex_names), std::move(edge_names),
                    std::move(edges));
}

std::vector<Graph> RandomGraphs() {
  std::vector<Graph> graphs;
  uint64_t seed = 1;
  for (int n : {1, 2, 5, 9, 17, 30}) {
    for (double p : {0.05, 0.15, 0.4, 0.8}) {
      for (int r = 0; r < 12; ++r) graphs.push_back(RandomGraph(n, p, seed++));
    }
  }
  for (int n : kBoundarySizes) {
    for (double p : {0.01, 0.03, 0.1}) graphs.push_back(RandomGraph(n, p, seed++));
  }
  return graphs;
}

std::vector<Hypergraph> RandomHypergraphs() {
  std::vector<Hypergraph> out;
  Rng rng(2026);
  for (int trial = 0; trial < 400; ++trial) {
    const int n = 1 + rng.UniformInt(24);
    out.push_back(RandomHypergraph(n, rng.UniformInt(2 * n + 2), 4, &rng));
  }
  for (int n : kBoundarySizes) {
    out.push_back(RandomHypergraph(n, n, 3, &rng));
    out.push_back(RandomHypergraph(n, n / 2, 4, &rng));
    out.push_back(RandomJoinTree(n, &rng));
  }
  return out;
}

// data/*.hg plus cycles, adders and triangle strips, each generated one
// also under a seeded relabeling (vertex ids and edge order shuffled), which
// moves every tie the heuristics break.
std::vector<Hypergraph> FamilyHypergraphs() {
  std::vector<Hypergraph> out;
  for (const char* file :
       {"acyclic_star", "adder_4", "bridge_3", "cycle_256", "example",
        "grid3x3", "grid7x7", "triangle", "tristrip_64", "window_160"}) {
    out.push_back(
        LoadHg(std::string(GHD_DATA_DIR) + "/" + file + ".hg").value());
  }
  std::vector<Hypergraph> generated;
  for (int n : {5, 9, 16, 40}) generated.push_back(CycleHypergraph(n));
  for (int k : {2, 3, 5}) generated.push_back(AdderHypergraph(k));
  for (int k : {3, 7, 12}) generated.push_back(TriangleStripHypergraph(k));
  Rng rng(1000);
  for (const Hypergraph& h : generated) {
    std::vector<int> vertex_perm(h.num_vertices()), edge_perm(h.num_edges());
    for (int v = 0; v < h.num_vertices(); ++v) vertex_perm[v] = v;
    for (int e = 0; e < h.num_edges(); ++e) edge_perm[e] = e;
    rng.Shuffle(&vertex_perm);
    rng.Shuffle(&edge_perm);
    out.push_back(h);
    out.push_back(RelabeledHypergraph(h, vertex_perm, edge_perm));
  }
  return out;
}

void ExpectSameGhd(const GeneralizedHypertreeDecomposition& got,
                   const GeneralizedHypertreeDecomposition& want) {
  EXPECT_EQ(got.bags, want.bags);
  EXPECT_EQ(got.guards, want.guards);
  EXPECT_EQ(got.tree_edges, want.tree_edges);
}

// ---- Tests.

TEST(PrepassDiffTest, TreewidthLowerBoundsMatchReference) {
  for (const Graph& g : RandomGraphs()) {
    SCOPED_TRACE("n=" + std::to_string(g.num_vertices()) +
                 " m=" + std::to_string(g.NumEdges()));
    EXPECT_EQ(DegeneracyLowerBound(g), RefDegeneracy(g));
    EXPECT_EQ(MinorMinWidthLowerBound(g), RefMinorMinWidth(g));
    EXPECT_EQ(GammaRLowerBound(g), RefGammaR(g));
  }
}

TEST(PrepassDiffTest, GyoResidualMatchesReference) {
  int cyclic = 0;
  for (const Hypergraph& h : RandomHypergraphs()) {
    SCOPED_TRACE("n=" + std::to_string(h.num_vertices()) +
                 " m=" + std::to_string(h.num_edges()));
    const std::vector<VertexSet> want = RefGyoResidual(h);
    EXPECT_EQ(GyoResidual(h), want);
    EXPECT_EQ(IsAlphaAcyclic(h), want.empty());
    if (!want.empty()) ++cyclic;
  }
  EXPECT_GT(cyclic, 10);  // both outcomes are exercised
}

TEST(PrepassDiffTest, OrderingsMatchReference) {
  uint64_t seed = 7;
  for (const Graph& g : RandomGraphs()) {
    SCOPED_TRACE("n=" + std::to_string(g.num_vertices()) +
                 " m=" + std::to_string(g.NumEdges()));
    EXPECT_EQ(MinFillOrdering(g), RefMinFill(g, nullptr));
    EXPECT_EQ(MinDegreeOrdering(g), RefMinDegree(g, nullptr));
    // Same ordering and the same number of draws: the next draw agrees.
    Rng a(seed), b(seed);
    EXPECT_EQ(MinFillOrdering(g, &a), RefMinFill(g, &b));
    EXPECT_EQ(MinDegreeOrdering(g, &a), RefMinDegree(g, &b));
    EXPECT_EQ(a.Next(), b.Next());
    ++seed;
  }
}

TEST(PrepassDiffTest, GhwFromOrderingMatchesReference) {
  Rng rng(99);
  for (const Hypergraph& h : RandomHypergraphs()) {
    SCOPED_TRACE("n=" + std::to_string(h.num_vertices()) +
                 " m=" + std::to_string(h.num_edges()));
    const Graph primal = h.PrimalGraph();
    for (int r = 0; r < 2; ++r) {
      const std::vector<int> ordering = r == 0
                                            ? MinFillOrdering(primal)
                                            : MinDegreeOrdering(primal, &rng);
      for (CoverMode mode : {CoverMode::kGreedy, CoverMode::kExact}) {
        const GhwUpperBoundResult got = GhwFromOrdering(h, ordering, mode);
        const GhwUpperBoundResult want = RefGhwFromOrdering(h, ordering, mode);
        EXPECT_EQ(got.width, want.width);
        EXPECT_EQ(got.ghd.bags, want.ghd.bags);
        EXPECT_EQ(got.ghd.guards, want.ghd.guards);
        EXPECT_EQ(got.ghd.tree_edges, want.ghd.tree_edges);
        EXPECT_TRUE(got.ghd.Validate(h).ok());
        for (int stop : {-1, 1, 2, want.width}) {
          EXPECT_EQ(GhwWidthFromOrdering(h, ordering, mode, stop),
                    RefGhwWidthFromOrdering(h, ordering, mode, stop));
        }
      }
    }
  }
}

TEST(PrepassDiffTest, GreedySetCoverMatchesReference) {
  Rng rng(31);
  uint64_t seed = 3;
  for (const Hypergraph& h : RandomHypergraphs()) {
    SCOPED_TRACE("n=" + std::to_string(h.num_vertices()) +
                 " m=" + std::to_string(h.num_edges()));
    const VertexSet covered = h.CoveredVertices();
    for (double p : {0.2, 0.6, 1.0}) {
      VertexSet target(h.num_vertices());
      covered.ForEach([&](int v) {
        if (rng.Bernoulli(p)) target.Set(v);
      });
      EXPECT_EQ(GreedySetCover(target, h.edges()),
                RefGreedySetCover(target, h.edges(), nullptr));
      Rng a(seed), b(seed);
      EXPECT_EQ(GreedySetCover(target, h.edges(), &a),
                RefGreedySetCover(target, h.edges(), &b));
      EXPECT_EQ(a.Next(), b.Next());
      ++seed;
    }
  }
}

TEST(PrepassDiffTest, CoverBagMatchesCoverOverAllEdges) {
  Rng rng(5);
  for (const Hypergraph& h : RandomHypergraphs()) {
    const VertexSet covered = h.CoveredVertices();
    for (int trial = 0; trial < 4; ++trial) {
      VertexSet bag(h.num_vertices());
      covered.ForEach([&](int v) {
        if (rng.Bernoulli(0.3)) bag.Set(v);
      });
      if (bag.Count() > 24) continue;  // keep the reference exact cover small
      for (CoverMode mode : {CoverMode::kGreedy, CoverMode::kExact}) {
        EXPECT_EQ(CoverBag(h, bag.ToVector(), mode), RefCoverBag(h, bag, mode));
      }
    }
  }
}

TEST(PrepassDiffTest, ExactSetCoverMatchesReference) {
  Rng rng(77);
  for (const Hypergraph& h : RandomHypergraphs()) {
    SCOPED_TRACE("n=" + std::to_string(h.num_vertices()) +
                 " m=" + std::to_string(h.num_edges()));
    const VertexSet covered = h.CoveredVertices();
    for (double p : {0.2, 0.6, 1.0}) {
      VertexSet target(h.num_vertices());
      covered.ForEach([&](int v) {
        if (rng.Bernoulli(p)) target.Set(v);
      });
      if (target.Count() > 24) continue;  // keep the reference search small
      EXPECT_EQ(ExactSetCover(target, h.edges()),
                RefExactSetCover(target, h.edges()));
    }
  }
}

TEST(SparseEliminationDiffTest, OrderingsBoundsAndTdsMatchDenseReference) {
  uint64_t seed = 17;
  for (const Hypergraph& h : FamilyHypergraphs()) {
    SCOPED_TRACE("n=" + std::to_string(h.num_vertices()) +
                 " m=" + std::to_string(h.num_edges()));
    const Graph primal = h.PrimalGraph();
    const EliminationGraph sparse(h.Flat());
    EXPECT_EQ(DegeneracyLowerBound(sparse), RefDegeneracy(primal));
    EXPECT_EQ(MinorMinWidthLowerBound(sparse), RefMinorMinWidth(primal));
    EXPECT_EQ(GammaRLowerBound(sparse), RefGammaR(primal));
    EXPECT_EQ(GhwLowerBound(h), RefGhwLowerBound(h));

    const std::vector<int> min_fill = MinFillOrdering(sparse);
    EXPECT_EQ(min_fill, RefMinFill(primal, nullptr));
    EXPECT_EQ(MinDegreeOrdering(sparse), RefMinDegree(primal, nullptr));
    Rng a(seed), b(seed);
    EXPECT_EQ(MinFillOrdering(sparse, &a), RefMinFill(primal, &b));
    const std::vector<int> min_degree = MinDegreeOrdering(sparse, &a);
    EXPECT_EQ(min_degree, RefMinDegree(primal, &b));
    EXPECT_EQ(a.Next(), b.Next());
    ++seed;

    for (const std::vector<int>& ordering : {min_fill, min_degree}) {
      const TreeDecomposition want = RefTdFromOrdering(primal, ordering);
      const TreeDecomposition got = TdFromOrdering(sparse, ordering);
      EXPECT_EQ(got.bags, want.bags);
      EXPECT_EQ(got.tree_edges, want.tree_edges);
      EXPECT_EQ(EliminationWidth(sparse, ordering), want.Width());
      for (CoverMode mode : {CoverMode::kGreedy, CoverMode::kExact}) {
        const GhwUpperBoundResult ref = RefGhwFromOrdering(h, ordering, mode);
        const GhwUpperBoundResult ghw = GhwFromOrdering(h, ordering, mode);
        EXPECT_EQ(ghw.width, ref.width);
        ExpectSameGhd(ghw.ghd, ref.ghd);
        CoverMemo memo(h, mode);
        ExpectSameGhd(GhwFromOrdering(h, ordering, mode, &memo).ghd, ref.ghd);
        for (int stop : {-1, 1, 2, ref.width}) {
          EXPECT_EQ(GhwWidthFromOrdering(h, ordering, mode, stop, &memo),
                    RefGhwWidthFromOrdering(h, ordering, mode, stop));
        }
      }
    }
  }
}

TEST(SparseEliminationDiffTest, MultiRestartMatchesUnprunedReference) {
  for (const Hypergraph& h : FamilyHypergraphs()) {
    SCOPED_TRACE("n=" + std::to_string(h.num_vertices()) +
                 " m=" + std::to_string(h.num_edges()));
    const int lb = GhwLowerBound(h);
    for (CoverMode mode : {CoverMode::kGreedy, CoverMode::kExact}) {
      for (uint64_t seed : {1, 11}) {
        const GhwUpperBoundResult want = RefMultiRestart(h, 8, seed, mode);
        CoverMemo memo(h, mode);
        for (const GhwUpperBoundResult& got :
             {GhwUpperBoundMultiRestart(h, 8, seed, mode),
              GhwUpperBoundMultiRestart(h, 8, seed, mode, lb),
              GhwUpperBoundMultiRestart(h, 8, seed, mode, lb, &memo)}) {
          EXPECT_EQ(got.width, want.width);
          EXPECT_EQ(got.ordering, want.ordering);
          ExpectSameGhd(got.ghd, want.ghd);
        }
      }
    }
  }
}

TEST(SparseEliminationDiffTest, ExactBnbMatchesDenseReference) {
  long searched = 0;
  for (const Hypergraph& h : FamilyHypergraphs()) {
    SCOPED_TRACE("n=" + std::to_string(h.num_vertices()) +
                 " m=" + std::to_string(h.num_edges()));
    const GhwUpperBoundResult ref_warm =
        RefMultiRestart(h, 4, 1, CoverMode::kExact);
    const int ref_lb = RefGhwLowerBound(h);
    for (long ticks = 1; ticks <= 50; ++ticks) {
      SCOPED_TRACE("ticks=" + std::to_string(ticks));
      ExactGhwOptions options;
      options.node_budget = ticks;
      const ExactGhwResult got = ExactGhw(h, options);
      const ExactGhwResult want = RefExactGhw(h, ref_warm, ref_lb, ticks);
      EXPECT_EQ(got.nodes_visited, want.nodes_visited);
      EXPECT_EQ(got.lower_bound, want.lower_bound);
      EXPECT_EQ(got.upper_bound, want.upper_bound);
      EXPECT_EQ(got.exact, want.exact);
      EXPECT_EQ(got.best_ordering, want.best_ordering);
      ExpectSameGhd(got.best_ghd, want.best_ghd);
      searched += got.nodes_visited;
      if (want.nodes_visited == 0) break;  // settled before the search

      // The anytime ladder's path: a warm start and a memo carried over from
      // the multi-restart rung change nothing.
      if (h.IsConnected()) {
        const int lb = GhwLowerBound(h);
        CoverMemo memo(h, CoverMode::kExact);
        GhwUpperBoundResult warm =
            GhwUpperBoundMultiRestart(h, 8, 1, CoverMode::kExact, lb, &memo);
        options.heuristic_restarts = 0;
        const ExactGhwResult shared =
            internal::ExactGhwSeeded(h, options, lb, warm, &memo);
        const ExactGhwResult alone =
            internal::ExactGhwSeeded(h, options, lb, std::move(warm));
        EXPECT_EQ(shared.nodes_visited, alone.nodes_visited);
        EXPECT_EQ(shared.lower_bound, alone.lower_bound);
        EXPECT_EQ(shared.upper_bound, alone.upper_bound);
        EXPECT_EQ(shared.best_ordering, alone.best_ordering);
        ExpectSameGhd(shared.best_ghd, alone.best_ghd);
      }
    }
  }
  EXPECT_GT(searched, 1000);  // the budgets cut real searches short
}

// Universes on both sides of one and of four 64-bit words.
std::vector<Hypergraph> StatsHypergraphs() {
  std::vector<Hypergraph> out = RandomHypergraphs();
  Rng rng(4242);
  for (int n : {255, 256, 257}) {
    out.push_back(RandomHypergraph(n, n, 3, &rng));
    out.push_back(RandomHypergraph(n, n / 3, 6, &rng));
    out.push_back(RandomJoinTree(n, &rng));
  }
  // Dense small instances, where many c-tuples share vertices.
  for (int trial = 0; trial < 60; ++trial) {
    const int n = 2 + rng.UniformInt(10);
    out.push_back(RandomHypergraph(n, 4 + rng.UniformInt(12), n, &rng));
  }
  return out;
}

TEST(PrepassDiffTest, IntersectionWidthsMatchReference) {
  for (const Hypergraph& h : StatsHypergraphs()) {
    SCOPED_TRACE("n=" + std::to_string(h.num_vertices()) +
                 " m=" + std::to_string(h.num_edges()));
    EXPECT_EQ(IntersectionWidth(h), RefIntersectionWidth(h));
    for (int c = 1; c <= 5; ++c) {
      EXPECT_EQ(MultiIntersectionWidth(h, c), RefMultiIntersectionWidth(h, c))
          << "c=" << c;
    }
  }
}

TEST(PrepassDiffTest, IsConnectedMatchesPrimalGraph) {
  int connected = 0, disconnected = 0;
  for (const Hypergraph& h : StatsHypergraphs()) {
    SCOPED_TRACE("n=" + std::to_string(h.num_vertices()) +
                 " m=" + std::to_string(h.num_edges()));
    const bool want = RefIsConnected(h);
    EXPECT_EQ(h.IsConnected(), want);
    EXPECT_EQ(ComputeStats(h).connected, want);
    ++(want ? connected : disconnected);
  }
  EXPECT_GT(connected, 10);  // both outcomes are exercised
  EXPECT_GT(disconnected, 10);
}

// ---- Front door.

// `base` plus `ears` nonempty edges, each part of an earlier edge (base or
// ear) and zero to two fresh vertices: GYO removes every ear, and an ear
// without fresh vertices is an edge contained in another.
Hypergraph WithEars(const Hypergraph& base, int ears, Rng* rng) {
  const int n = base.num_vertices() + 2 * ears;
  std::vector<std::string> vertex_names, edge_names;
  for (int v = 0; v < n; ++v) vertex_names.push_back("v" + std::to_string(v));
  std::vector<VertexSet> edges;
  for (int e = 0; e < base.num_edges(); ++e) {
    VertexSet s(n);
    base.edge(e).ForEach([&](int v) { s.Set(v); });
    edges.push_back(std::move(s));
  }
  int next = base.num_vertices();
  for (int i = 0; i < ears; ++i) {
    VertexSet s(n);
    const VertexSet& parent =
        edges[rng->UniformInt(static_cast<int>(edges.size()))];
    parent.ForEach([&](int v) {
      if (rng->Bernoulli(0.5)) s.Set(v);
    });
    for (int k = rng->UniformInt(3); k > 0; --k) s.Set(next++);
    if (s.Empty()) s.Set(next++);
    edges.push_back(std::move(s));
  }
  for (size_t e = 0; e < edges.size(); ++e) {
    edge_names.push_back("e" + std::to_string(e));
  }
  return Hypergraph(std::move(vertex_names), std::move(edge_names),
                    std::move(edges));
}

// a and b side by side over disjoint vertex ranges.
Hypergraph DisjointUnion(const Hypergraph& a, const Hypergraph& b) {
  const int n = a.num_vertices() + b.num_vertices();
  std::vector<std::string> vertex_names, edge_names;
  for (int v = 0; v < n; ++v) vertex_names.push_back("v" + std::to_string(v));
  std::vector<VertexSet> edges;
  for (const Hypergraph* part : {&a, &b}) {
    const int shift = part == &a ? 0 : a.num_vertices();
    for (int e = 0; e < part->num_edges(); ++e) {
      VertexSet s(n);
      part->edge(e).ForEach([&](int v) { s.Set(v + shift); });
      edges.push_back(std::move(s));
      edge_names.push_back("e" + std::to_string(edge_names.size()));
    }
  }
  return Hypergraph(std::move(vertex_names), std::move(edge_names),
                    std::move(edges));
}

std::vector<Hypergraph> FrontDoorInstances() {
  std::vector<Hypergraph> out;
  Rng rng(1606);
  for (int trial = 0; trial < 24; ++trial) {
    out.push_back(RandomJoinTree(3 + rng.UniformInt(40), &rng));
  }
  out.push_back(RandomJoinTree(65, &rng));
  out.push_back(RandomJoinTree(129, &rng));
  const Hypergraph cores[] = {CycleHypergraph(3), CycleHypergraph(6),
                              CycleHypergraph(9), Grid2dHypergraph(3, 3),
                              Grid2dHypergraph(2, 4)};
  for (const Hypergraph& core : cores) {
    for (int ears : {1, 4, 12}) out.push_back(WithEars(core, ears, &rng));
  }
  for (int trial = 0; trial < 8; ++trial) {
    const Hypergraph cyclic = WithEars(
        trial % 2 == 0 ? CycleHypergraph(4 + trial) : Grid2dHypergraph(2, 3),
        rng.UniformInt(8), &rng);
    const Hypergraph tree = RandomJoinTree(2 + rng.UniformInt(20), &rng);
    out.push_back(trial % 3 == 0 ? DisjointUnion(tree, cyclic)
                                 : DisjointUnion(cyclic, tree));
  }
  out.push_back(DisjointUnion(WithEars(CycleHypergraph(5), 3, &rng),
                              WithEars(Grid2dHypergraph(3, 3), 3, &rng)));
  out.push_back(DisjointUnion(RandomJoinTree(9, &rng),
                              RandomJoinTree(14, &rng)));
  return out;
}

// hw by the k-decider alone, k = 1, 2, ...: no GYO, no lower bound, no
// component split.
int PlainHypertreeWidth(const Hypergraph& h) {
  const GuardFamily family = OriginalEdgesFamily(h);
  for (int k = 1;; ++k) {
    const KDeciderResult r = DecideWidthK(h, family, k, {});
    EXPECT_TRUE(r.decided);
    if (r.exists) return k;
  }
}

TEST(FrontDoorTest, AgreesWithTheEnginesItBypasses) {
  int acyclic = 0, cyclic_with_ears = 0, disconnected = 0;
  for (const Hypergraph& h : FrontDoorInstances()) {
    SCOPED_TRACE("n=" + std::to_string(h.num_vertices()) +
                 " m=" + std::to_string(h.num_edges()));
    const GyoReduction gyo = GyoReduce(h);
    acyclic += gyo.acyclic();
    cyclic_with_ears += !gyo.acyclic() && !gyo.removal_order.empty();
    disconnected += !h.IsConnected();

    const HypertreeWidthResult hw = HypertreeWidth(h);
    ASSERT_TRUE(hw.exact);
    EXPECT_EQ(hw.width, PlainHypertreeWidth(h));
    EXPECT_TRUE(ValidateHypertreeDecomposition(h, hw.decomposition).ok());
    EXPECT_LE(hw.decomposition.Width(), hw.width);

    const ExactGhwResult ghw = ExactGhw(h);
    ASSERT_TRUE(ghw.exact);
    const AnytimeGhwResult any = AnytimeGhw(h);
    EXPECT_LE(any.lower_bound, ghw.upper_bound);
    EXPECT_GE(any.upper_bound, ghw.upper_bound);
    EXPECT_TRUE(any.witness.Validate(h).ok());
    EXPECT_LE(any.witness.Width(), any.upper_bound);
    if (gyo.acyclic()) {
      EXPECT_EQ(hw.width, 1);
      EXPECT_EQ(any.upper_bound, 1);
      EXPECT_EQ(any.trail.back().engine, "front-door");
    }
  }
  EXPECT_GT(acyclic, 10);  // every kind of instance is exercised
  EXPECT_GT(cyclic_with_ears, 10);
  EXPECT_GT(disconnected, 5);
}

}  // namespace
}  // namespace ghd
