#include "core/ghw_exact.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "core/ghw_lower.h"
#include "core/ghw_upper.h"
#include "graph/elimination_graph.h"
#include "hypergraph/components.h"
#include "obs/obs.h"
#include "td/lower_bounds.h"
#include "util/check.h"

namespace ghd {
namespace {

// State of one exact-GHW search that outlives a branch: the incumbent (upper
// bound + witness ordering), the budget counters, and the exact-cover memo.
// The branch itself owns its elimination prefix and residual graph.
struct Shared {
  const Hypergraph* h;
  std::vector<char> covered;  // by vertex: occurs in some hyperedge
  std::vector<int> edge_sizes;  // EdgeSizesDescending(*h)
  ExactGhwOptions options;
  Budget* budget = nullptr;
  // Exact covers are reused heavily across branches (the same bag shows up
  // under many prefixes) and across the restarts that found the warm start,
  // so one memo serves the whole ask.
  CoverMemo* memo = nullptr;

  long nodes = 0;
  bool hit_stop_width = false;
  int ub = 0;
  std::vector<int> best_ordering;

  // The memo never holds truncated values: the cover solver runs unbudgeted
  // (small exact subproblems), and CoverBag checks it returned. This is the
  // same cache rule the k-decider follows for its memo — a truncated run
  // must never poison a cache entry (util/resource_governor.h). A bag this
  // search covers first is charged to the budget.
  int ExactCoverSize(const std::vector<int>& bag) {
    bool computed = false;
    const int size = memo->Cover(bag, nullptr, &computed);
    if (computed) {
      GHD_HISTO(kCoverSize, size);
      budget->Charge(static_cast<size_t>((h->num_vertices() + 63) / 64) * 8 +
                     sizeof(int));
    }
    return size;
  }

  // {v} ∪ N(v) in g, restricted to covered vertices, ascending.
  void BagOf(const EliminationGraph& g, int v, std::vector<int>* bag) const {
    g.ClosedNeighborhood(v, bag);
    std::erase_if(*bag, [&](int u) { return !covered[u]; });
  }

  bool Stopped() const { return budget->Stopped(); }

  bool ShouldStop() {
    if (options.stop_at_width > 0 && ub <= options.stop_at_width) {
      hit_stop_width = true;
      return true;
    }
    ++nodes;
    GHD_COUNT(kBnbNodes);
    if (!budget->Tick()) return true;
    return hit_stop_width;
  }

  void RecordSolution(int width, std::vector<int> ordering) {
    if (width < ub) {
      GHD_COUNT(kBnbSolutions);
      GHD_BOARD_SET(kBestUb, width);
      ub = width;
      best_ordering = std::move(ordering);
    }
  }
};

// The search path: elimination prefix and alive set, extended and undone
// around each branch; the residual primal graph is handed to Recurse.
struct Search {
  Shared* s;
  std::vector<int> prefix;
  std::vector<char> alive;
  int alive_count = 0;

  void AcceptSolution(int width) {
    std::vector<int> ordering = prefix;
    for (int v = 0; v < static_cast<int>(alive.size()); ++v) {
      if (alive[v]) ordering.push_back(v);
    }
    s->RecordSolution(width, std::move(ordering));
  }

  void EliminateInto(EliminationGraph* g, int v) {
    g->Eliminate(v);
    prefix.push_back(v);
    alive[v] = 0;
    --alive_count;
  }

  void UndoEliminate(int v) {
    ++alive_count;
    alive[v] = 1;
    prefix.pop_back();
  }

  // g = primal graph with the prefix eliminated; width_so_far = max exact
  // cover size of the bags closed so far on this path. `depth` counts real
  // branch levels (the live board's frontier depth).
  void Recurse(const EliminationGraph& g, int width_so_far, int depth) {
    if (s->ShouldStop()) return;
    GHD_BOARD_SET(kFrontierDepth, depth);

    if (alive_count == 0) {
      if (width_so_far < s->ub) AcceptSolution(width_so_far);
      return;
    }

    // Finish-now bound: remaining elimination bags are subsets of the
    // remaining vertices, so each costs at most a cover of all of them.
    std::vector<int> bag;
    for (int v = 0; v < g.num_vertices(); ++v) {
      if (alive[v] && s->covered[v]) bag.push_back(v);
    }
    const int rest_cost =
        static_cast<int>(CoverBag(*s->h, bag, CoverMode::kGreedy).size());
    const int finish_now = std::max(width_so_far, rest_cost);
    if (finish_now < s->ub) AcceptSolution(finish_now);
    if (rest_cost <= width_so_far) {  // Subtree can't beat finish-now.
      GHD_COUNT(kBnbPruneFinishNow);
      return;
    }

    // Node lower bound: tw bound on the residual graph, converted through
    // the k-set-cover combination.
    const int tw_lb = MinorMinWidthLowerBound(g);
    const int node_lb = GhwLowerBoundFromTwBound(s->edge_sizes, tw_lb);
    if (std::max(width_so_far, node_lb) >= s->ub) {
      GHD_COUNT(kBnbPruneLowerBound);
      return;
    }

    // Simplicial reduction: eliminating a simplicial vertex first never
    // increases the best achievable cover-width of the subtree.
    if (s->options.use_simplicial_reduction) {
      for (int v = 0; v < g.num_vertices(); ++v) {
        if (!alive[v] || !g.IsSimplicial(v)) continue;
        s->BagOf(g, v, &bag);
        const int cost = s->ExactCoverSize(bag);
        const int next_width = std::max(width_so_far, cost);
        if (next_width >= s->ub) return;
        EliminationGraph next = g;
        EliminateInto(&next, v);
        Recurse(next, next_width, depth);  // No branching: same depth.
        UndoEliminate(v);
        return;
      }
    }

    // Branch over alive vertices, cheapest bag cover first.
    std::vector<std::pair<int, int>> order;  // (cost, vertex)
    for (int v = 0; v < g.num_vertices(); ++v) {
      if (!alive[v]) continue;
      s->BagOf(g, v, &bag);
      order.emplace_back(s->ExactCoverSize(bag), v);
    }
    std::sort(order.begin(), order.end());

    for (const auto& [cost, v] : order) {
      const int next_width = std::max(width_so_far, cost);
      if (next_width >= s->ub) {
        GHD_COUNT(kBnbPruneIncumbent);
        continue;
      }
      EliminationGraph next = g;
      EliminateInto(&next, v);
      Recurse(next, next_width, depth + 1);
      UndoEliminate(v);
      if (s->Stopped() || s->hit_stop_width) return;
    }
  }
};

// A lower bound and a warm start the caller already holds.
struct Seed {
  int lower_bound = 0;
  GhwUpperBoundResult incumbent;
  CoverMemo* memo = nullptr;  // the caller's exact covers of h, if any
};

// Without a seed the search computes both itself.
ExactGhwResult ExactGhwImpl(const Hypergraph& h, const ExactGhwOptions& options,
                            Budget* budget, Seed* seed = nullptr) {
  ExactGhwResult result;
  if (h.num_edges() == 0 || h.num_vertices() == 0) {
    result.exact = true;
    return result;
  }

  std::optional<CoverMemo> own_memo;
  CoverMemo* memo = seed != nullptr ? seed->memo : nullptr;
  if (memo == nullptr) memo = &own_memo.emplace(h, CoverMode::kExact);
  GHD_CHECK(&memo->hypergraph() == &h && memo->mode() == CoverMode::kExact);

  Shared shared;
  shared.h = &h;
  const std::vector<int32_t>& voff = h.Flat().vertex_offsets();
  shared.covered.resize(h.num_vertices());
  for (int v = 0; v < h.num_vertices(); ++v) {
    shared.covered[v] = voff[v + 1] > voff[v];
  }
  shared.edge_sizes = EdgeSizesDescending(h);
  shared.options = options;
  shared.budget = budget;
  shared.memo = memo;
  const EliminationGraph primal(h.Flat());

  const int root_lb = seed != nullptr ? seed->lower_bound : GhwLowerBound(h);
  // Incumbent from randomized heuristics with exact covers.
  GhwUpperBoundResult warm =
      seed != nullptr ? std::move(seed->incumbent)
                      : GhwUpperBoundMultiRestart(
                            h, std::max(1, options.heuristic_restarts),
                            options.seed, CoverMode::kExact, root_lb, memo);
  shared.ub = warm.width;

  if (root_lb >= warm.width ||
      (options.stop_at_width > 0 && warm.width <= options.stop_at_width)) {
    result.lower_bound = root_lb;
    result.upper_bound = warm.width;
    result.exact = root_lb >= warm.width;
    result.outcome.complete = result.exact;
    result.best_ordering = std::move(warm.ordering);
    result.best_ghd = std::move(warm.ghd);
    return result;
  }

  Search root;
  root.s = &shared;
  root.alive.assign(primal.num_vertices(), 1);
  root.alive_count = primal.num_vertices();
  {
    GHD_SPAN_VAR(span, "ghw", "exact-bnb");
    span.SetArg("warm_ub", warm.width);
    root.Recurse(primal, 0, 0);
  }

  result.upper_bound = shared.ub;
  result.nodes_visited = shared.nodes;
  result.exact = !budget->Stopped() && !shared.hit_stop_width;
  result.outcome = budget->MakeOutcome();
  result.outcome.ticks = result.nodes_visited;
  result.outcome.complete = result.exact;
  result.lower_bound = result.exact ? result.upper_bound : root_lb;
  if (shared.best_ordering.empty()) {
    result.best_ordering = std::move(warm.ordering);
    result.best_ghd = std::move(warm.ghd);
  } else {
    result.best_ordering = shared.best_ordering;
    GhwUpperBoundResult witness =
        GhwFromOrdering(h, shared.best_ordering, CoverMode::kExact, memo);
    GHD_CHECK(witness.width <= result.upper_bound);
    result.upper_bound = witness.width;
    result.best_ghd = std::move(witness.ghd);
  }
  return result;
}

ExactGhwResult ExactGhwWithSeed(const Hypergraph& h,
                                const ExactGhwOptions& options, Seed* seed) {
  Budget local_budget(options.time_limit_seconds, options.node_budget);
  Budget* budget = options.budget != nullptr ? options.budget : &local_budget;
  return ExactGhwImpl(h, options, budget, seed);
}

}  // namespace

ExactGhwResult ExactGhw(const Hypergraph& h, const ExactGhwOptions& options) {
  return ExactGhwWithSeed(h, options, nullptr);
}

namespace internal {

ExactGhwResult ExactGhwSeeded(const Hypergraph& h,
                              const ExactGhwOptions& options, int lower_bound,
                              GhwUpperBoundResult incumbent, CoverMemo* memo) {
  if (ConnectedEdgeComponents(h).size() > 1) {
    return ExactGhwComponentwise(h, options);
  }
  Seed seed{lower_bound, std::move(incumbent), memo};
  return ExactGhwWithSeed(h, options, &seed);
}

}  // namespace internal

ExactGhwResult ExactGhwComponentwise(const Hypergraph& h,
                                     const ExactGhwOptions& options) {
  const std::vector<std::vector<int>> groups = ConnectedEdgeComponents(h);
  if (groups.size() <= 1) return ExactGhw(h, options);
  const std::vector<Hypergraph> parts = SplitIntoComponents(h);
  GHD_CHECK(parts.size() == groups.size());

  // One governor across every component: the deadline and node budget are
  // global. (Before the governor each component silently got its own full
  // time limit — a k-component instance could run k times the deadline.)
  Budget local_budget(options.time_limit_seconds, options.node_budget);
  Budget* budget = options.budget != nullptr ? options.budget : &local_budget;

  // Solve the components one after another (they are independent searches)
  // and stitch them in component order.
  ExactGhwResult combined;
  combined.exact = true;
  VertexSet ordered(h.num_vertices());
  int previous_root = -1;
  for (size_t p = 0; p < parts.size(); ++p) {
    ExactGhwResult part = ExactGhwImpl(parts[p], options, budget);
    combined.exact = combined.exact && part.exact;
    combined.lower_bound = std::max(combined.lower_bound, part.lower_bound);
    combined.upper_bound = std::max(combined.upper_bound, part.upper_bound);
    combined.nodes_visited += part.nodes_visited;
    // Stitch the witness: remap the part's guard ids to original edge ids
    // and chain the component subtrees (vertex-disjoint, so per-vertex
    // connectedness is unaffected).
    const int offset = combined.best_ghd.num_nodes();
    AppendPart(&combined.best_ghd, std::move(part.best_ghd), groups[p],
               previous_root);
    if (combined.best_ghd.num_nodes() > offset) previous_root = offset;
    // Combined witness ordering: this part's covered vertices in the order
    // the part's solver chose.
    const VertexSet part_covered = parts[p].CoveredVertices();
    for (int v : part.best_ordering) {
      if (part_covered.Test(v) && !ordered.Test(v)) {
        ordered.Set(v);
        combined.best_ordering.push_back(v);
      }
    }
  }
  // Remaining (isolated) vertices close the ordering.
  for (int v = 0; v < h.num_vertices(); ++v) {
    if (!ordered.Test(v)) combined.best_ordering.push_back(v);
  }
  combined.outcome = budget->MakeOutcome();
  combined.outcome.ticks = combined.nodes_visited;
  combined.outcome.complete = combined.exact;
  GHD_CHECK(combined.best_ghd.Validate(h).ok());
  GHD_CHECK(combined.best_ghd.Width() <= combined.upper_bound);
  return combined;
}

std::optional<bool> GhwAtMost(const Hypergraph& h, int k,
                              const ExactGhwOptions& options) {
  GHD_CHECK(k >= 0);
  ExactGhwOptions opts = options;
  opts.stop_at_width = k;
  ExactGhwResult r = ExactGhw(h, opts);
  if (r.upper_bound <= k) return true;
  if (r.exact) return false;
  if (r.lower_bound > k) return false;
  return std::nullopt;
}

}  // namespace ghd
