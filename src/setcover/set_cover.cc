#include "setcover/set_cover.h"

#include <algorithm>

#include "util/check.h"

namespace ghd {
namespace {

// Shared state of the exact branch-and-bound search.
struct ExactSearch {
  const std::vector<VertexSet>* sets;
  ExactSetCoverOptions options;
  long nodes = 0;
  bool budget_exhausted = false;
  int best_size = 0;                // size of incumbent
  std::vector<int> best;            // incumbent cover
  std::vector<int> current;         // cover under construction
  int max_set_size = 1;

  // Explores covers extending `current` for the remaining `uncovered` target.
  void Recurse(const VertexSet& uncovered) {
    if (options.node_budget > 0 && ++nodes > options.node_budget) {
      budget_exhausted = true;
      return;
    }
    if (uncovered.Empty()) {
      if (static_cast<int>(current.size()) < best_size) {
        best_size = static_cast<int>(current.size());
        best = current;
      }
      return;
    }
    // Early exit for decision queries.
    if (options.stop_at_size > 0 && best_size <= options.stop_at_size) return;
    // Bound: every set covers at most max_set_size uncovered vertices.
    const int lb = (uncovered.Count() + max_set_size - 1) / max_set_size;
    if (static_cast<int>(current.size()) + lb >= best_size) return;
    // Branch on the uncovered vertex with the fewest covering candidates.
    int branch_vertex = -1;
    int fewest = static_cast<int>(sets->size()) + 1;
    uncovered.ForEach([&](int v) {
      int covering = 0;
      for (const VertexSet& s : *sets) {
        if (s.Test(v)) ++covering;
      }
      if (covering < fewest) {
        fewest = covering;
        branch_vertex = v;
      }
    });
    GHD_DCHECK(branch_vertex >= 0);
    if (fewest == 0) return;  // Uncoverable vertex: no cover down this branch.
    // Try candidates covering the branch vertex, most-new-coverage first.
    std::vector<std::pair<int, int>> candidates;  // (-gain, id)
    for (int s = 0; s < static_cast<int>(sets->size()); ++s) {
      if ((*sets)[s].Test(branch_vertex)) {
        candidates.emplace_back(-(*sets)[s].IntersectCount(uncovered), s);
      }
    }
    std::sort(candidates.begin(), candidates.end());
    for (const auto& [neg_gain, s] : candidates) {
      (void)neg_gain;
      current.push_back(s);
      VertexSet next = uncovered;
      next -= (*sets)[s];
      Recurse(next);
      current.pop_back();
      if (budget_exhausted) return;
    }
  }
};

}  // namespace

bool IsSetCover(const VertexSet& target, const std::vector<VertexSet>& sets,
                const std::vector<int>& chosen) {
  VertexSet covered(target.universe_size());
  for (int i : chosen) {
    GHD_CHECK(i >= 0 && i < static_cast<int>(sets.size()));
    covered |= sets[i];
  }
  return target.IsSubsetOf(covered);
}

std::vector<int> GreedySetCover(const VertexSet& target,
                                const std::vector<VertexSet>& sets,
                                Rng* rng) {
  // gain[s] = |sets[s] ∩ uncovered|, kept current instead of recounted:
  // covering v lowers the gain of exactly the sets holding v, listed per
  // target vertex in `holders` (CSR, ascending set ids).
  const int m = static_cast<int>(sets.size());
  std::vector<int> gain(m);
  std::vector<int> offsets(target.universe_size() + 1, 0);
  for (int s = 0; s < m; ++s) {
    (sets[s] & target).ForEach([&](int v) {
      ++gain[s];
      ++offsets[v + 1];
    });
  }
  for (size_t v = 1; v < offsets.size(); ++v) offsets[v] += offsets[v - 1];
  std::vector<int> holders(offsets.back());
  {
    std::vector<int> fill(offsets.begin(), offsets.end() - 1);
    for (int s = 0; s < m; ++s) {
      (sets[s] & target).ForEach([&](int v) { holders[fill[v]++] = s; });
    }
  }
  std::vector<int> chosen;
  VertexSet uncovered = target;
  std::vector<int> tied;
  while (!uncovered.Empty()) {
    int best_gain = 0;
    tied.clear();
    for (int s = 0; s < m; ++s) {
      if (gain[s] > best_gain) {
        best_gain = gain[s];
        tied.assign(1, s);
      } else if (gain[s] == best_gain && gain[s] > 0 && rng != nullptr) {
        tied.push_back(s);
      }
    }
    GHD_CHECK(best_gain > 0);  // Caller must pass a coverable target.
    const int pick =
        (rng != nullptr && tied.size() > 1) ? tied[rng->UniformInt(
                                                  static_cast<int>(tied.size()))]
                                            : tied.front();
    chosen.push_back(pick);
    (sets[pick] & uncovered).ForEach([&](int v) {
      for (int i = offsets[v]; i < offsets[v + 1]; ++i) --gain[holders[i]];
    });
    uncovered -= sets[pick];
  }
  return chosen;
}

std::optional<std::vector<int>> ExactSetCover(
    const VertexSet& target, const std::vector<VertexSet>& sets,
    const ExactSetCoverOptions& options) {
  ExactSearch search;
  search.sets = &sets;
  search.options = options;
  // Warm start with greedy to get a strong incumbent.
  search.best = GreedySetCover(target, sets);
  search.best_size = static_cast<int>(search.best.size());
  for (const VertexSet& s : sets) {
    search.max_set_size = std::max(search.max_set_size, s.Count());
  }
  search.Recurse(target);
  if (search.budget_exhausted) return std::nullopt;
  GHD_DCHECK(IsSetCover(target, sets, search.best));
  return search.best;
}

std::optional<int> ExactSetCoverSize(const VertexSet& target,
                                     const std::vector<VertexSet>& sets,
                                     const ExactSetCoverOptions& options) {
  auto cover = ExactSetCover(target, sets, options);
  if (!cover.has_value()) return std::nullopt;
  return static_cast<int>(cover->size());
}

int SetCoverLowerBound(const VertexSet& target,
                       const std::vector<VertexSet>& sets) {
  // Greedy independent witnesses: take an uncovered target vertex, discount
  // every vertex sharing a candidate set with it, repeat. Candidate sets can
  // serve at most one witness each, so the witness count bounds any cover.
  int witnesses = 0;
  VertexSet remaining = target;
  while (true) {
    int v = remaining.First();
    if (v < 0) break;
    ++witnesses;
    for (const VertexSet& s : sets) {
      if (s.Test(v)) remaining -= s;
    }
    remaining.Reset(v);
  }
  return witnesses;
}

int CoverCountLowerBound(int count, const std::vector<VertexSet>& sets) {
  if (count <= 0) return 0;
  std::vector<int> sizes;
  sizes.reserve(sets.size());
  for (const VertexSet& s : sets) sizes.push_back(s.Count());
  std::sort(sizes.rbegin(), sizes.rend());
  int covered = 0;
  for (int k = 0; k < static_cast<int>(sizes.size()); ++k) {
    covered += sizes[k];
    if (covered >= count) return k + 1;
  }
  // Not coverable at all with the given sets; return an impossible bound.
  return static_cast<int>(sizes.size()) + 1;
}

}  // namespace ghd
