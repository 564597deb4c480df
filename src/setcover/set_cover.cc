#include "setcover/set_cover.h"

#include <algorithm>

#include "util/check.h"
#include "util/tournament_tree.h"

namespace ghd {
namespace {

using internal::SetRows;

int PopcountAnd(const uint64_t* a, const uint64_t* b, int words) {
  int count = 0;
  for (int i = 0; i < words; ++i) count += __builtin_popcountll(a[i] & b[i]);
  return count;
}

bool AnyBit(const uint64_t* a, int words) {
  for (int i = 0; i < words; ++i) {
    if (a[i] != 0) return true;
  }
  return false;
}

bool TestBit(const uint64_t* a, int i) { return (a[i >> 6] >> (i & 63)) & 1; }

// Calls fn(i) for each bit i of a & b, ascending.
template <typename Fn>
void ForEachAnd(const uint64_t* a, const uint64_t* b, int words, Fn fn) {
  for (int i = 0; i < words; ++i) {
    for (uint64_t bits = a[i] & b[i]; bits != 0; bits &= bits - 1) {
      fn(i * 64 + __builtin_ctzll(bits));
    }
  }
}

// Per-thread buffers of the greedy cover, grown once and reused.
struct GreedyScratch {
  std::vector<int> gain;
  std::vector<int> offsets;
  std::vector<int> holders;
  std::vector<int> fill;
  TournamentTree by_gain;  // score -gain[s]
  std::vector<uint64_t> uncovered;
};

// Shared state of the exact branch-and-bound search. The uncovered set of
// the node at depth d lives at stack[d * words]; the candidates of every
// open node share one vector, each node appending its own and truncating on
// return.
struct ExactSearch {
  const SetRows* sets;
  ExactSetCoverOptions options;
  long nodes = 0;
  bool budget_exhausted = false;
  int best_size = 0;                // size of incumbent
  std::vector<int> best;            // incumbent cover
  std::vector<int> current;         // cover under construction
  int max_set_size = 1;
  std::vector<uint64_t> stack;
  std::vector<std::pair<int, int>> candidates;  // (-gain, id)

  // Explores covers extending `current` (of size depth) for the remaining
  // uncovered target at stack[depth].
  void Recurse(int depth) {
    const int words = sets->words;
    const uint64_t* uncovered = stack.data() + static_cast<size_t>(depth) * words;
    if (options.node_budget > 0 && ++nodes > options.node_budget) {
      budget_exhausted = true;
      return;
    }
    if (!AnyBit(uncovered, words)) {
      if (static_cast<int>(current.size()) < best_size) {
        best_size = static_cast<int>(current.size());
        best = current;
      }
      return;
    }
    // Early exit for decision queries.
    if (options.stop_at_size > 0 && best_size <= options.stop_at_size) return;
    // Bound: every set covers at most max_set_size uncovered vertices.
    const int lb =
        (PopcountAnd(uncovered, uncovered, words) + max_set_size - 1) /
        max_set_size;
    if (static_cast<int>(current.size()) + lb >= best_size) return;
    // Branch on the uncovered vertex with the fewest covering candidates.
    int branch_vertex = -1;
    int fewest = sets->count + 1;
    ForEachAnd(uncovered, uncovered, words, [&](int v) {
      int covering = 0;
      for (int s = 0; s < sets->count; ++s) covering += TestBit(sets->row(s), v);
      if (covering < fewest) {
        fewest = covering;
        branch_vertex = v;
      }
    });
    GHD_DCHECK(branch_vertex >= 0);
    if (fewest == 0) return;  // Uncoverable vertex: no cover down this branch.
    // Try candidates covering the branch vertex, most-new-coverage first.
    const size_t first = candidates.size();
    for (int s = 0; s < sets->count; ++s) {
      if (TestBit(sets->row(s), branch_vertex)) {
        candidates.emplace_back(-PopcountAnd(sets->row(s), uncovered, words),
                                s);
      }
    }
    std::sort(candidates.begin() + first, candidates.end());
    const size_t last = candidates.size();
    for (size_t c = first; c < last && !budget_exhausted; ++c) {
      const int s = candidates[c].second;
      current.push_back(s);
      const uint64_t* from = stack.data() + static_cast<size_t>(depth) * words;
      uint64_t* next = stack.data() + static_cast<size_t>(depth + 1) * words;
      for (int i = 0; i < words; ++i) next[i] = from[i] & ~sets->row(s)[i];
      Recurse(depth + 1);
      current.pop_back();
    }
    candidates.resize(first);
  }
};

// A std::vector<VertexSet> family in row form.
struct PackedSets {
  std::vector<uint64_t> words;
  SetRows rows;
};

PackedSets Pack(int universe, const std::vector<VertexSet>& sets) {
  PackedSets packed;
  packed.rows.universe = universe;
  packed.rows.words = (universe + 63) / 64;
  packed.rows.count = static_cast<int>(sets.size());
  packed.words.reserve(sets.size() * packed.rows.words);
  for (const VertexSet& s : sets) {
    GHD_CHECK(s.universe_size() == universe);
    packed.words.insert(packed.words.end(), s.word_data(),
                        s.word_data() + s.word_count());
  }
  packed.rows.data = packed.words.data();
  return packed;
}

}  // namespace

namespace internal {

std::vector<int> GreedySetCover(const uint64_t* target, const SetRows& sets,
                                Rng* rng) {
  // gain[s] = |sets[s] ∩ uncovered|, kept current instead of recounted:
  // covering v lowers the gain of exactly the sets holding v, listed per
  // target vertex in `holders` (CSR, ascending set ids). The gains sit in a
  // tournament tree, so a pick is the lowest id of maximum gain, or the
  // Rng's choice among all of them in ascending order, in O(log m).
  thread_local GreedyScratch scratch;
  GreedyScratch& sc = scratch;
  const int m = sets.count;
  const int words = sets.words;
  sc.gain.assign(m, 0);
  sc.offsets.assign(sets.universe + 1, 0);
  for (int s = 0; s < m; ++s) {
    ForEachAnd(sets.row(s), target, words, [&](int v) {
      ++sc.gain[s];
      ++sc.offsets[v + 1];
    });
  }
  for (size_t v = 1; v < sc.offsets.size(); ++v) {
    sc.offsets[v] += sc.offsets[v - 1];
  }
  sc.holders.resize(sc.offsets.back());
  sc.fill.assign(sc.offsets.begin(), sc.offsets.end() - 1);
  for (int s = 0; s < m; ++s) {
    ForEachAnd(sets.row(s), target, words,
               [&](int v) { sc.holders[sc.fill[v]++] = s; });
  }
  sc.by_gain.Reset(m);
  for (int s = 0; s < m; ++s) sc.by_gain.Init(s, -sc.gain[s]);
  sc.by_gain.Rebuild();
  std::vector<int> chosen;
  sc.uncovered.assign(target, target + words);
  uint64_t* uncovered = sc.uncovered.data();
  while (AnyBit(uncovered, words)) {
    // Caller must pass a coverable target.
    GHD_CHECK(sc.by_gain.Min() < 0);
    const int ties = sc.by_gain.Ties();
    const int pick = sc.by_gain.Tied(
        rng != nullptr && ties > 1 ? rng->UniformInt(ties) : 0);
    chosen.push_back(pick);
    const uint64_t* row = sets.row(pick);
    ForEachAnd(row, uncovered, words, [&](int v) {
      for (int i = sc.offsets[v]; i < sc.offsets[v + 1]; ++i) {
        const int s = sc.holders[i];
        sc.by_gain.Set(s, -(--sc.gain[s]));
      }
    });
    for (int i = 0; i < words; ++i) uncovered[i] &= ~row[i];
  }
  return chosen;
}

std::optional<std::vector<int>> ExactSetCover(
    const uint64_t* target, const SetRows& sets,
    const ExactSetCoverOptions& options) {
  ExactSearch search;
  search.sets = &sets;
  search.options = options;
  // Warm start with greedy to get a strong incumbent.
  search.best = GreedySetCover(target, sets);
  search.best_size = static_cast<int>(search.best.size());
  for (int s = 0; s < sets.count; ++s) {
    search.max_set_size = std::max(
        search.max_set_size, PopcountAnd(sets.row(s), sets.row(s), sets.words));
  }
  // The search never goes deeper than the greedy cover's size.
  search.stack.assign(static_cast<size_t>(search.best_size + 2) * sets.words,
                      0);
  std::copy(target, target + sets.words, search.stack.begin());
  search.Recurse(0);
  if (search.budget_exhausted) return std::nullopt;
  return search.best;
}

}  // namespace internal

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
  const PackedSets packed = Pack(target.universe_size(), sets);
  return internal::GreedySetCover(target.word_data(), packed.rows, rng);
}

std::optional<std::vector<int>> ExactSetCover(
    const VertexSet& target, const std::vector<VertexSet>& sets,
    const ExactSetCoverOptions& options) {
  const PackedSets packed = Pack(target.universe_size(), sets);
  auto cover = internal::ExactSetCover(target.word_data(), packed.rows, options);
  GHD_DCHECK(!cover.has_value() || IsSetCover(target, sets, *cover));
  return cover;
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
  std::vector<int> sizes;
  sizes.reserve(sets.size());
  for (const VertexSet& s : sets) sizes.push_back(s.Count());
  std::sort(sizes.rbegin(), sizes.rend());
  return CoverCountLowerBoundFromSizes(count, sizes);
}

int CoverCountLowerBoundFromSizes(int count,
                                  const std::vector<int>& sizes_descending) {
  if (count <= 0) return 0;
  int covered = 0;
  for (int k = 0; k < static_cast<int>(sizes_descending.size()); ++k) {
    covered += sizes_descending[k];
    if (covered >= count) return k + 1;
  }
  // Not coverable at all with the given sets; return an impossible bound.
  return static_cast<int>(sizes_descending.size()) + 1;
}

}  // namespace ghd
