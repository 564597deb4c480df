// Set cover: given a target vertex set and candidate sets (hyperedges), find
// few candidates whose union contains the target. λ-labels of generalized
// hypertree decompositions are exactly set covers of the bags, so both the
// greedy heuristic and the exact branch-and-bound solver live at the heart of
// every GHW algorithm in this library.
#ifndef GHD_SETCOVER_SET_COVER_H_
#define GHD_SETCOVER_SET_COVER_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "util/bitset.h"
#include "util/rng.h"

namespace ghd {

/// True when the union of sets[i] for i in `chosen` contains `target`.
bool IsSetCover(const VertexSet& target, const std::vector<VertexSet>& sets,
                const std::vector<int>& chosen);

/// Chvátal's greedy heuristic: repeatedly take the candidate covering the
/// most uncovered target vertices. Ties break toward the lowest id, or
/// uniformly at random when `rng` is given. Returns chosen candidate ids;
/// `target` must be coverable (checked).
std::vector<int> GreedySetCover(const VertexSet& target,
                                const std::vector<VertexSet>& sets,
                                Rng* rng = nullptr);

/// Options for the exact solver.
struct ExactSetCoverOptions {
  /// Upper limit on search nodes; the solver gives up (returns nullopt)
  /// beyond it. <= 0 means unlimited.
  long node_budget = 0;
  /// Stop early once a cover of size <= target_size is found (0 = disabled).
  /// Used by width-k decision procedures that only care whether a cover of
  /// size <= k exists.
  int stop_at_size = 0;
};

/// Exact minimum set cover by branch and bound: branches on the uncovered
/// vertex with the fewest candidates, warm-started by the greedy cover and
/// pruned with a max-candidate-size bound. Returns an optimal cover, or
/// nullopt when the node budget is exhausted.
std::optional<std::vector<int>> ExactSetCover(
    const VertexSet& target, const std::vector<VertexSet>& sets,
    const ExactSetCoverOptions& options = {});

/// Size of an exact minimum cover (convenience wrapper); nullopt on budget
/// exhaustion.
std::optional<int> ExactSetCoverSize(const VertexSet& target,
                                     const std::vector<VertexSet>& sets,
                                     const ExactSetCoverOptions& options = {});

/// Lower bound on any cover of `target`: greedily picks pairwise-disjoint
/// "witness" vertices whose candidate neighborhoods do not overlap; each needs
/// its own set. Sound for pruning.
int SetCoverLowerBound(const VertexSet& target,
                       const std::vector<VertexSet>& sets);

/// Sound lower bound on the number of sets needed to cover any `count`
/// vertices, given candidate sets: smallest k with (sum of k largest set
/// sizes) >= count. Used by the GHW lower bound (tw x k-set-cover).
int CoverCountLowerBound(int count, const std::vector<VertexSet>& sets);
/// The same bound from the set sizes, sorted largest first.
int CoverCountLowerBoundFromSizes(int count,
                                  const std::vector<int>& sizes_descending);

namespace internal {

/// Candidate sets as rows of one word array: set s is the `words` words at
/// data + s * words, over a universe of `universe` elements (bits at or
/// above it are zero). The solvers below run on this form; the
/// std::vector<VertexSet> entry points above pack their sets into it.
struct SetRows {
  int universe = 0;
  int words = 0;
  int count = 0;
  const uint64_t* data = nullptr;

  const uint64_t* row(int s) const {
    return data + static_cast<size_t>(s) * words;
  }
};

/// GreedySetCover over rows; `target` has sets.words words.
std::vector<int> GreedySetCover(const uint64_t* target, const SetRows& sets,
                                Rng* rng = nullptr);

/// ExactSetCover over rows; `target` has sets.words words.
std::optional<std::vector<int>> ExactSetCover(
    const uint64_t* target, const SetRows& sets,
    const ExactSetCoverOptions& options = {});

}  // namespace internal

}  // namespace ghd

#endif  // GHD_SETCOVER_SET_COVER_H_
