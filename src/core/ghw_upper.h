// GHW upper bounds from elimination orderings: bucket elimination on the
// primal graph produces the bags, set covering produces the λ-labels. With
// exact covers, at least one ordering attains ghw(H) exactly, which makes the
// ordering space a complete search space (used by core/ghw_exact.h).
#ifndef GHD_CORE_GHW_UPPER_H_
#define GHD_CORE_GHW_UPPER_H_

#include <cstdint>
#include <vector>

#include "core/ghd.h"
#include "hypergraph/hypergraph.h"
#include "td/ordering_heuristics.h"
#include "util/rng.h"

namespace ghd {

/// How λ-labels are computed from bags.
enum class CoverMode {
  kGreedy,  // Chvátal greedy (fast, may overshoot)
  kExact,   // branch-and-bound minimum cover
};

/// A GHW upper bound together with its witnessing decomposition and the
/// elimination ordering that produced it.
struct GhwUpperBoundResult {
  int width = 0;
  GeneralizedHypertreeDecomposition ghd;
  std::vector<int> ordering;
};

/// A λ-label for `bag` (ascending vertex ids): ids of hyperedges of h whose
/// union contains it. Only the edges that meet the bag take part, found
/// through the flat vertex CSR and restricted to the bag's own vertices, as
/// rows of one pooled word array. Local ids keep ascending vertex and edge
/// order and map back to edge ids, so greedy tie-breaks, Rng draws and exact
/// optima are those of a cover over all of h.edges(). `bag` must be
/// coverable (checked).
std::vector<int> CoverBag(const Hypergraph& h, const std::vector<int>& bag,
                          CoverMode mode);

/// The covers of one ask, each distinct bag covered once. Keyed by the
/// bag's ascending vertex ids; a value is CoverBag(h, bag, mode). Lookups
/// count in cover_cache_hits / cover_cache_misses. One open-addressing
/// table, owned by the one thread that runs the ask.
class CoverMemo {
 public:
  CoverMemo(const Hypergraph& h, CoverMode mode);
  CoverMemo(const CoverMemo&) = delete;
  CoverMemo& operator=(const CoverMemo&) = delete;

  const Hypergraph& hypergraph() const { return *h_; }
  CoverMode mode() const { return mode_; }

  /// |CoverBag(h, bag, mode)|; the cover itself goes to `cover` when it is
  /// non-null. `*computed` (when non-null) tells whether this call ran
  /// CoverBag.
  int Cover(const std::vector<int>& bag, std::vector<int>* cover = nullptr,
            bool* computed = nullptr);

 private:
  // One entry: its key and cover sit back to back in pool_.
  struct Slot {
    uint64_t hash = 0;
    uint32_t at = 0;
    uint32_t key_size = 0;
    uint32_t cover_size = 0;
    bool used = false;
  };

  // The slot holding `bag`, or the empty slot where it belongs.
  Slot* Find(uint64_t hash, const std::vector<int>& bag);

  const Hypergraph* h_;
  CoverMode mode_;
  std::vector<int32_t> pool_;
  std::vector<Slot> slots_;
  size_t entries_ = 0;
};

/// Builds the GHD induced by an elimination ordering of the primal graph:
/// bags via bucket elimination, guards via set covering of each bag (through
/// `memo` when given; its mode must be `mode`). The result always validates
/// against h.
GhwUpperBoundResult GhwFromOrdering(const Hypergraph& h,
                                    const std::vector<int>& ordering,
                                    CoverMode mode, CoverMemo* memo = nullptr);

/// Width-only fast path (no decomposition construction). Stops early when the
/// width provably reaches `stop_at_width` (< 0 = never).
int GhwWidthFromOrdering(const Hypergraph& h, const std::vector<int>& ordering,
                         CoverMode mode, int stop_at_width = -1,
                         CoverMemo* memo = nullptr);

/// Convenience: ordering from a greedy heuristic on the primal graph, then
/// GhwFromOrdering.
GhwUpperBoundResult GhwUpperBound(const Hypergraph& h,
                                  OrderingHeuristic heuristic,
                                  CoverMode mode);

/// Multi-restart randomized upper bound: `restarts` randomized min-fill /
/// min-degree orderings (even restarts min-fill, odd ones min-degree, all
/// drawing from one Rng seeded with `seed`); keeps the first of the
/// narrowest. A restart after the first stops covering once its width
/// reaches the incumbent's, and none starts once the incumbent meets
/// `lower_bound` (a lower bound on ghw(h); 0 = none). Neither changes the
/// result: only a strictly smaller width replaces the incumbent, and every
/// Rng draw happens inside ComputeOrdering. Bags are covered through `memo`
/// (mode `mode`), or through a memo of this call when it is null.
GhwUpperBoundResult GhwUpperBoundMultiRestart(const Hypergraph& h,
                                              int restarts, uint64_t seed,
                                              CoverMode mode,
                                              int lower_bound = 0,
                                              CoverMemo* memo = nullptr);

}  // namespace ghd

#endif  // GHD_CORE_GHW_UPPER_H_
