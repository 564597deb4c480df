// Precomputed cover-candidate index for the width-k decider, plus the bounded
// negative-separator cache.
//
// The decider needs, at every search state, the guards that can contribute to
// a bag of that state's component. The naive loop — test every guard of the
// family against the component's vertex set — rescans and re-filters the
// whole family at every node, which dominates once the family is a subedge
// closure (BIP instances inflate it far beyond the edge count). The index
// stores, per vertex, the bitset of guards containing that vertex; candidate
// discovery becomes a word-parallel union over the component's vertices, the
// exact dual of FlatHypergraph::incidence_bits for component splitting.
//
// Candidates come back connected-first: guards meeting the state's connector
// ordered by how much of it they cover, then the rest by component coverage.
// The λ-enumeration must cover the connector before it can succeed, so
// connector-covering guards first moves successes toward the front of the
// subset tree.
//
// Both directions of the index are BitMatrix strips (hypergraph/kernels.h):
// guards_containing_ (one row per vertex over the guard universe) drives the
// touching-union, guard_bits_ (one row per guard over the vertex universe)
// drives the batched |guard ∩ conn| / |guard ∩ v_comp| scoring.
#ifndef GHD_CORE_COVER_INDEX_H_
#define GHD_CORE_COVER_INDEX_H_

#include <cstdint>
#include <vector>

#include "core/k_decider.h"
#include "hypergraph/flat_hypergraph.h"
#include "hypergraph/hypergraph.h"
#include "util/bitset.h"

namespace ghd {

class CoverIndex {
 public:
  /// Builds the per-vertex guard lists. `h` and `family` must outlive the
  /// index.
  CoverIndex(const Hypergraph& h, const GuardFamily& family);

  /// Guard ids touching at least one vertex of `vertices`, as a bitset over
  /// the family.
  VertexSet GuardsTouching(const VertexSet& vertices) const;

  /// Fills `out` with the guards touching `v_comp`, connected-first: guards
  /// intersecting `conn` sorted by descending |guard ∩ conn|, then the rest
  /// by descending |guard ∩ v_comp|; ties break toward the lower guard id.
  /// Deterministic in (v_comp, conn).
  void CandidatesFor(const VertexSet& v_comp, const VertexSet& conn,
                     std::vector<int>* out) const;

 private:
  const GuardFamily* family_;
  int num_guards_;
  BitMatrix guards_containing_;  // rows = vertices, universe = family
  BitMatrix guard_bits_;         // rows = guards, universe = vertices
};

/// Bounded cache of (component, separator) pairs that are proven
/// not to work: chi failed the progress rule or some child component of
/// (component, chi) was refuted. Distinct guard subsets routinely union to
/// the same chi, and without the cache each one re-splits the component and
/// re-probes every child. Keys are packed interned ids, so a hit is exact —
/// never a hash gamble — and a slot collision merely evicts (the cache is an
/// accelerator; forgetting is always sound). Entries must only be inserted
/// for *proven* failures: a failure under budget exhaustion or cancellation
/// may be truncation, and caching it would prune a viable separator later —
/// the same soundness rule the state memo follows (never poison a cache with
/// an unproven refutation).
///
/// The slot array materializes on the first insert: searches that succeed
/// immediately (the common case on small instances — one DecideWidthK call
/// per k of the hw iteration) never pay the 256 KiB allocation.
class NegSeparatorCache {
 public:
  /// `slot_count` is rounded up to a power of two; the default (32768 slots,
  /// 256 KiB) is a per-search scratch structure.
  explicit NegSeparatorCache(size_t slot_count = size_t{1} << 15);

  NegSeparatorCache(const NegSeparatorCache&) = delete;
  NegSeparatorCache& operator=(const NegSeparatorCache&) = delete;

  /// Packs the (component id, separator id) pair into the cache's key form.
  static uint64_t Key(uint32_t comp_id, uint32_t chi_id) {
    // +1 keeps every key nonzero (0 marks an empty slot).
    return ((static_cast<uint64_t>(comp_id) << 32) | chi_id) + 1;
  }

  /// Inverse of Key: recovers the interned pair from a resident key.
  static void Unpack(uint64_t key, uint32_t* comp_id, uint32_t* chi_id) {
    const uint64_t packed = key - 1;
    *comp_id = static_cast<uint32_t>(packed >> 32);
    *chi_id = static_cast<uint32_t>(packed);
  }

  bool Contains(uint64_t key) const;
  void Insert(uint64_t key);

  /// Visits every resident key (nonzero slot); the rebind sweep of the
  /// incremental solver calls it while no search is running.
  template <typename Fn>
  void ForEachKey(Fn fn) const {
    for (uint64_t key : slots_) {
      if (key != 0) fn(key);
    }
  }

 private:
  size_t SlotOf(uint64_t key) const;

  std::vector<uint64_t> slots_;  // empty until the first insert
  size_t mask_;
};

}  // namespace ghd

#endif  // GHD_CORE_COVER_INDEX_H_
