// Cover-candidate index for the width-k decider, plus the bounded
// negative-separator cache.
//
// The decider needs, at every search state, the guards that can contribute to
// a bag of that state's component, connector-covering ones first: the
// λ-enumeration must cover the connector before it can succeed, so putting
// those guards first moves successes toward the front of the subset tree.
// The index keeps the family as two CSRs — guard → sorted vertex ids and
// vertex → ascending guard ids — plus one static order of the nonempty guards,
// (|guard| desc, id asc), and hands each state a CandidateCursor:
//
//  * the *prefix* is the guards meeting the connector, gathered through the
//    connector's vertex rows and scored (|g ∩ conn| desc, |g ∩ V(comp)| desc,
//    id asc) — a handful of guards, whatever the family's size;
//  * the *tail* is every other guard touching V(comp), ordered by
//    (|g ∩ V(comp)| desc, id asc), and read only as far as the enumeration
//    asks. When every guard has a parent edge, the tail is exactly the
//    nonempty guards whose parent lies in the component and that miss the
//    connector, and |g ∩ V(comp)| = |g| for each of them (DESIGN.md, "Why
//    the static tail order is exact"), so the cursor filters the static
//    order instead of scoring anything. Families without parent edges (tree
//    projection targets) score their tail from the vertex CSR instead.
//
// Prefix then tail is the same sequence the decider used to sort out of every
// guard touching the component; only the work to produce it is local.
#ifndef GHD_CORE_COVER_INDEX_H_
#define GHD_CORE_COVER_INDEX_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "core/k_decider.h"
#include "hypergraph/hypergraph.h"
#include "util/bitset.h"

namespace ghd {

class CoverIndex;

/// One decider state's candidate guards in enumeration order: the scored
/// prefix, then the tail, read lazily. Reusable: CoverIndex::Open resets it.
class CandidateCursor {
 public:
  /// Guards meeting the connector; they come first and are always built.
  size_t prefix_size() const { return prefix_size_; }

  /// True when the state has an i-th candidate, reading the tail up to i.
  bool Has(size_t i) {
    while (i >= list_.size()) {
      if (!walking_ || !Pull()) return false;
    }
    read_ = std::max(read_, i + 1);
    return true;
  }
  /// The i-th candidate; Has(i) must have returned true.
  int operator[](size_t i) const { return list_[i]; }

  /// Candidates the state has looked at: the prefix plus the tail read.
  size_t read() const { return std::max(prefix_size_, read_); }

 private:
  friend class CoverIndex;
  // Appends the next tail guard from the static order; false at its end.
  bool Pull();

  const CoverIndex* index_ = nullptr;
  const VertexSet* comp_ = nullptr;  // edge set, filters the static order
  const VertexSet* conn_ = nullptr;
  std::vector<int> list_;  // prefix, then the tail read so far
  size_t prefix_size_ = 0;
  size_t read_ = 0;
  size_t walk_ = 0;       // next position in the static order
  bool walking_ = false;  // tail still being read from the static order
};

class CoverIndex {
 public:
  /// Builds the CSRs and the static order. `h` and `family` must outlive the
  /// index.
  CoverIndex(const Hypergraph& h, const GuardFamily& family);

  int num_guards() const { return static_cast<int>(guard_offsets_.size()) - 1; }

  /// Sorted vertex ids of guard g.
  std::span<const int32_t> GuardVertices(int g) const {
    return {guard_vertices_.data() + guard_offsets_[g],
            guard_vertices_.data() + guard_offsets_[g + 1]};
  }
  /// Ascending ids of the guards containing vertex v.
  std::span<const int32_t> VertexGuards(int v) const {
    return {vertex_guards_.data() + vertex_offsets_[v],
            vertex_guards_.data() + vertex_offsets_[v + 1]};
  }
  /// Nonempty guards by (size desc, id asc).
  const std::vector<int32_t>& static_order() const { return order_; }

  /// Resets `cursor` to the candidates of the state (comp, conn): comp is an
  /// edge set, v_comp = V(comp) and conn ⊆ v_comp. With parent edges, every
  /// edge outside comp must meet v_comp only inside conn — the decider's
  /// state invariant. `comp` and `conn` must outlive the cursor's reads.
  void Open(const VertexSet& comp, const VertexSet& v_comp,
            const VertexSet& conn, CandidateCursor* cursor) const;

 private:
  friend class CandidateCursor;
  bool Meets(int g, const VertexSet& vertices) const {
    for (int32_t v : GuardVertices(g)) {
      if (vertices.Test(v)) return true;
    }
    return false;
  }

  const GuardFamily* family_;
  bool parented_;  // every guard has a parent edge
  std::vector<int32_t> guard_offsets_;
  std::vector<int32_t> guard_vertices_;
  std::vector<int32_t> vertex_offsets_;
  std::vector<int32_t> vertex_guards_;
  std::vector<int32_t> order_;  // the static tail order
};

inline bool CandidateCursor::Pull() {
  const std::vector<int32_t>& order = index_->order_;
  const std::vector<int>& parent = index_->family_->parent_edge;
  while (walk_ < order.size()) {
    const int g = order[walk_++];
    if (comp_->Test(parent[g]) && !index_->Meets(g, *conn_)) {
      list_.push_back(g);
      return true;
    }
  }
  walking_ = false;
  return false;
}

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
