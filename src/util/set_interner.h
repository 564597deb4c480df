// SetInterner: hash-consing for VertexSets. Intern() maps a set to a dense
// 32-bit id; equal sets (same universe, same elements) always receive the
// same id, so downstream keys — the width-k decider's (component, connector)
// memo states, the GHW engines' bag -> cover-size caches — become integer
// pairs: equality is an integer compare, hashing is one splitmix64 round, and
// a memoized StateKey shrinks from two bitsets to 8 bytes.
//
// This is also where the bitset hash cache went when it moved out of
// VertexSet (util/bitset.h): the interner computes each canonical set's hash
// exactly once, on first insertion, and serves it from HashOf() thereafter.
//
// One table, no locks: every search runs on one thread and owns its
// interner. Ids are dense, stable and never recycled; Resolve() returns a
// reference to the canonical copy that stays valid for the interner's
// lifetime (storage is node-stable, nothing is ever erased).
//
// Lifetime invariant: an interned id is a borrowed name, meaningful only
// while the interner that issued it is alive. Memo tables keyed by ids must
// therefore never outlive their interner — in the engines both live in the
// same per-search struct and die together. Never mix ids from two interners.
#ifndef GHD_UTIL_SET_INTERNER_H_
#define GHD_UTIL_SET_INTERNER_H_

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/bitset.h"

namespace ghd {

class SetInterner {
 public:
  SetInterner() = default;

  SetInterner(const SetInterner&) = delete;
  SetInterner& operator=(const SetInterner&) = delete;

  /// Canonical id for `s`; inserts a canonical copy on first sight. When
  /// `inserted` is non-null it reports whether this call created the entry
  /// (callers use it to charge the copy's bytes against a memory budget).
  uint32_t Intern(const VertexSet& s, bool* inserted = nullptr);

  /// The canonical set for an id issued by this interner. The reference is
  /// stable for the interner's lifetime; ids from other interners are
  /// undefined behavior (bounds-checked in debug builds only).
  const VertexSet& Resolve(uint32_t id) const;

  /// The canonical set's hash, computed once at interning time.
  uint64_t HashOf(uint32_t id) const;

  /// Total interned sets (for stats/tests).
  size_t Size() const { return by_index_.size(); }

 private:
  // The map nodes ARE the canonical storage (node-based, stable, never
  // erased); by_index_ maps id -> (canonical set, its hash) for
  // Resolve/HashOf. Construction allocates nothing; each new set costs
  // exactly one map node.
  std::unordered_map<VertexSet, uint32_t, VertexSetHash> ids_;
  std::vector<std::pair<const VertexSet*, uint64_t>> by_index_;
};

}  // namespace ghd

#endif  // GHD_UTIL_SET_INTERNER_H_
