// VertexSet: a fixed-universe bitset sized at construction. It is the
// workhorse set representation for vertices and edge ids across all
// decomposition solvers — intersection-heavy algorithms (set cover, component
// splitting, elimination) run on whole 64-bit words.
//
// Representation: small-set optimized. Universes of up to 128 elements
// (kInlineWords * 64) live entirely inside the object — two words, no heap —
// which covers every vertex/edge universe of the benchmark families and the
// tractable-variant instances the engines target. Larger universes fall back
// to one heap array. Copying an inline set is a 24-byte memcpy; the solvers
// copy sets on almost every inner-loop step (bag construction, component
// splitting, guard unions), so this is the single most load-bearing layout
// decision in the library.
//
// There is deliberately no cached hash in the value: a cache word would grow
// the object, turn trivial copies into cache-maintenance, and (as an atomic)
// make them non-memcpy-able. Call sites that hash the same set repeatedly go
// through SetInterner (util/set_interner.h), which stores the hash next to
// the canonical copy once and hands out 32-bit ids — integer keys downstream.
#ifndef GHD_UTIL_BITSET_H_
#define GHD_UTIL_BITSET_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "obs/obs.h"
#include "util/check.h"
#include "util/hash_mix.h"

namespace ghd {

/// Fixed-universe bitset. All binary operations require both operands to
/// have the same universe size.
class VertexSet {
 public:
  /// Universes at most this large are stored inline (no heap allocation).
  static constexpr int kInlineCapacity = 128;

  /// Empty set over an empty universe.
  VertexSet() = default;
  /// Empty set over a universe of `universe_size` elements {0, ..., n-1}.
  explicit VertexSet(int universe_size)
      : size_(universe_size), num_words_((universe_size + 63) / 64) {
    GHD_CHECK(universe_size >= 0);
    if (is_inline()) {
      GHD_COUNT(kBitsetInlineSets);
      inline_[0] = 0;
      inline_[1] = 0;
    } else {
      GHD_COUNT(kBitsetHeapSets);
      heap_ = new uint64_t[num_words_]();
    }
  }

  VertexSet(const VertexSet& o) : size_(o.size_), num_words_(o.num_words_) {
    if (is_inline()) {
      inline_[0] = o.inline_[0];
      inline_[1] = o.inline_[1];
    } else {
      heap_ = new uint64_t[num_words_];
      std::memcpy(heap_, o.heap_, sizeof(uint64_t) * num_words_);
    }
  }
  VertexSet(VertexSet&& o) noexcept : size_(o.size_), num_words_(o.num_words_) {
    if (is_inline()) {
      inline_[0] = o.inline_[0];
      inline_[1] = o.inline_[1];
    } else {
      heap_ = o.heap_;
      o.size_ = 0;
      o.num_words_ = 0;
    }
  }
  VertexSet& operator=(const VertexSet& o) {
    if (this == &o) return *this;
    // Heap-to-heap with matching word count reuses the allocation: the
    // assignment-in-a-loop pattern of the search engines never reallocates.
    if (!is_inline() && !o.is_inline() && num_words_ == o.num_words_) {
      size_ = o.size_;
      std::memcpy(heap_, o.heap_, sizeof(uint64_t) * num_words_);
      return *this;
    }
    if (!is_inline()) delete[] heap_;
    size_ = o.size_;
    num_words_ = o.num_words_;
    if (is_inline()) {
      inline_[0] = o.inline_[0];
      inline_[1] = o.inline_[1];
    } else {
      heap_ = new uint64_t[num_words_];
      std::memcpy(heap_, o.heap_, sizeof(uint64_t) * num_words_);
    }
    return *this;
  }
  VertexSet& operator=(VertexSet&& o) noexcept {
    if (this == &o) return *this;
    if (!is_inline()) delete[] heap_;
    size_ = o.size_;
    num_words_ = o.num_words_;
    if (is_inline()) {
      inline_[0] = o.inline_[0];
      inline_[1] = o.inline_[1];
    } else {
      heap_ = o.heap_;
      o.size_ = 0;
      o.num_words_ = 0;
    }
    return *this;
  }
  ~VertexSet() {
    if (!is_inline()) delete[] heap_;
  }

  /// Builds a set over `universe_size` containing exactly `elements`.
  static VertexSet Of(int universe_size, const std::vector<int>& elements);
  /// Full set {0, ..., universe_size-1}.
  static VertexSet Full(int universe_size);
  /// Set whose first (at most 64) elements come from the bits of `word0`.
  /// Bits at or above `universe_size` must be zero (checked).
  static VertexSet FromWord(int universe_size, uint64_t word0);
  /// Set over `universe_size` whose words are copied from `words`
  /// ((universe_size + 63) / 64 of them). Bits at or above `universe_size`
  /// must be zero — rows of a kernels::BitMatrix satisfy this by
  /// construction. The word-array twin of FromWord for the flat CSR kernels.
  static VertexSet FromWords(int universe_size, const uint64_t* words);

  int universe_size() const { return size_; }

  bool Test(int i) const {
    GHD_DCHECK(i >= 0 && i < size_);
    return (words()[i >> 6] >> (i & 63)) & 1;
  }
  void Set(int i) {
    GHD_DCHECK(i >= 0 && i < size_);
    words()[i >> 6] |= uint64_t{1} << (i & 63);
  }
  void Reset(int i) {
    GHD_DCHECK(i >= 0 && i < size_);
    words()[i >> 6] &= ~(uint64_t{1} << (i & 63));
  }
  void Clear() {
    uint64_t* w = words();
    for (int i = 0; i < num_words_; ++i) w[i] = 0;
  }

  /// Number of elements in the set.
  int Count() const;
  bool Empty() const;
  bool Any() const { return !Empty(); }

  /// Index of the lowest element, or -1 when empty.
  int First() const;
  /// Index of the lowest element > i, or -1 when none.
  int Next(int i) const;

  /// Element list in increasing order.
  std::vector<int> ToVector() const;

  VertexSet& operator|=(const VertexSet& o);
  VertexSet& operator&=(const VertexSet& o);
  /// Set difference: removes all elements of `o`.
  VertexSet& operator-=(const VertexSet& o);
  /// Set difference with a raw row of word_count() words over the same
  /// universe (a BitMatrix row, say), without building a set from it.
  VertexSet& SubtractWords(const uint64_t* row);

  friend VertexSet operator|(VertexSet a, const VertexSet& b) { return a |= b; }
  friend VertexSet operator&(VertexSet a, const VertexSet& b) { return a &= b; }
  friend VertexSet operator-(VertexSet a, const VertexSet& b) { return a -= b; }

  bool operator==(const VertexSet& o) const {
    if (size_ != o.size_) return false;
    const uint64_t* a = words();
    const uint64_t* b = o.words();
    for (int i = 0; i < num_words_; ++i) {
      if (a[i] != b[i]) return false;
    }
    return true;
  }
  bool operator!=(const VertexSet& o) const { return !(*this == o); }
  /// Lexicographic order on words; usable as a map key.
  bool operator<(const VertexSet& o) const;

  bool Intersects(const VertexSet& o) const;
  bool IsSubsetOf(const VertexSet& o) const;
  /// |*this & o| without materializing the intersection.
  int IntersectCount(const VertexSet& o) const;

  /// 64-bit hash usable for unordered containers: FNV-1a over the words and
  /// universe size, splitmix64-finalized. Computed on every call — sets that
  /// are hashed repeatedly belong in a SetInterner, whose table caches the
  /// hash next to the canonical copy.
  uint64_t Hash() const;

  /// Renders "{a, b, c}" for debugging.
  std::string ToString() const;

  /// Raw word view for the flat CSR/SIMD kernels (hypergraph/kernels.h):
  /// (universe_size + 63) / 64 little-endian 64-bit words, unused high bits
  /// zero. The pointer is into this object — it is invalidated by assignment
  /// and destruction, exactly like a std::vector::data() view.
  const uint64_t* word_data() const { return words(); }
  int word_count() const { return num_words_; }

  /// Calls fn(i) for each element i in increasing order.
  template <typename Fn>
  void ForEach(Fn fn) const {
    const uint64_t* w = words();
    for (int i = 0; i < num_words_; ++i) {
      uint64_t bits = w[i];
      while (bits != 0) {
        fn(i * 64 + __builtin_ctzll(bits));
        bits &= bits - 1;
      }
    }
  }

  /// Batched construction: accumulates unions and single bits, then releases
  /// the finished set with one move. Historically this existed so that build
  /// loops paid one hash-cache invalidation instead of one per Set(); the
  /// cache has since moved out of the value entirely, and the builder remains
  /// as the idiomatic way to spell "construct by accumulation" on hot paths
  /// like Hypergraph::UnionOfEdges. Defined below the class.
  class Builder;

 private:
  static constexpr int kInlineWords = kInlineCapacity / 64;

  bool is_inline() const { return num_words_ <= kInlineWords; }
  uint64_t* words() { return is_inline() ? inline_ : heap_; }
  const uint64_t* words() const { return is_inline() ? inline_ : heap_; }

  int32_t size_ = 0;
  int32_t num_words_ = 0;
  union {
    uint64_t inline_[kInlineWords] = {0, 0};
    uint64_t* heap_;
  };
};

class VertexSet::Builder {
 public:
  explicit Builder(int universe_size) : set_(universe_size) {}
  Builder& Add(int i) {
    set_.Set(i);
    return *this;
  }
  /// Unions `o` in, whole words at a time.
  Builder& AddAll(const VertexSet& o) {
    set_ |= o;
    return *this;
  }
  VertexSet Build() && { return std::move(set_); }

 private:
  VertexSet set_;
};

/// std::unordered_map-compatible hasher.
struct VertexSetHash {
  size_t operator()(const VertexSet& s) const {
    return static_cast<size_t>(s.Hash());
  }
};

}  // namespace ghd

#endif  // GHD_UTIL_BITSET_H_
