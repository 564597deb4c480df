#include "util/bitset.h"

#include <bit>

namespace ghd {

VertexSet VertexSet::Of(int universe_size, const std::vector<int>& elements) {
  VertexSet s(universe_size);
  for (int e : elements) s.Set(e);
  return s;
}

VertexSet VertexSet::Full(int universe_size) {
  VertexSet s(universe_size);
  uint64_t* w = s.words();
  for (int i = 0; i < s.num_words_; ++i) w[i] = ~uint64_t{0};
  if (universe_size & 63) {
    w[s.num_words_ - 1] = (uint64_t{1} << (universe_size & 63)) - 1;
  }
  return s;
}

VertexSet VertexSet::FromWord(int universe_size, uint64_t word0) {
  VertexSet s(universe_size);
  if (universe_size < 64) {
    GHD_CHECK((word0 >> universe_size) == 0);
  }
  if (s.num_words_ > 0) s.words()[0] = word0;
  GHD_CHECK(s.num_words_ > 0 || word0 == 0);
  return s;
}

VertexSet VertexSet::FromWords(int universe_size, const uint64_t* words) {
  VertexSet s(universe_size);
  if (s.num_words_ > 0) {
    std::memcpy(s.words(), words, sizeof(uint64_t) * s.num_words_);
    if (universe_size & 63) {
      GHD_DCHECK((words[s.num_words_ - 1] >>
                  (universe_size & 63)) == 0);
    }
  }
  return s;
}

int VertexSet::Count() const {
  const uint64_t* w = words();
  int c = 0;
  for (int i = 0; i < num_words_; ++i) c += std::popcount(w[i]);
  return c;
}

bool VertexSet::Empty() const {
  const uint64_t* w = words();
  for (int i = 0; i < num_words_; ++i) {
    if (w[i] != 0) return false;
  }
  return true;
}

int VertexSet::First() const {
  const uint64_t* w = words();
  for (int i = 0; i < num_words_; ++i) {
    if (w[i] != 0) return i * 64 + __builtin_ctzll(w[i]);
  }
  return -1;
}

int VertexSet::Next(int i) const {
  ++i;
  if (i >= size_) return -1;
  const uint64_t* words_ptr = words();
  int w = i >> 6;
  uint64_t bits = words_ptr[w] >> (i & 63);
  if (bits != 0) return i + __builtin_ctzll(bits);
  for (++w; w < num_words_; ++w) {
    if (words_ptr[w] != 0) return w * 64 + __builtin_ctzll(words_ptr[w]);
  }
  return -1;
}

std::vector<int> VertexSet::ToVector() const {
  std::vector<int> out;
  out.reserve(Count());
  ForEach([&](int i) { out.push_back(i); });
  return out;
}

VertexSet& VertexSet::operator|=(const VertexSet& o) {
  GHD_DCHECK(size_ == o.size_);
  uint64_t* a = words();
  const uint64_t* b = o.words();
  for (int i = 0; i < num_words_; ++i) a[i] |= b[i];
  return *this;
}

VertexSet& VertexSet::operator&=(const VertexSet& o) {
  GHD_DCHECK(size_ == o.size_);
  uint64_t* a = words();
  const uint64_t* b = o.words();
  for (int i = 0; i < num_words_; ++i) a[i] &= b[i];
  return *this;
}

VertexSet& VertexSet::operator-=(const VertexSet& o) {
  GHD_DCHECK(size_ == o.size_);
  uint64_t* a = words();
  const uint64_t* b = o.words();
  for (int i = 0; i < num_words_; ++i) a[i] &= ~b[i];
  return *this;
}

VertexSet& VertexSet::SubtractWords(const uint64_t* row) {
  uint64_t* a = words();
  for (int i = 0; i < num_words_; ++i) a[i] &= ~row[i];
  return *this;
}

bool VertexSet::operator<(const VertexSet& o) const {
  if (size_ != o.size_) return size_ < o.size_;
  const uint64_t* a = words();
  const uint64_t* b = o.words();
  for (int i = num_words_; i-- > 0;) {
    if (a[i] != b[i]) return a[i] < b[i];
  }
  return false;
}

bool VertexSet::Intersects(const VertexSet& o) const {
  GHD_DCHECK(size_ == o.size_);
  const uint64_t* a = words();
  const uint64_t* b = o.words();
  for (int i = 0; i < num_words_; ++i) {
    if ((a[i] & b[i]) != 0) return true;
  }
  return false;
}

bool VertexSet::IsSubsetOf(const VertexSet& o) const {
  GHD_DCHECK(size_ == o.size_);
  const uint64_t* a = words();
  const uint64_t* b = o.words();
  for (int i = 0; i < num_words_; ++i) {
    if ((a[i] & ~b[i]) != 0) return false;
  }
  return true;
}

int VertexSet::IntersectCount(const VertexSet& o) const {
  GHD_DCHECK(size_ == o.size_);
  const uint64_t* a = words();
  const uint64_t* b = o.words();
  int c = 0;
  for (int i = 0; i < num_words_; ++i) c += std::popcount(a[i] & b[i]);
  return c;
}

uint64_t VertexSet::Hash() const {
  // FNV-1a over the words plus the universe size, splitmix64-finalized so
  // the low bits avalanche (they feed the map buckets).
  uint64_t h = 14695981039346656037ull;
  auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  mix(static_cast<uint64_t>(size_));
  const uint64_t* w = words();
  for (int i = 0; i < num_words_; ++i) mix(w[i]);
  return SplitMix64(h);
}

std::string VertexSet::ToString() const {
  std::string out = "{";
  bool first = true;
  ForEach([&](int i) {
    if (!first) out += ", ";
    out += std::to_string(i);
    first = false;
  });
  out += "}";
  return out;
}

}  // namespace ghd
