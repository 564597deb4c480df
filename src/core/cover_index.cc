#include "core/cover_index.h"

#include <algorithm>

#include "util/check.h"
#include "util/hash_mix.h"

namespace ghd {
namespace {

struct Scored {
  int conn_cover;  // |guard ∩ conn|
  int comp_cover;  // |guard ∩ V(comp)|
  int guard;
};

// Per-thread scoring scratch: epoch-stamped marks and hit counts per guard,
// grown once, so Open allocates nothing after warmup beyond the cursor's list.
struct ScoreScratch {
  std::vector<uint32_t> mark;
  std::vector<int> hits;
  std::vector<int32_t> touched;
  std::vector<Scored> scored;
  uint32_t epoch = 0;

  // Two fresh stamps for a family of `guards`: the returned one marks the
  // prefix, the one after it the scored tail.
  uint32_t Begin(int guards) {
    if (mark.size() < static_cast<size_t>(guards)) {
      mark.resize(guards, 0);
      hits.resize(guards, 0);
    }
    if (epoch > UINT32_MAX - 2) {
      std::fill(mark.begin(), mark.end(), 0);
      epoch = 0;
    }
    epoch += 2;
    return epoch - 1;
  }
};

ScoreScratch& Scratch() {
  thread_local ScoreScratch scratch;
  return scratch;
}

}  // namespace

CoverIndex::CoverIndex(const Hypergraph& h, const GuardFamily& family)
    : family_(&family),
      parented_(family.HasParents()) {
  const int num_guards = family.size();
  const int n = h.num_vertices();
  std::vector<int32_t> degree(n + 1, 0);
  guard_offsets_.reserve(num_guards + 1);
  guard_offsets_.push_back(0);
  for (int g = 0; g < num_guards; ++g) {
    GHD_CHECK(family.guards[g].universe_size() == n);
    family.guards[g].ForEach([&](int v) {
      guard_vertices_.push_back(v);
      ++degree[v + 1];
    });
    guard_offsets_.push_back(static_cast<int32_t>(guard_vertices_.size()));
  }
  // The family check: a guard with a parent edge must lie inside it. The
  // static tail order is exact only under this containment.
  for (int g = 0; g < num_guards; ++g) {
    const int parent = family.parent_edge[g];
    GHD_CHECK(parent < h.num_edges());
    if (parent < 0) continue;
    const VertexSet& edge = h.edge(parent);
    for (int32_t v : GuardVertices(g)) GHD_CHECK(edge.Test(v));
  }

  vertex_offsets_.assign(n + 1, 0);
  for (int v = 0; v < n; ++v) vertex_offsets_[v + 1] = vertex_offsets_[v] + degree[v + 1];
  vertex_guards_.resize(guard_vertices_.size());
  std::vector<int32_t> fill(vertex_offsets_.begin(), vertex_offsets_.end() - 1);
  for (int g = 0; g < num_guards; ++g) {
    for (int32_t v : GuardVertices(g)) vertex_guards_[fill[v]++] = g;
  }

  for (int g = 0; g < num_guards; ++g) {
    if (guard_offsets_[g + 1] > guard_offsets_[g]) order_.push_back(g);
  }
  std::stable_sort(order_.begin(), order_.end(), [&](int32_t a, int32_t b) {
    return guard_offsets_[a + 1] - guard_offsets_[a] >
           guard_offsets_[b + 1] - guard_offsets_[b];
  });
}

void CoverIndex::Open(const VertexSet& comp, const VertexSet& v_comp,
                      const VertexSet& conn, CandidateCursor* cursor) const {
  ScoreScratch& s = Scratch();
  const uint32_t in_prefix = s.Begin(num_guards());
  const uint32_t in_tail = in_prefix + 1;

  // Prefix: the guards meeting the connector, counted through its rows.
  s.touched.clear();
  conn.ForEach([&](int v) {
    for (int32_t g : VertexGuards(v)) {
      if (s.mark[g] != in_prefix) {
        s.mark[g] = in_prefix;
        s.hits[g] = 0;
        s.touched.push_back(g);
      }
      ++s.hits[g];
    }
  });
  s.scored.clear();
  for (int32_t g : s.touched) {
    int comp_cover = 0;
    for (int32_t v : GuardVertices(g)) comp_cover += v_comp.Test(v) ? 1 : 0;
    s.scored.push_back(Scored{s.hits[g], comp_cover, g});
  }
  std::sort(s.scored.begin(), s.scored.end(),
            [](const Scored& a, const Scored& b) {
              if (a.conn_cover != b.conn_cover) {
                return a.conn_cover > b.conn_cover;
              }
              if (a.comp_cover != b.comp_cover) {
                return a.comp_cover > b.comp_cover;
              }
              return a.guard < b.guard;
            });
  std::vector<int>& list = cursor->list_;
  list.clear();
  for (const Scored& sc : s.scored) list.push_back(sc.guard);
  cursor->index_ = this;
  cursor->comp_ = &comp;
  cursor->conn_ = &conn;
  cursor->prefix_size_ = list.size();
  cursor->read_ = 0;
  cursor->walk_ = 0;
  cursor->walking_ = false;

  if (parented_) {
    cursor->walking_ = true;
    return;
  }

  // No parent edges: score the guards touching V(comp) \ conn.
  s.touched.clear();
  v_comp.ForEach([&](int v) {
    if (conn.Test(v)) return;
    for (int32_t g : VertexGuards(v)) {
      if (s.mark[g] == in_prefix) continue;
      if (s.mark[g] != in_tail) {
        s.mark[g] = in_tail;
        s.hits[g] = 0;
        s.touched.push_back(g);
      }
      ++s.hits[g];
    }
  });
  s.scored.clear();
  for (int32_t g : s.touched) s.scored.push_back(Scored{0, s.hits[g], g});
  std::sort(s.scored.begin(), s.scored.end(),
            [](const Scored& a, const Scored& b) {
              if (a.comp_cover != b.comp_cover) {
                return a.comp_cover > b.comp_cover;
              }
              return a.guard < b.guard;
            });
  for (const Scored& sc : s.scored) list.push_back(sc.guard);
}

NegSeparatorCache::NegSeparatorCache(size_t slot_count) {
  size_t n = 1;
  while (n < slot_count) n <<= 1;
  mask_ = n - 1;
}

size_t NegSeparatorCache::SlotOf(uint64_t key) const {
  return static_cast<size_t>(SplitMix64(key)) & mask_;
}

bool NegSeparatorCache::Contains(uint64_t key) const {
  return !slots_.empty() && slots_[SlotOf(key)] == key;
}

void NegSeparatorCache::Insert(uint64_t key) {
  if (slots_.empty()) slots_.assign(mask_ + 1, 0);
  slots_[SlotOf(key)] = key;
}

}  // namespace ghd
