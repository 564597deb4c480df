#include "graph/elimination_graph.h"

#include <algorithm>

namespace ghd {
namespace {

// Per-thread stamp marks over vertex ids: a vertex is marked when its entry
// equals the current stamp, so clearing is one increment. Shared by every
// graph on the thread, which keeps copies of a graph free of scratch and
// lets concurrent readers of one const graph mark independently.
struct Marks {
  std::vector<uint32_t> stamp;
  uint32_t current = 0;

  // A fresh stamp over ids below n.
  uint32_t Next(int n) {
    if (stamp.size() < static_cast<size_t>(n)) stamp.resize(n, 0);
    if (++current == 0) {
      std::fill(stamp.begin(), stamp.end(), 0);
      current = 1;
    }
    return current;
  }
};

Marks& ThreadMarks() {
  thread_local Marks marks;
  return marks;
}

// Scratch lists for Eliminate/Contract, reused across calls on the thread.
std::vector<int32_t>& Scratch(int which) {
  thread_local std::vector<int32_t> scratch[2];
  return scratch[which];
}

}  // namespace

EliminationGraph::EliminationGraph(const FlatHypergraph& flat)
    : begin_(flat.num_vertices()),
      size_(flat.num_vertices()),
      capacity_(flat.num_vertices()) {
  const int n = flat.num_vertices();
  const std::vector<int32_t>& voff = flat.vertex_offsets();
  const std::vector<int32_t>& vedges = flat.vertex_edges();
  const std::vector<int32_t>& eoff = flat.edge_offsets();
  const std::vector<int32_t>& everts = flat.edge_vertices();
  Marks& marks = ThreadMarks();
  for (int v = 0; v < n; ++v) {
    const uint32_t s = marks.Next(n);
    marks.stamp[v] = s;
    const size_t start = pool_.size();
    for (int i = voff[v]; i < voff[v + 1]; ++i) {
      const int e = vedges[i];
      for (int j = eoff[e]; j < eoff[e + 1]; ++j) {
        const int u = everts[j];
        if (marks.stamp[u] != s) {
          marks.stamp[u] = s;
          pool_.push_back(u);
        }
      }
    }
    std::sort(pool_.begin() + start, pool_.end());
    begin_[v] = static_cast<int32_t>(start);
    size_[v] = capacity_[v] = static_cast<int32_t>(pool_.size() - start);
  }
  live_capacity_ = static_cast<long>(pool_.size());
}

EliminationGraph::EliminationGraph(const Graph& g)
    : begin_(g.num_vertices()),
      size_(g.num_vertices()),
      capacity_(g.num_vertices()) {
  for (int v = 0; v < g.num_vertices(); ++v) {
    begin_[v] = static_cast<int32_t>(pool_.size());
    g.Neighbors(v).ForEach([&](int u) { pool_.push_back(u); });
    size_[v] = capacity_[v] = static_cast<int32_t>(pool_.size()) - begin_[v];
  }
  live_capacity_ = static_cast<long>(pool_.size());
}

bool EliminationGraph::HasEdge(int u, int v) const {
  GHD_DCHECK(u >= 0 && u < num_vertices() && v >= 0 && v < num_vertices());
  if (size_[u] > size_[v]) std::swap(u, v);
  const std::span<const int32_t> nu = Neighbors(u);
  return std::binary_search(nu.begin(), nu.end(), v);
}

void EliminationGraph::ClosedNeighborhood(int v,
                                          std::vector<int>* bag) const {
  const std::span<const int32_t> nv = Neighbors(v);
  const auto at = std::lower_bound(nv.begin(), nv.end(), v);
  bag->assign(nv.begin(), at);
  bag->push_back(v);
  bag->insert(bag->end(), at, nv.end());
}

long EliminationGraph::FillIn(int v) const {
  const std::span<const int32_t> nv = Neighbors(v);
  Marks& marks = ThreadMarks();
  const uint32_t s = marks.Next(num_vertices());
  for (int32_t a : nv) marks.stamp[a] = s;
  long inside = 0;  // twice the edges among N(v)
  for (int32_t a : nv) {
    for (int32_t b : Neighbors(a)) inside += marks.stamp[b] == s;
  }
  const long d = static_cast<long>(nv.size());
  return d * (d - 1) / 2 - inside / 2;
}

bool EliminationGraph::IsSimplicial(int v) const {
  const std::span<const int32_t> nv = Neighbors(v);
  Marks& marks = ThreadMarks();
  const uint32_t s = marks.Next(num_vertices());
  for (int32_t a : nv) marks.stamp[a] = s;
  const int want = static_cast<int>(nv.size()) - 1;
  for (int32_t a : nv) {
    if (size_[a] < want) return false;
    int inside = 0;
    for (int32_t b : Neighbors(a)) inside += marks.stamp[b] == s;
    if (inside != want) return false;
  }
  return true;
}

int32_t* EliminationGraph::Reserve(int v, int size) {
  if (size > capacity_[v]) {
    const int capacity = std::max(size, 2 * capacity_[v]);
    live_capacity_ += capacity - capacity_[v];
    begin_[v] = static_cast<int32_t>(pool_.size());
    capacity_[v] = capacity;
    pool_.resize(pool_.size() + capacity);
  }
  return pool_.data() + begin_[v];
}

void EliminationGraph::Erase(int v, int u) {
  int32_t* first = pool_.data() + begin_[v];
  int32_t* last = first + size_[v];
  int32_t* at = std::lower_bound(first, last, u);
  GHD_DCHECK(at != last && *at == u);
  std::copy(at + 1, last, at);
  --size_[v];
}

void EliminationGraph::Release(int v) {
  live_capacity_ -= capacity_[v];
  size_[v] = capacity_[v] = 0;
}

void EliminationGraph::Compact() {
  std::vector<int32_t> pool;
  pool.reserve(live_capacity_);
  for (int v = 0; v < num_vertices(); ++v) {
    const int32_t start = static_cast<int32_t>(pool.size());
    pool.insert(pool.end(), pool_.begin() + begin_[v],
                pool_.begin() + begin_[v] + size_[v]);
    pool.resize(start + capacity_[v]);
    begin_[v] = start;
  }
  pool_ = std::move(pool);
}

void EliminationGraph::Eliminate(int v) {
  std::vector<int32_t>& nv = Scratch(0);
  std::vector<int32_t>& merged = Scratch(1);
  const std::span<const int32_t> current = Neighbors(v);
  nv.assign(current.begin(), current.end());
  for (int32_t a : nv) {
    // N(a) := N(a) ∪ N(v) \ {a, v}, one sorted merge.
    const std::span<const int32_t> na = Neighbors(a);
    merged.clear();
    auto x = na.begin();
    auto y = nv.begin();
    while (x != na.end() || y != nv.end()) {
      int32_t w;
      if (y == nv.end() || (x != na.end() && *x < *y)) {
        w = *x++;
      } else if (x == na.end() || *y < *x) {
        w = *y++;
      } else {
        w = *x++;
        ++y;
      }
      if (w != a && w != v) merged.push_back(w);
    }
    int32_t* slot = Reserve(a, static_cast<int>(merged.size()));
    std::copy(merged.begin(), merged.end(), slot);
    size_[a] = static_cast<int32_t>(merged.size());
  }
  Release(v);
  CompactIfSparse();
}

void EliminationGraph::Contract(int u, int v) {
  GHD_DCHECK(HasEdge(u, v));
  std::vector<int32_t>& nv = Scratch(0);
  std::vector<int32_t>& merged = Scratch(1);
  const std::span<const int32_t> current = Neighbors(v);
  nv.assign(current.begin(), current.end());
  // N(u) := N(u) ∪ N(v) \ {u, v}.
  const std::span<const int32_t> nu = Neighbors(u);
  merged.clear();
  std::set_union(nu.begin(), nu.end(), nv.begin(), nv.end(),
                 std::back_inserter(merged));
  merged.erase(std::remove_if(merged.begin(), merged.end(),
                              [&](int32_t w) { return w == u || w == v; }),
               merged.end());
  int32_t* slot = Reserve(u, static_cast<int>(merged.size()));
  std::copy(merged.begin(), merged.end(), slot);
  size_[u] = static_cast<int32_t>(merged.size());
  // Every other neighbour w of v trades v for u (keeping u once).
  for (int32_t w : nv) {
    if (w == u) continue;
    Erase(w, v);
    int32_t* first = pool_.data() + begin_[w];
    int32_t* last = first + size_[w];
    int32_t* at = std::lower_bound(first, last, u);
    if (at != last && *at == u) continue;
    std::copy_backward(at, last, last + 1);  // v's freed entry makes room
    *at = u;
    ++size_[w];
  }
  Release(v);
  CompactIfSparse();
}

void EliminationGraph::Isolate(int v) {
  for (int32_t a : Neighbors(v)) Erase(a, v);
  Release(v);
  CompactIfSparse();
}

}  // namespace ghd
