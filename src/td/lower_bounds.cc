#include "td/lower_bounds.h"

#include <algorithm>
#include <functional>
#include <vector>

namespace ghd {
namespace {

// A working copy of the graph with its vertices of degree >= 1 in a lazy
// min-heap keyed by (degree, id). Isolate and Contract push a fresh key for
// every vertex whose degree they change; a key is current while its degree
// matches, and stale keys are dropped as they surface. So the top current
// key is the lowest-id vertex of minimum degree, and popping yields the
// active vertices in (degree, id) order. Isolated vertices never return, so
// "alive" is simply degree >= 1.
class DegreeGraph {
 public:
  explicit DegreeGraph(const EliminationGraph& g) : g_(g) {
    for (int v = 0; v < g_.num_vertices(); ++v) {
      if (g_.Degree(v) >= 1) heap_.push_back(KeyOf(v));
    }
    std::make_heap(heap_.begin(), heap_.end(), std::greater<>());
  }

  int Degree(int v) const { return g_.Degree(v); }
  bool HasEdge(int u, int v) const { return g_.HasEdge(u, v); }

  // Lowest-id vertex of minimum degree among those with degree >= 1; -1 when
  // the graph has no edges left.
  int MinDegreeVertex() {
    while (!heap_.empty()) {
      if (Current(heap_.front())) return IdOf(heap_.front());
      Pop();
    }
    return -1;
  }

  // Lowest-id neighbor of v of minimum degree.
  int MinDegreeNeighbor(int v) const {
    int best = -1;
    int best_deg = g_.num_vertices() + 1;
    for (int u : g_.Neighbors(v)) {
      if (g_.Degree(u) < best_deg) {
        best_deg = g_.Degree(u);
        best = u;
      }
    }
    return best;
  }

  void Isolate(int v) {
    SaveNeighbors(v);
    g_.Isolate(v);
    Requeue();
  }

  // Contracts edge {u, v} into u (EliminationGraph::Contract). The degrees
  // that change are u's and those of v's other neighbors.
  void Contract(int u, int v) {
    SaveNeighbors(v);
    g_.Contract(u, v);
    Requeue();
  }

  // Takes current keys off the heap in (degree, id) order while `more(v)`
  // asks for the next vertex v, then puts them back. Returns how many
  // vertices `more` saw.
  template <typename More>
  int VisitByDegree(More more) {
    taken_.clear();
    bool go_on = true;
    while (go_on && !heap_.empty()) {
      const uint64_t key = heap_.front();
      Pop();
      if (!Current(key) || (!taken_.empty() && taken_.back() == key)) continue;
      taken_.push_back(key);
      go_on = more(IdOf(key));
    }
    for (uint64_t key : taken_) Push(key);
    return static_cast<int>(taken_.size());
  }

 private:
  static int IdOf(uint64_t key) { return static_cast<int>(key & 0xffffffffu); }
  uint64_t KeyOf(int v) const {
    return (static_cast<uint64_t>(g_.Degree(v)) << 32) |
           static_cast<uint32_t>(v);
  }
  bool Current(uint64_t key) const {
    const int v = IdOf(key);
    return g_.Degree(v) >= 1 && key == KeyOf(v);
  }
  void Push(uint64_t key) {
    heap_.push_back(key);
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
  }
  void Pop() {
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
    heap_.pop_back();
  }
  void SaveNeighbors(int v) {
    const auto nv = g_.Neighbors(v);
    changed_.assign(nv.begin(), nv.end());
  }
  void Requeue() {
    for (int w : changed_) {
      if (g_.Degree(w) >= 1) Push(KeyOf(w));
    }
  }

  EliminationGraph g_;
  std::vector<uint64_t> heap_;
  std::vector<int> changed_;
  std::vector<uint64_t> taken_;
};

}  // namespace

int DegeneracyLowerBound(const EliminationGraph& g) {
  DegreeGraph work(g);
  int lb = 0;
  while (true) {
    const int v = work.MinDegreeVertex();
    if (v < 0) break;
    lb = std::max(lb, work.Degree(v));
    work.Isolate(v);
  }
  return lb;
}

int MinorMinWidthLowerBound(const EliminationGraph& g) {
  DegreeGraph work(g);
  int lb = 0;
  while (true) {
    const int v = work.MinDegreeVertex();
    if (v < 0) break;
    lb = std::max(lb, work.Degree(v));
    const int u = work.MinDegreeNeighbor(v);
    // Contract {v, u} into u: the result is a minor, whose treewidth does not
    // exceed the original's.
    work.Contract(u, v);
  }
  return lb;
}

int GammaRLowerBound(const EliminationGraph& g) {
  DegreeGraph work(g);
  std::vector<int> prefix;
  int lb = 0;
  while (true) {
    // Walk the active vertices (isolated ones drop out) in ascending-degree
    // order up to the first one missing an edge to some predecessor; its
    // degree is gamma_R of the current minor.
    prefix.clear();
    int chosen = -1;
    const int seen = work.VisitByDegree([&](int v) {
      for (int p : prefix) {
        if (!work.HasEdge(v, p)) {
          chosen = v;
          return false;
        }
      }
      prefix.push_back(v);
      return true;
    });
    if (seen == 0) break;
    if (chosen < 0) {
      // The active vertices form a clique: treewidth >= |clique| - 1.
      lb = std::max(lb, seen - 1);
      break;
    }
    lb = std::max(lb, work.Degree(chosen));
    work.Contract(work.MinDegreeNeighbor(chosen), chosen);
  }
  return lb;
}

int TreewidthLowerBound(const EliminationGraph& g) {
  const int mmw = MinorMinWidthLowerBound(g);
  const int gr = GammaRLowerBound(g);
  return std::max(mmw, gr);
}

int DegeneracyLowerBound(const Graph& g) {
  return DegeneracyLowerBound(EliminationGraph(g));
}
int MinorMinWidthLowerBound(const Graph& g) {
  return MinorMinWidthLowerBound(EliminationGraph(g));
}
int GammaRLowerBound(const Graph& g) {
  return GammaRLowerBound(EliminationGraph(g));
}
int TreewidthLowerBound(const Graph& g) {
  return TreewidthLowerBound(EliminationGraph(g));
}

}  // namespace ghd
