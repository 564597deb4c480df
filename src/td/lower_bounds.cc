#include "td/lower_bounds.h"

#include <algorithm>
#include <vector>

namespace ghd {
namespace {

// A working copy of the graph that keeps every vertex degree in an array,
// updated on isolate and contract, so the bounds below read degrees instead
// of popcounting adjacency rows. Isolated vertices have degree 0 and never
// come back, so "alive" is simply degree >= 1.
class DegreeGraph {
 public:
  explicit DegreeGraph(const Graph& g) : g_(g), degree_(g.num_vertices()) {
    for (int v = 0; v < g.num_vertices(); ++v) degree_[v] = g.Degree(v);
  }

  int num_vertices() const { return g_.num_vertices(); }
  int Degree(int v) const { return degree_[v]; }
  bool HasEdge(int u, int v) const { return g_.HasEdge(u, v); }

  // Lowest-id vertex of minimum degree among those with degree >= 1; -1 when
  // the graph has no edges left.
  int MinDegreeVertex() const {
    int best = -1;
    int best_deg = num_vertices() + 1;
    for (int v = 0; v < num_vertices(); ++v) {
      const int d = degree_[v];
      if (d >= 1 && d < best_deg) {
        best_deg = d;
        best = v;
      }
    }
    return best;
  }

  // Lowest-id neighbor of v of minimum degree.
  int MinDegreeNeighbor(int v) const {
    int best = -1;
    int best_deg = num_vertices() + 1;
    g_.Neighbors(v).ForEach([&](int u) {
      if (degree_[u] < best_deg) {
        best_deg = degree_[u];
        best = u;
      }
    });
    return best;
  }

  void Isolate(int v) {
    g_.Neighbors(v).ForEach([&](int u) { --degree_[u]; });
    degree_[v] = 0;
    g_.IsolateVertex(v);
  }

  // Contracts edge {u, v} into u (Graph::ContractEdge), keeping degrees:
  // every neighbor of v loses v, and those not yet adjacent to u gain u.
  void Contract(int u, int v) {
    g_.Neighbors(v).ForEach([&](int w) {
      --degree_[w];
      if (w != u && !g_.HasEdge(u, w)) {
        ++degree_[u];
        ++degree_[w];
      }
    });
    degree_[v] = 0;
    g_.ContractEdge(u, v);
  }

  // Vertices of degree >= 1 ordered by (degree, id): a counting sort on the
  // degree array, ids ascending within each degree.
  void ActiveByDegree(std::vector<int>* out) {
    const int n = num_vertices();
    bucket_start_.assign(n + 1, 0);
    for (int v = 0; v < n; ++v) {
      if (degree_[v] >= 1) ++bucket_start_[degree_[v]];
    }
    int total = 0;
    for (int& b : bucket_start_) {
      const int count = b;
      b = total;
      total += count;
    }
    out->resize(total);
    for (int v = 0; v < n; ++v) {
      if (degree_[v] >= 1) (*out)[bucket_start_[degree_[v]]++] = v;
    }
  }

 private:
  Graph g_;
  std::vector<int> degree_;
  std::vector<int> bucket_start_;
};

}  // namespace

int DegeneracyLowerBound(const Graph& g) {
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

int MinorMinWidthLowerBound(const Graph& g) {
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

int GammaRLowerBound(const Graph& g) {
  DegreeGraph work(g);
  std::vector<int> active;
  int lb = 0;
  while (true) {
    // Isolated vertices drop out; gamma concerns the connected remainder.
    work.ActiveByDegree(&active);
    if (active.empty()) break;
    // First vertex in ascending-degree order missing an edge to some
    // predecessor; its degree is gamma_R of the current minor.
    int chosen = -1;
    for (size_t i = 1; i < active.size() && chosen < 0; ++i) {
      for (size_t j = 0; j < i; ++j) {
        if (!work.HasEdge(active[i], active[j])) {
          chosen = active[i];
          break;
        }
      }
    }
    if (chosen < 0) {
      // The active vertices form a clique: treewidth >= |clique| - 1.
      lb = std::max(lb, static_cast<int>(active.size()) - 1);
      break;
    }
    lb = std::max(lb, work.Degree(chosen));
    work.Contract(work.MinDegreeNeighbor(chosen), chosen);
  }
  return lb;
}

int TreewidthLowerBound(const Graph& g) {
  const int mmw = MinorMinWidthLowerBound(g);
  const int gr = GammaRLowerBound(g);
  return std::max(mmw, gr);
}

}  // namespace ghd
