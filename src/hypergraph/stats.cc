#include "hypergraph/stats.h"

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <utility>
#include <vector>

#include "hypergraph/flat_hypergraph.h"
#include "util/check.h"

namespace ghd {
namespace {

// Only edges that share a vertex can intersect, so the search walks the flat
// CSRs: from the intersection `acc` (sorted vertex ids) of the edges chosen
// so far, the last of them `last`, it counts for every later edge g how many
// vertices of `acc` it holds, one vertex list of the vertex CSR per vertex
// of `acc`. That count is |acc ∩ g|; a pair costs O(Σ_v deg(v)²) in all.
// Since |acc ∩ g ∩ ...| <= |acc ∩ g|, a further edge is only tried below a
// g whose count beats the best found, largest counts first.
class IntersectionSearch {
 public:
  IntersectionSearch(const FlatHypergraph& flat, int c)
      : flat_(flat), counts_(c), touched_(c) {
    for (std::vector<int>& level : counts_) level.assign(flat.num_edges(), 0);
  }

  // Extends `acc` by `remaining` more edges with ids above `last`.
  void Extend(const std::vector<int32_t>& acc, int last, int remaining) {
    const std::vector<int32_t>& voff = flat_.vertex_offsets();
    const std::vector<int32_t>& vedges = flat_.vertex_edges();
    std::vector<int>& count = counts_[remaining - 1];
    std::vector<int>& touched = touched_[remaining - 1];
    touched.clear();
    for (int32_t v : acc) {
      const auto begin = vedges.begin() + voff[v];
      const auto end = vedges.begin() + voff[v + 1];
      for (auto it = std::upper_bound(begin, end, last); it != end; ++it) {
        if (count[*it]++ == 0) touched.push_back(*it);
      }
    }
    if (remaining == 1) {
      for (int g : touched) {
        best_ = std::max(best_, count[g]);
        count[g] = 0;
      }
      return;
    }
    std::vector<std::pair<int, int>> next;  // (-count, edge)
    for (int g : touched) {
      if (count[g] > best_) next.emplace_back(-count[g], g);
      count[g] = 0;
    }
    std::sort(next.begin(), next.end());
    const std::vector<int32_t>& eoff = flat_.edge_offsets();
    const std::vector<int32_t>& everts = flat_.edge_vertices();
    std::vector<int32_t> narrowed;
    for (const auto& [neg_count, g] : next) {
      if (-neg_count <= best_) break;
      narrowed.clear();
      std::set_intersection(acc.begin(), acc.end(), everts.begin() + eoff[g],
                            everts.begin() + eoff[g + 1],
                            std::back_inserter(narrowed));
      Extend(narrowed, g, remaining - 1);
    }
  }

  int best() const { return best_; }

 private:
  const FlatHypergraph& flat_;
  // Per level (remaining edges - 1): a zeroed counter per edge and the
  // edges it touched, which are reset before the level returns.
  std::vector<std::vector<int>> counts_;
  std::vector<std::vector<int>> touched_;
  int best_ = 0;
};

}  // namespace

int IntersectionWidth(const Hypergraph& h) {
  return MultiIntersectionWidth(h, 2);
}

int MultiIntersectionWidth(const Hypergraph& h, int c) {
  GHD_CHECK(c >= 1);
  if (h.num_edges() < c) return 0;
  if (c == 1) return h.Rank();
  const FlatHypergraph& flat = h.Flat();
  const std::vector<int32_t>& eoff = flat.edge_offsets();
  const std::vector<int32_t>& everts = flat.edge_vertices();
  IntersectionSearch search(flat, c - 1);
  std::vector<int32_t> acc;
  for (int e = 0; e < h.num_edges(); ++e) {
    if (eoff[e + 1] - eoff[e] <= search.best()) continue;
    acc.assign(everts.begin() + eoff[e], everts.begin() + eoff[e + 1]);
    search.Extend(acc, e, c - 1);
  }
  return search.best();
}

HypergraphStats ComputeStats(const Hypergraph& h) {
  HypergraphStats s;
  s.num_vertices = h.num_vertices();
  s.num_edges = h.num_edges();
  s.rank = h.Rank();
  s.degree = h.MaxDegree();
  s.intersection_width = IntersectionWidth(h);
  s.triple_intersection_width = MultiIntersectionWidth(h, 3);
  s.connected = h.IsConnected();
  return s;
}

std::string StatsToString(const HypergraphStats& s) {
  std::string out;
  out += "n=" + std::to_string(s.num_vertices);
  out += " m=" + std::to_string(s.num_edges);
  out += " rank=" + std::to_string(s.rank);
  out += " degree=" + std::to_string(s.degree);
  out += " iwidth=" + std::to_string(s.intersection_width);
  out += " iwidth3=" + std::to_string(s.triple_intersection_width);
  out += s.connected ? " connected" : " disconnected";
  return out;
}

}  // namespace ghd
