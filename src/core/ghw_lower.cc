#include "core/ghw_lower.h"

#include <algorithm>

#include "graph/elimination_graph.h"
#include "setcover/set_cover.h"
#include "td/lower_bounds.h"

namespace ghd {

std::vector<int> EdgeSizesDescending(const Hypergraph& h) {
  const std::vector<int32_t>& offsets = h.Flat().edge_offsets();
  std::vector<int> sizes(h.num_edges());
  for (int e = 0; e < h.num_edges(); ++e) {
    sizes[e] = offsets[e + 1] - offsets[e];
  }
  std::sort(sizes.rbegin(), sizes.rend());
  return sizes;
}

int GhwLowerBoundFromTwBound(const std::vector<int>& sizes_descending,
                             int tw_lower_bound) {
  if (sizes_descending.empty()) return 0;
  // Some bag of any GHD has >= tw_lower_bound + 1 vertices, and covering any
  // c vertices needs at least CoverCountLowerBound(c) hyperedges.
  const int from_cover =
      CoverCountLowerBoundFromSizes(tw_lower_bound + 1, sizes_descending);
  return std::max(1, from_cover);
}

int GhwLowerBound(const Hypergraph& h) {
  if (h.num_edges() == 0) return 0;
  return GhwLowerBoundFromTwBound(
      EdgeSizesDescending(h), TreewidthLowerBound(EliminationGraph(h.Flat())));
}

}  // namespace ghd
