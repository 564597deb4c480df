#include "htd/det_k_decomp.h"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "core/front_door.h"
#include "core/ghw_lower.h"
#include "hypergraph/acyclicity.h"
#include "hypergraph/components.h"
#include "obs/obs.h"

namespace ghd {
namespace {

// Tries k = start, start+1, ..., max_k on h. The iteration is a textbook
// k-ladder: one context shares the interner, cover index, and the monotone
// positive memo across every rung, so states proven decomposable at width k
// are free at k+1.
HypertreeWidthResult KLadder(const Hypergraph& h, int start, int max_k,
                             const KDeciderOptions& options) {
  HypertreeWidthResult result;
  result.lower_bound = start;
  const GuardFamily family = OriginalEdgesFamily(h);
  KLadderContext ladder(h, family);
  for (int k = start; k <= max_k; ++k) {
    GHD_COUNT(kDetKIterations);
    GHD_SPAN_VAR(span, "htd", "det-k-decomp");
    span.SetArg("k", k);
    GHD_BOARD_SET(kWidthK, k);
    GHD_ATTR_SCOPE(attr, "k=" + std::to_string(k));
    KDeciderResult r = DecideWidthK(h, family, k, options, &ladder);
    result.states_visited += r.states_visited;
    result.outcome = r.outcome;
    result.outcome.ticks = result.states_visited;
    if (!r.decided) return result;  // exact stays false
    if (r.exists) {
      result.width = k;
      result.exact = true;
      result.decomposition = std::move(r.decomposition);
      return result;
    }
    result.last_failed_k = k;
  }
  return result;
}

// HwLowerBound of an h already known to be cyclic, without a GYO pass.
int CyclicHwLowerBound(const Hypergraph& h) {
  return std::max(2, GhwLowerBound(h));
}

}  // namespace

int HwLowerBound(const Hypergraph& h) {
  if (h.num_edges() == 0) return 0;
  // GhwLowerBound <= ghw = 1 on an alpha-acyclic h, so it adds nothing there.
  if (IsAlphaAcyclic(h)) return 1;
  return CyclicHwLowerBound(h);
}

KDeciderResult HypertreeWidthAtMost(const Hypergraph& h, int k,
                                    const KDeciderOptions& options) {
  return DecideWidthK(h, OriginalEdgesFamily(h), k, options);
}

HypertreeWidthResult HypertreeWidth(const Hypergraph& h, int max_k,
                                    const KDeciderOptions& options) {
  HypertreeWidthResult result;
  if (h.num_edges() == 0) {
    result.exact = true;
    result.width = 0;
    return result;
  }
  if (max_k <= 0) max_k = h.num_edges();
  // Front door: an alpha-acyclic component has hw = 1 and its GYO join tree
  // is a hypertree decomposition. The cyclic components reach one k-ladder
  // whole, not as their GYO core: ears grafted onto the core's decomposition
  // can break the special condition (DESIGN.md, "GYO front door").
  const int m = h.num_edges();
  GyoReduction gyo;
  std::vector<int> cyclic;  // edges of the cyclic components, ascending
  {
    GHD_ATTR_SCOPE(attr, "front-door");
    gyo = GyoReduce(h);
    // With no edge removed every component is cyclic; otherwise those that
    // keep a survivor are.
    if (!gyo.acyclic() && !gyo.removal_order.empty()) {
      for (const std::vector<int>& group : ConnectedEdgeComponents(h)) {
        if (std::any_of(group.begin(), group.end(),
                        [&](int e) { return gyo.alive[e]; })) {
          cyclic.insert(cyclic.end(), group.begin(), group.end());
        }
      }
      std::sort(cyclic.begin(), cyclic.end());
    }
  }
  if (gyo.removal_order.empty() || static_cast<int>(cyclic.size()) == m) {
    // Every component is cyclic here.
    return KLadder(h, CyclicHwLowerBound(h), max_k, options);
  }
  // One ladder on the cyclic components, the acyclic ones' join trees
  // grafted under its node 0.
  GeneralizedHypertreeDecomposition base;
  if (cyclic.empty()) {
    result.exact = true;
    result.width = result.lower_bound = 1;
  } else {
    const Hypergraph part = EdgeSubhypergraph(h, cyclic);
    result = KLadder(part, CyclicHwLowerBound(part), max_k, options);
    if (!result.exact) return result;
    AppendPart(&base, std::move(result.decomposition), cyclic, -1);
  }
  std::vector<char> hang(m, 1);
  for (int e : cyclic) hang[e] = 0;
  result.decomposition = GraftGyoEdges(h, gyo, hang, std::move(base));
  return result;
}

}  // namespace ghd
