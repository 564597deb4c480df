// Canonical instance fingerprinting: an isomorphism-invariant 128-bit
// identity for a hypergraph plus the vertex/edge relabeling that realizes it.
//
// The serving story (ROADMAP item 1) is that real decomposition traffic is
// dominated by repeats — the same query shape re-asked under fresh variable
// names. Since ghw(H) <= k is NP-hard already for k = 2 (Gottlob-Miklos-
// Schwentick; Fischl-Gottlob-Pichler), amortizing one expensive solve across
// every isomorphic re-ask is the largest constant-factor win available, and
// it needs exactly one primitive: a canonical form. Two hypergraphs get the
// same InstanceKey iff (modulo 128-bit hash collisions) they are isomorphic
// as vertex/edge-labeled structures, and the permutations returned alongside
// the key map any cached decomposition of the canonical instance back onto
// the concrete one (cache/decomp_cache.h does that rehydration).
//
// Algorithm: iterative color refinement (1-WL) on the bipartite incidence
// structure — vertex colors refined by the multiset of incident edge colors,
// edge colors by the multiset of member vertex colors — seeded with a
// degree/arity/intersection profile and run over the FlatHypergraph CSR
// arrays only (the intersection profile counts shared vertices through the
// vertex CSR). Refinement follows Hopcroft's "all but the largest" rule: of
// a cell that splits, the largest part keeps its color and is not rescored
// from, so a round costs what it changes. When refinement stabilizes with
// non-singleton cells, the standard individualization-refinement search
// distinguishes one vertex of a canonically chosen cell per branch and takes
// the lexicographically smallest discrete leaf; cells of mutual twins
// (identical incidence lists) never branch — their members are
// interchangeable by an automorphism. The search refines one coloring in
// place and rolls each branch back through a trail of recolorings, so a
// branch copies nothing.
//
// Two leaves with equal encodings give an automorphism. It prunes twice:
// at the root, branches in an explored orbit are skipped; below the root,
// when the automorphism maps the earlier leaf's path onto the current one
// up to the depth where the two paths part, the search backjumps to that
// depth (nauty-style), because the rest of the subtree below it is the
// image of one already explored. A
// chain of k symmetric diamonds (gen/circuits.h BridgeHypergraph) then costs
// (k + 2)(k + 3) / 2 nodes instead of 2^(k+2) - 1. Neither pruning changes
// the result: it is the first leaf in depth-first order that reaches the
// minimal encoding, as in the unpruned search.
//
// The search is budgeted: past `max_nodes` refinement nodes the remaining
// branches collapse to a greedy first-candidate descent and the result is
// marked non-canonical (`canonical = false`). A non-canonical key is still
// deterministic for byte-identical re-asks — it just stops being invariant
// under relabeling, so the cache degrades to exact-repeat matching instead
// of returning wrong answers.
#ifndef GHD_HYPERGRAPH_CANONICAL_H_
#define GHD_HYPERGRAPH_CANONICAL_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "hypergraph/hypergraph.h"
#include "util/hash_mix.h"

namespace ghd {

/// 128-bit instance identity: two independently seeded hashes of the
/// canonical encoding. Equality of keys is the cache's notion of "same
/// instance"; a collision between non-isomorphic instances requires a
/// 128-bit hash collision (witness rehydration additionally re-validates
/// against the concrete instance, so a collision can mis-serve a verdict but
/// never an invalid decomposition).
struct InstanceKey {
  uint64_t hi = 0;
  uint64_t lo = 0;

  bool operator==(const InstanceKey& o) const {
    return hi == o.hi && lo == o.lo;
  }
  bool operator!=(const InstanceKey& o) const { return !(*this == o); }
  bool operator<(const InstanceKey& o) const {
    return hi != o.hi ? hi < o.hi : lo < o.lo;
  }

  /// 32 lowercase hex digits, hi then lo — the log/manifest rendering.
  std::string ToHex() const;
};

struct InstanceKeyHash {
  size_t operator()(const InstanceKey& k) const {
    return static_cast<size_t>(HashCombine(k.hi, k.lo));
  }
};

struct CanonicalizeOptions {
  /// Individualization-refinement node budget. Past it the search finishes
  /// greedily and the result is marked non-canonical. A node costs the
  /// refinement its individualization sets off plus an O(n) scan, and a
  /// branch is rolled back, not copied, so the budget bounds time as well as
  /// memory. The default covers every suite and benchmark family: cycles
  /// and grids need at most 10 nodes, bridges of k diamonds
  /// (k + 2)(k + 3) / 2 (351 at k = 24), hypercubes 3-5 at most 46.
  /// Disjoint unions of components that refinement cannot tell apart can
  /// still overflow it (orbits prune only at the root).
  long max_nodes = 4096;
};

/// Canonicalize skips the O(m^2) pairwise intersection profile above this
/// edge count (refinement alone recovers the distinctions in a round or two).
inline constexpr int kMaxProfileEdges = 2048;

/// The canonical form: key + the relabeling that produced it.
struct CanonicalFormResult {
  InstanceKey key;
  /// Original vertex id -> canonical vertex id (a permutation of
  /// {0, ..., num_vertices-1}).
  std::vector<int> vertex_perm;
  /// Original edge id -> canonical edge id.
  std::vector<int> edge_perm;
  /// True when the key is isomorphism-invariant; false when the node budget
  /// truncated the individualization search (key still deterministic, only
  /// exact re-asks will match).
  bool canonical = true;
  /// Refinement nodes explored by the individualization search (1 when
  /// refinement alone was conclusive).
  long nodes_explored = 0;
  /// Total refinement rounds across all nodes (stats/bench).
  long refinement_rounds = 0;
  /// Subtrees abandoned by automorphism backjumping.
  long backjumps = 0;
};

/// Computes the canonical form of h. Deterministic; never fails. Each search
/// node costs the refinement work its individualization sets off (the
/// elements whose color changes and their neighbors) plus an O(n) scan for
/// the target cell; each leaf sorts the relabeled edges. Tens to hundreds of
/// microseconds on the repeat_batch catalogue; BM_Canonicalize,
/// BM_CanonicalizeWindow and BM_CanonicalizeAdder pin it.
CanonicalFormResult Canonicalize(const Hypergraph& h,
                                 const CanonicalizeOptions& options = {});

/// A stable coloring, as the search sees it: colors are opaque 64-bit values
/// and only the partitions they induce on the vertices and on the edges
/// mean anything.
struct RefinedColoring {
  std::vector<uint64_t> vertex_colors;
  std::vector<uint64_t> edge_colors;
};

/// The stable coloring refinement reaches on h from the seed colors (the
/// root of the search); with `individualized` a vertex, that coloring after
/// the vertex is split off and refinement runs again (a depth-1 node).
/// Exposed so tests can compare the partitions with a reference refinement.
RefinedColoring StableColoring(const Hypergraph& h, int individualized = -1);

/// Rebuilds h with vertex v renamed to vertex_perm[v] and edge e moved to
/// position edge_perm[e] (names travel with their vertices/edges). The
/// isomorphism-differential tests and the repeat-traffic generators use this
/// to manufacture isomorphic re-asks; Canonicalize(h) and
/// Canonicalize(RelabeledHypergraph(h, ...)) must agree on the key.
Hypergraph RelabeledHypergraph(const Hypergraph& h,
                               const std::vector<int>& vertex_perm,
                               const std::vector<int>& edge_perm);

}  // namespace ghd

#endif  // GHD_HYPERGRAPH_CANONICAL_H_
