#include "cache/cached_solver.h"

#include <algorithm>
#include <utility>

#include "htd/det_k_decomp.h"
#include "obs/obs.h"
#include "util/check.h"

namespace ghd {
namespace {

// Inverts a permutation given as from -> to.
std::vector<int> Invert(const std::vector<int>& perm) {
  std::vector<int> inv(perm.size());
  for (size_t i = 0; i < perm.size(); ++i) inv[perm[i]] = static_cast<int>(i);
  return inv;
}

}  // namespace

PreparedInstance PrepareInstance(Hypergraph h,
                                 const CanonicalizeOptions& options) {
  PreparedInstance p;
  p.original = std::move(h);
  p.reduction = RemoveSubsumedEdgesMapped(p.original);
  p.canon = Canonicalize(p.reduction.reduced, options);
  return p;
}

Hypergraph CanonicalInstance(const PreparedInstance& p) {
  return RelabeledHypergraph(p.reduction.reduced, p.canon.vertex_perm,
                             p.canon.edge_perm);
}

bool RehydrateWitness(const PreparedInstance& p, const FlatDecomposition& flat,
                      GeneralizedHypertreeDecomposition* out) {
  if (flat.empty() && p.original.num_edges() > 0) return false;
  // Reduction preserves the vertex universe, so inverse-canonical vertex ids
  // are already original ids; edges additionally pass through kept_edges.
  const std::vector<int> inv_vperm = Invert(p.canon.vertex_perm);
  const std::vector<int> inv_eperm = Invert(p.canon.edge_perm);
  const int n = p.original.num_vertices();
  const int m_reduced = p.reduction.reduced.num_edges();
  GeneralizedHypertreeDecomposition d;
  const int nodes = flat.num_nodes();
  d.bags.reserve(nodes);
  d.guards.reserve(nodes);
  for (int i = 0; i < nodes; ++i) {
    VertexSet bag(n);
    for (int32_t j = flat.bag_offsets[i]; j < flat.bag_offsets[i + 1]; ++j) {
      const int32_t c = flat.bag_vertices[j];
      if (c < 0 || c >= n) return false;
      bag.Set(inv_vperm[c]);
    }
    d.bags.push_back(std::move(bag));
    std::vector<int> guard;
    for (int32_t j = flat.guard_offsets[i]; j < flat.guard_offsets[i + 1];
         ++j) {
      const int32_t c = flat.guard_edges[j];
      if (c < 0 || c >= m_reduced) return false;
      guard.push_back(p.reduction.kept_edges[inv_eperm[c]]);
    }
    d.guards.push_back(std::move(guard));
  }
  for (size_t i = 0; i + 1 < flat.tree_edges.size(); i += 2) {
    const int32_t a = flat.tree_edges[i];
    const int32_t b = flat.tree_edges[i + 1];
    if (a < 0 || a >= nodes || b < 0 || b >= nodes) return false;
    d.tree_edges.emplace_back(a, b);
  }
  // Every dropped original edge is a subset of a surviving edge, hence of
  // the bag covering that edge — so a witness valid for the reduced instance
  // is valid for the original one. Validation is still run: it is the
  // collision / corrupt-file firewall.
  if (!d.Validate(p.original).ok()) return false;
  *out = std::move(d);
  return true;
}

bool DehydrateWitness(const PreparedInstance& p,
                      const GeneralizedHypertreeDecomposition& d,
                      FlatDecomposition* out) {
  const int n = p.original.num_vertices();
  const int m = p.original.num_edges();
  const int m_reduced = p.reduction.reduced.num_edges();
  FlatDecomposition flat;
  for (size_t i = 0; i < d.bags.size(); ++i) {
    if (d.bags[i].universe_size() != n) return false;
    // Reduction keeps the vertex universe, so vertex_perm applies directly;
    // sort so the flat form matches what a canonical-space solve would emit.
    std::vector<int32_t> bag;
    d.bags[i].ForEach([&](int v) {
      bag.push_back(static_cast<int32_t>(p.canon.vertex_perm[v]));
    });
    std::sort(bag.begin(), bag.end());
    flat.bag_vertices.insert(flat.bag_vertices.end(), bag.begin(), bag.end());
    flat.bag_offsets.push_back(static_cast<int32_t>(flat.bag_vertices.size()));
    std::vector<int32_t> guard;
    for (int e : d.guards[i]) {
      if (e < 0 || e >= m) return false;
      const int reduced = p.reduction.superset_of[e];
      if (reduced < 0 || reduced >= m_reduced) return false;
      guard.push_back(static_cast<int32_t>(p.canon.edge_perm[reduced]));
    }
    // A dropped guard and its surviving superset can map to the same edge.
    std::sort(guard.begin(), guard.end());
    guard.erase(std::unique(guard.begin(), guard.end()), guard.end());
    flat.guard_edges.insert(flat.guard_edges.end(), guard.begin(),
                            guard.end());
    flat.guard_offsets.push_back(static_cast<int32_t>(flat.guard_edges.size()));
  }
  for (const auto& [a, b] : d.tree_edges) {
    flat.tree_edges.push_back(static_cast<int32_t>(a));
    flat.tree_edges.push_back(static_cast<int32_t>(b));
  }
  // Trust-but-verify in this direction too: the mapped witness must be a
  // valid decomposition of the canonical instance, or serving it to an
  // isomorphic re-ask would fail at rehydration time.
  GeneralizedHypertreeDecomposition check =
      UnflattenDecomposition(flat, n);
  if (!check.Validate(CanonicalInstance(p)).ok()) return false;
  *out = std::move(flat);
  return true;
}

CachedDecideResult CachedDecideHw(const PreparedInstance& p, int k,
                                  DecompCache* cache,
                                  const KDeciderOptions& options) {
  CachedDecideResult result;
  CacheEntry entry;
  if (cache != nullptr && cache->Lookup(p.key(), &entry)) {
    if (entry.hw_ub >= 0 && entry.hw_ub <= k &&
        RehydrateWitness(p, entry.hw_witness, &result.decomposition)) {
      result.decided = true;
      result.exists = true;
      result.from_cache = true;
      result.width = entry.hw_lb == entry.hw_ub ? entry.hw_ub : -1;
      return result;
    }
    if (entry.hw_lb > k) {
      result.decided = true;
      result.exists = false;
      result.from_cache = true;
      return result;
    }
  }
  // Miss (or inconclusive interval): run the k-ladder on the canonical
  // instance so the stored entry — and therefore what rehydration serves —
  // is identical across every isomorphic re-ask.
  const Hypergraph canon_h = CanonicalInstance(p);
  // The certified floor refutes hw <= k before any search when it exceeds k,
  // and otherwise spares the ladder every rung below it.
  CacheEntry learned;
  learned.hw_lb = HwLowerBound(canon_h);
  if (learned.hw_lb > k) {
    GHD_COUNT(kHwFloorRefutations);
    result.decided = true;
    if (cache != nullptr) cache->Merge(p.key(), learned);
    return result;
  }
  const int start_k = std::max({1, learned.hw_lb, entry.hw_lb});
  const GuardFamily family = OriginalEdgesFamily(canon_h);
  KLadderContext ladder(canon_h, family);
  for (int kk = start_k; kk <= k; ++kk) {
    const KDeciderResult r = DecideWidthK(canon_h, family, kk, options,
                                          &ladder);
    result.outcome = r.outcome;
    // Truncated: nothing certified at this rung; what the completed rungs
    // proved is still merged below.
    if (!r.decided) break;
    if (r.exists) {
      result.exists = true;
      result.width = kk;
      result.decomposition = r.decomposition;
      learned.hw_ub = kk;
      learned.hw_witness = FlattenDecomposition(r.decomposition);
      break;
    }
    learned.hw_lb = kk + 1;
  }
  // "No" is decided only once every rung through k has refuted.
  result.decided = result.exists || learned.hw_lb > k;
  // The floor alone is merged only when the ask ends decided: a run
  // truncated before any rung completes leaves no entry.
  if (cache != nullptr && (result.decided || learned.hw_lb > start_k)) {
    cache->Merge(p.key(), learned);
  }
  if (result.exists) {
    // Serve the answer through the same rehydration path a warm hit uses:
    // cold and warm outputs are then byte-identical by construction.
    GeneralizedHypertreeDecomposition rehydrated;
    if (RehydrateWitness(p, learned.hw_witness, &rehydrated)) {
      result.decomposition = std::move(rehydrated);
    } else {
      // Rehydration cannot fail for an entry this call just built.
      GHD_CHECK(false && "rehydration of fresh witness failed");
    }
  }
  return result;
}

CachedAnytimeResult CachedAnytimeGhw(const PreparedInstance& p,
                                     const AnytimeOptions& options,
                                     DecompCache* cache) {
  CachedAnytimeResult result;
  CacheEntry entry;
  if (cache != nullptr && cache->Lookup(p.key(), &entry)) {
    if (entry.ghw_ub >= 0 && entry.ghw_lb == entry.ghw_ub &&
        RehydrateWitness(p, entry.ghw_witness, &result.witness)) {
      result.lower_bound = entry.ghw_lb;
      result.upper_bound = entry.ghw_ub;
      result.exact = true;
      result.from_cache = true;
      return result;
    }
  }
  const Hypergraph canon_h = CanonicalInstance(p);
  const AnytimeGhwResult r = AnytimeGhw(canon_h, options);
  result.lower_bound = r.lower_bound;
  result.upper_bound = r.upper_bound;
  result.exact = r.exact;
  result.outcome = r.outcome;
  result.witness = r.witness;
  if (cache != nullptr) {
    // The anytime driver certifies its interval even under truncation: the
    // lower bound comes from exhausted deciders and the upper bound from a
    // validated witness. Both are sound to merge; what is never merged is
    // the driver's internal truncated search state.
    CacheEntry learned;
    learned.ghw_lb = r.lower_bound;
    if (r.upper_bound > 0 && !r.witness.bags.empty()) {
      learned.ghw_ub = r.upper_bound;
      learned.ghw_witness = FlattenDecomposition(r.witness);
    }
    cache->Merge(p.key(), learned);
    // Serve the witness through rehydration for cold/warm identity.
    if (learned.ghw_ub >= 0) {
      GeneralizedHypertreeDecomposition rehydrated;
      if (RehydrateWitness(p, learned.ghw_witness, &rehydrated)) {
        result.witness = std::move(rehydrated);
      }
    }
  }
  return result;
}

}  // namespace ghd
