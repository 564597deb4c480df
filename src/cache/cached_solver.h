// The cache-fronted solving pipeline: reduce -> canonicalize -> lookup ->
// (solve on miss) -> rehydrate. This is the layer the batched CLI drivers
// (ghd_cli decide-many / anytime-many) and the repeat-traffic bench sit on.
//
// Cold solves run on the *canonical relabeling* of the reduced instance, not
// on the input labeling. That buys the determinism the cache smoke test
// asserts: every member of an isomorphism class produces the byte-identical
// cache entry, so a cold run followed by rehydration and a warm hit followed
// by rehydration print the same verdicts and widths — the only difference is
// wall clock.
//
// Rehydration is trust-but-verify: the cached witness is mapped through the
// inverse canonical permutations and the subsumed-edge survivor mapping, then
// re-validated against the concrete instance. A 128-bit key collision (or a
// corrupt cache file) can therefore cost a wasted validation, never an
// invalid decomposition; on validation failure the lookup degrades to a miss.
#ifndef GHD_CACHE_CACHED_SOLVER_H_
#define GHD_CACHE_CACHED_SOLVER_H_

#include <string>
#include <vector>

#include "cache/decomp_cache.h"
#include "core/anytime.h"
#include "core/k_decider.h"
#include "hypergraph/canonical.h"
#include "hypergraph/reduce.h"

namespace ghd {

/// The per-instance preprocessing done once up front: subsumed-edge
/// reduction (width-preserving, see hypergraph/reduce.h) followed by
/// canonicalization of the reduced instance.
struct PreparedInstance {
  Hypergraph original{{}, {}, {}};
  ReducedHypergraph reduction;
  /// Canonical form of `reduction.reduced`.
  CanonicalFormResult canon;

  const InstanceKey& key() const { return canon.key; }
};

PreparedInstance PrepareInstance(Hypergraph h,
                                 const CanonicalizeOptions& options = {});

/// The canonical relabeling of the reduced instance — the hypergraph cold
/// solves actually run on.
Hypergraph CanonicalInstance(const PreparedInstance& p);

/// Maps a canonical-space witness back onto p.original (bags through the
/// inverse vertex permutation, guards through the inverse edge permutation
/// then the kept-edge survivor mapping) and validates it there. False when
/// validation fails — the caller treats that as a cache miss.
bool RehydrateWitness(const PreparedInstance& p, const FlatDecomposition& flat,
                      GeneralizedHypertreeDecomposition* out);

/// The inverse of RehydrateWitness: maps a witness for p.original into
/// canonical space so it can be merged into the cache (bags through the
/// vertex permutation; guards through the subsumed-edge survivor mapping —
/// a dropped guard is replaced by its surviving superset edge, which only
/// grows the covering union — then the edge permutation). The mapped witness
/// is validated on the canonical instance before returning; false means it
/// did not survive the mapping and must not be cached. Used by the
/// incremental solver, whose bootstrap solves run in concrete space.
bool DehydrateWitness(const PreparedInstance& p,
                      const GeneralizedHypertreeDecomposition& d,
                      FlatDecomposition* out);

struct CachedDecideResult {
  bool decided = false;
  bool exists = false;
  /// Served from the cache without running a decider.
  bool from_cache = false;
  /// Exact hypertree width when the ladder pinned it (yes-instances), else
  /// -1.
  int width = -1;
  /// Valid decomposition of p.original when exists.
  GeneralizedHypertreeDecomposition decomposition;
  Outcome outcome;
};

/// Decides hw(H) <= k through the cache. Hit iff the cached interval is
/// conclusive at k: hw_ub <= k (witness rehydrated and served) or hw_lb > k.
/// On a miss, computes the certified floor HwLowerBound on the canonical
/// instance; a floor above k answers "no" without a search. Otherwise runs
/// the k-ladder (DecideWidthK with a shared KLadderContext, from
/// max(floor, cached hw_lb) to k) on the canonical instance and merges every
/// certified fact — failed rungs as lower bounds, the success as an upper
/// bound with witness, and the floor when the ask ends decided. Only
/// complete (non-truncated) decider outcomes are merged, and "no" is
/// reported only once every rung through k refuted; `cache` may be null
/// (pure solve).
CachedDecideResult CachedDecideHw(const PreparedInstance& p, int k,
                                  DecompCache* cache,
                                  const KDeciderOptions& options = {});

struct CachedAnytimeResult {
  int lower_bound = 0;
  int upper_bound = 0;
  bool exact = false;
  bool from_cache = false;
  GeneralizedHypertreeDecomposition witness;
  Outcome outcome;
};

/// Anytime ghw through the cache. Hit iff the cached ghw interval is already
/// exact (lb == ub, witness rehydrates); a loose cached interval falls
/// through to AnytimeGhw on the canonical instance, whose certified interval
/// (certified even under truncation — the driver validates every bound) is
/// merged back.
CachedAnytimeResult CachedAnytimeGhw(const PreparedInstance& p,
                                     const AnytimeOptions& options,
                                     DecompCache* cache);

}  // namespace ghd

#endif  // GHD_CACHE_CACHED_SOLVER_H_
