// Typed engine counters, gauges, and histograms with thread-local sharding.
//
// Every value is identified by an enum (the taxonomy below — stable names,
// documented in docs/OBSERVABILITY.md), incremented through the GHD_COUNT /
// GHD_GAUGE_MAX / GHD_HISTO macros of obs/obs.h, and aggregated on demand:
// each thread owns a shard of relaxed atomics (uncontended writes on the hot
// path), a shard folds itself into a retired accumulator when its thread
// exits, and SnapshotCounters() sums retired + live shards. Single-threaded
// runs therefore produce byte-identical snapshots across invocations;
// parallel runs produce exact totals whose per-event attribution is
// schedule-independent (the sum never races or drops increments).
#ifndef GHD_OBS_COUNTERS_H_
#define GHD_OBS_COUNTERS_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <string>

namespace ghd {
namespace obs {

/// Monotonic event counts. Naming scheme: <engine>_<event>; the short stable
/// string (CounterName) is the JSON key in RunReport and BENCH_*.json.
enum class Counter : int {
  // Exact-GHW branch and bound (core/ghw_exact).
  kBnbNodes = 0,        // branch nodes expanded
  kBnbPruneFinishNow,   // subtree closed by the finish-now bound
  kBnbPruneLowerBound,  // subtree closed by the tw/k-set-cover lower bound
  kBnbPruneIncumbent,   // branch skipped: bag cost already >= incumbent
  kBnbSolutions,        // incumbent improvements recorded
  // Exact treewidth branch and bound (td/exact_treewidth).
  kTwNodes,             // branch nodes expanded
  kTwReductions,        // simplicial / almost-simplicial eliminations taken
  // Width-k decider (core/k_decider: hw, BIP-ghw, tree projections).
  kDeciderStates,       // (component, connector) states + lambda-enum ticks
  kDeciderMemoHits,     // state memo hits
  kDeciderMemoMisses,   // state memo misses
  kDeciderMemoInserts,  // state memo insertions
  kDeciderMemoPoisoned, // REFUSED unsound negative memoizations; always 0
  kDeciderLambdaTried,  // complete guard choices evaluated
  kDeciderUnprovenFalse,// negative results discarded because of truncation
  kDetKIterations,      // k values tried by the hw(H) iteration
  // Certified hw floor (htd/det_k_decomp HwLowerBound) on the serving paths
  // (cache/cached_solver, core/incremental).
  kHwFloorRefutations,  // asks answered "no" by the floor, without a search
  // Cover memos: the per-ask CoverMemo shared by the multi-restart rung and
  // the exact B&B (core/ghw_upper, ghw_exact), and the subset DP's own
  // (core/ghw_dp).
  kCoverCacheHits,
  kCoverCacheMisses,
  // Multi-restart upper bound (core/ghw_upper).
  kUbRestartsPruned,    // restarts abandoned once their width reached the
                        // incumbent's
  // Subset DP (core/ghw_dp).
  kDpCells,             // DP cells solved
  // Subedge closures (core/bip, core/tree_projection).
  kSubedgesGenerated,   // proper subedges emitted by a closure construction
  kGuardsDominated,     // guards dropped by dominance pruning (g strictly
                        // inside another added guard)
  kClosureInternerHits, // closure candidates deduplicated via the interner
  // LP simplex (lp/simplex).
  kLpPivots,
  // CSP solvers (csp/backtracking).
  kCspNodes,            // backtracking nodes
  // Resource governor (util/resource_governor).
  kGovernorTicks,       // Budget::Tick calls across every engine
  kGovernorStops,       // budgets that hit a wall (first stop per budget)
  // Anytime ladder (core/anytime).
  kLadderRungs,         // rungs recorded on the provenance trail
  kLadderImprovements,  // witness upper-bound improvements installed
  // Small-set-optimized bitset (util/bitset).
  kBitsetInlineSets,    // VertexSets constructed with inline (heap-free) storage
  kBitsetHeapSets,      // VertexSets constructed on the heap (universe > 128)
  // Hash-consing set interner (util/set_interner).
  kInternerHits,        // Intern() calls resolved to an existing id
  kInternerMisses,      // Intern() calls that inserted a new canonical set
  // Cover-candidate index + negative-separator cache (core/cover_index).
  kSeparatorNegHits,    // guard choices skipped: (component, chi) known to fail
  kSeparatorNegInserts, // proven-failed (component, chi) pairs recorded
  // Flat CSR view + batch kernels (hypergraph/flat_hypergraph, kernels).
  kFlatBuildNs,         // nanoseconds spent building FlatHypergraph views
  kKernelBatches,       // 4-row batches processed by the word-parallel kernels
  kKernelScalarFallbacks, // batched kernel calls served by the scalar path
  // Tracer (obs/trace): spans silently overwritten in the bounded per-thread
  // rings, so ring overflow is visible in RunReport, not just in the trace
  // viewer's "(+N dropped)" lane suffix.
  kTraceSpansDropped,
  // Canonical fingerprinting (hypergraph/canonical).
  kCanonNodes,          // individualization-refinement nodes explored
  kCanonFallbacks,      // canonicalizations truncated by the node budget
                        // (key degraded to exact-repeat matching)
  kCanonBackjumps,      // subtrees abandoned as automorphic images of
                        // explored ones (unwinds after an equal-leaf match)
  // Memoized decomposition cache (cache/decomp_cache).
  kCacheHits,           // lookups served from a cached entry
  kCacheMisses,         // lookups that fell through to a solve
  kCacheInserts,        // entries inserted or widened
  kCacheEvictions,      // entries evicted by the LRU byte budget
  kCacheLoadRejected,   // persisted cache files ignored whole (bad magic,
                        // version mismatch, or truncation)
  // Incremental re-decomposition over edge deltas (core/incremental).
  kIncrDeltasApplied,      // EdgeDeltas applied to a versioned solver
  kIncrIncrementalSolves,  // decides served by the rebound warm ladder
  kIncrFullSolves,         // decides that ran a from-scratch bootstrap
  kIncrCacheServed,        // decides served by the decomposition cache
  kIncrFingerprintServed,  // decides served by the version verdict memo
  kIncrMemoRetained,       // positive memo entries surviving a rebind
  kIncrMemoInvalidated,    // positive memo entries dropped by a rebind
  kIncrNegRetained,        // negative memo entries surviving a rebind
  kIncrNegInvalidated,     // negative memo entries dropped by a rebind
  kIncrSepRetained,        // negative-separator entries surviving a rebind
  kIncrSepInvalidated,     // negative-separator entries dropped by a rebind
  kCounterCount,        // sentinel
};

/// Max-aggregated gauges (peaks), reset together with the counters.
enum class Gauge : int {
  kPeakBytesCharged = 0,  // high-water of Budget::Charge accounting
  kMaxGuardFamily,        // largest guard family handed to the decider
  kCacheBytes,            // peak resident bytes of the decomposition cache
  kGaugeCount,            // sentinel
};

/// Log2-bucketed histograms: value v lands in bucket floor(log2(v)) + 1,
/// v <= 0 in bucket 0. 32 buckets cover the full long range.
enum class Histo : int {
  kCoverSize = 0,       // exact set-cover sizes computed for bags
  kInternedSetWords,    // 64-bit words per newly interned canonical set
  kLambdaCandidates,    // cover-candidate list lengths built per state
  kClosureFrontierSize, // frontier sizes per round of demand-driven closures
  kHistoCount,          // sentinel
};

inline constexpr int kNumCounters = static_cast<int>(Counter::kCounterCount);
inline constexpr int kNumGauges = static_cast<int>(Gauge::kGaugeCount);
inline constexpr int kNumHistos = static_cast<int>(Histo::kHistoCount);
inline constexpr int kHistoBuckets = 32;

/// Short stable identifier ("bnb_nodes", "decider_memo_hits", ...): the JSON
/// key and table row label.
const char* CounterName(Counter c);
const char* GaugeName(Gauge g);
const char* HistoName(Histo h);

/// Turns the counter subsystem on or off at run time (off by default). Off:
/// every event site is a relaxed load + branch. Enabling does not reset.
void EnableCounters(bool on);
bool CountersEnabled();

/// Zeroes every shard (live and retired). Call between runs to attribute
/// counts to one run; single-threaded snapshots are then deterministic.
void ResetCounters();

namespace internal {

extern std::atomic<bool> g_counters_enabled;

/// One thread's slice of every counter/gauge/histogram. Registered with the
/// global registry on construction; folds its values into the retired
/// accumulator and unregisters on thread exit.
struct CounterShard {
  CounterShard();
  ~CounterShard();
  std::array<std::atomic<long>, kNumCounters> counters{};
  std::array<std::atomic<long>, kNumGauges> gauges{};
  std::array<std::array<std::atomic<long>, kHistoBuckets>, kNumHistos>
      histos{};
};

inline CounterShard& LocalShard() {
  thread_local CounterShard shard;
  return shard;
}

int HistoBucket(long value);

}  // namespace internal

/// Hot-path add; prefer the GHD_COUNT macro at event sites.
inline void CounterAdd(Counter c, long delta) {
  if (!internal::g_counters_enabled.load(std::memory_order_relaxed)) return;
  internal::LocalShard().counters[static_cast<int>(c)].fetch_add(
      delta, std::memory_order_relaxed);
}

/// Raises the gauge's thread-local peak to at least `value`.
inline void GaugeMax(Gauge g, long value) {
  if (!internal::g_counters_enabled.load(std::memory_order_relaxed)) return;
  std::atomic<long>& cell =
      internal::LocalShard().gauges[static_cast<int>(g)];
  long seen = cell.load(std::memory_order_relaxed);
  while (value > seen &&
         !cell.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
}

/// Records one sample into the histogram's log2 bucket.
inline void HistoRecord(Histo h, long value) {
  if (!internal::g_counters_enabled.load(std::memory_order_relaxed)) return;
  internal::LocalShard()
      .histos[static_cast<int>(h)][internal::HistoBucket(value)]
      .fetch_add(1, std::memory_order_relaxed);
}

/// Aggregated point-in-time view of every counter, gauge, and histogram.
struct CounterSnapshot {
  std::array<long, kNumCounters> counters{};
  std::array<long, kNumGauges> gauges{};
  std::array<std::array<long, kHistoBuckets>, kNumHistos> histos{};

  long counter(Counter c) const { return counters[static_cast<int>(c)]; }
  long gauge(Gauge g) const { return gauges[static_cast<int>(g)]; }
  bool AnyNonZero() const;
  bool operator==(const CounterSnapshot& o) const;

  /// Human-readable table (non-zero rows only) for --counters on stderr.
  std::string ToTable() const;
  /// Appends a JSON object {"name": value, ...} of the non-zero counters and
  /// gauges plus "histo_<name>": [bucket counts] for non-empty histograms.
  void AppendJson(std::string* out) const;
};

/// Sums retired + live shards. Safe to call from any thread at any time.
CounterSnapshot SnapshotCounters();

}  // namespace obs
}  // namespace ghd

#endif  // GHD_OBS_COUNTERS_H_
