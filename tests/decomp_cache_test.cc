// Decomposition cache: interval merge semantics and cross-propagation, LRU
// byte-budget eviction, save/load round trips, the cached-solver serving
// rules (conclusive intervals only, truncation never cached), the certified
// hw floor and a differential check against the independent ladder, and a
// concurrent mixed-reader/writer stress run for the TSan job.
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "cache/cached_solver.h"
#include "cache/decomp_cache.h"
#include "core/ghw_lower.h"
#include "gen/generators.h"
#include "gen/random_hypergraphs.h"
#include "gtest/gtest.h"
#include "htd/det_k_decomp.h"
#include "hypergraph/canonical.h"
#include "hypergraph/hg_io.h"
#include "hypergraph/hypergraph_builder.h"
#include "obs/obs.h"
#include "test_instances.h"
#include "util/resource_governor.h"
#include "util/rng.h"

namespace ghd {
namespace {

InstanceKey KeyOf(uint64_t hi, uint64_t lo) {
  InstanceKey k;
  k.hi = hi;
  k.lo = lo;
  return k;
}

FlatDecomposition OneNodeWitness(int bag_size, int guard_count) {
  FlatDecomposition d;
  for (int v = 0; v < bag_size; ++v) d.bag_vertices.push_back(v);
  d.bag_offsets.push_back(bag_size);
  for (int e = 0; e < guard_count; ++e) d.guard_edges.push_back(e);
  d.guard_offsets.push_back(guard_count);
  return d;
}

TEST(DecompCacheTest, LookupMissThenHit) {
  DecompCache cache;
  CacheEntry entry;
  EXPECT_FALSE(cache.Lookup(KeyOf(1, 2), &entry));
  CacheEntry put;
  put.hw_lb = 2;
  put.hw_ub = 3;
  put.hw_witness = OneNodeWitness(4, 3);
  cache.Merge(KeyOf(1, 2), put);
  ASSERT_TRUE(cache.Lookup(KeyOf(1, 2), &entry));
  EXPECT_EQ(entry.hw_lb, 2);
  EXPECT_EQ(entry.hw_ub, 3);
  EXPECT_EQ(entry.hw_witness.num_nodes(), 1);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(DecompCacheTest, MergeTightensAndCrossPropagates) {
  DecompCache cache;
  CacheEntry first;
  first.hw_lb = 2;
  cache.Merge(KeyOf(5, 5), first);
  CacheEntry second;
  second.hw_ub = 4;
  second.hw_witness = OneNodeWitness(3, 4);
  cache.Merge(KeyOf(5, 5), second);
  CacheEntry got;
  ASSERT_TRUE(cache.Lookup(KeyOf(5, 5), &got));
  EXPECT_EQ(got.hw_lb, 2);
  EXPECT_EQ(got.hw_ub, 4);
  // Every HD is a GHD: the hw upper bound (and witness) flows to ghw.
  EXPECT_EQ(got.ghw_ub, 4);
  EXPECT_EQ(got.ghw_witness.num_nodes(), 1);

  // A ghw lower bound lifts into hw_lb (ghw <= hw).
  CacheEntry third;
  third.ghw_lb = 3;
  cache.Merge(KeyOf(5, 5), third);
  ASSERT_TRUE(cache.Lookup(KeyOf(5, 5), &got));
  EXPECT_EQ(got.hw_lb, 3);
  EXPECT_EQ(got.ghw_lb, 3);

  // Looser bounds never overwrite tighter ones.
  CacheEntry loose;
  loose.hw_lb = 1;
  loose.hw_ub = 9;
  loose.hw_witness = OneNodeWitness(2, 9);
  cache.Merge(KeyOf(5, 5), loose);
  ASSERT_TRUE(cache.Lookup(KeyOf(5, 5), &got));
  EXPECT_EQ(got.hw_lb, 3);
  EXPECT_EQ(got.hw_ub, 4);
}

TEST(DecompCacheTest, LruEvictionUnderByteBudget) {
  DecompCache::Options options;
  options.shards = 1;  // deterministic LRU order
  options.max_bytes = 2000;
  DecompCache cache(options);
  // Each entry ~ overhead (128) + witness bytes; insert until eviction.
  for (uint64_t i = 0; i < 12; ++i) {
    CacheEntry e;
    e.hw_ub = 2;
    e.hw_witness = OneNodeWitness(8, 2);
    cache.Merge(KeyOf(i, i), e);
  }
  EXPECT_LE(cache.bytes(), 2000u);
  EXPECT_LT(cache.size(), 12u);
  CacheEntry got;
  // Most recent survives; oldest evicted.
  EXPECT_TRUE(cache.Lookup(KeyOf(11, 11), &got));
  EXPECT_FALSE(cache.Lookup(KeyOf(0, 0), &got));
}

TEST(DecompCacheTest, LookupRefreshesLruPosition) {
  DecompCache::Options options;
  options.shards = 1;
  options.max_bytes = 600;  // fits ~3 small entries
  DecompCache cache(options);
  CacheEntry e;
  e.hw_lb = 2;
  cache.Merge(KeyOf(1, 0), e);
  cache.Merge(KeyOf(2, 0), e);
  CacheEntry got;
  ASSERT_TRUE(cache.Lookup(KeyOf(1, 0), &got));  // refresh key 1
  cache.Merge(KeyOf(3, 0), e);
  cache.Merge(KeyOf(4, 0), e);
  // Key 2 (least recently used) should be gone before key 1.
  const bool has1 = cache.Lookup(KeyOf(1, 0), &got);
  const bool has2 = cache.Lookup(KeyOf(2, 0), &got);
  // Refreshed key 1 must outlive key 2 under eviction pressure.
  EXPECT_TRUE(has1 || !has2);
  if (!has2) {
    EXPECT_TRUE(has1);
  }
}

TEST(DecompCacheTest, GovernorSeesCacheGrowth) {
  Budget governor;
  DecompCache::Options options;
  options.governor = &governor;
  DecompCache cache(options);
  CacheEntry e;
  e.hw_ub = 2;
  e.hw_witness = OneNodeWitness(16, 2);
  cache.Merge(KeyOf(9, 9), e);
  EXPECT_GT(governor.bytes_charged(), 0u);
}

TEST(DecompCacheTest, SaveLoadRoundTrip) {
  const std::string path = testing::TempDir() + "/ghd_cache_roundtrip.bin";
  DecompCache cache;
  for (uint64_t i = 0; i < 5; ++i) {
    CacheEntry e;
    e.hw_lb = static_cast<int32_t>(i + 1);
    e.hw_ub = static_cast<int32_t>(i + 2);
    e.hw_witness = OneNodeWitness(static_cast<int>(i) + 2, 2);
    cache.Merge(KeyOf(i, ~i), e);
  }
  ASSERT_TRUE(cache.Save(path).ok());
  DecompCache loaded;
  ASSERT_TRUE(loaded.Load(path).ok());
  EXPECT_EQ(loaded.size(), 5u);
  for (uint64_t i = 0; i < 5; ++i) {
    CacheEntry got;
    ASSERT_TRUE(loaded.Lookup(KeyOf(i, ~i), &got)) << i;
    EXPECT_EQ(got.hw_lb, static_cast<int32_t>(i + 1));
    EXPECT_EQ(got.hw_ub, static_cast<int32_t>(i + 2));
    EXPECT_EQ(got.hw_witness.num_nodes(), 1);
  }
  std::remove(path.c_str());
}

TEST(DecompCacheTest, LoadRejectsGarbage) {
  const std::string path = testing::TempDir() + "/ghd_cache_garbage.bin";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("definitely not a cache file", f);
  std::fclose(f);
  DecompCache cache;
  EXPECT_FALSE(cache.Load(path).ok());
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.Load(path + ".missing").ok());
  std::remove(path.c_str());
}

// Writes a valid 3-entry cache file and returns its path plus its keys.
std::string SaveSmallCache(const std::string& name,
                           std::vector<InstanceKey>* keys) {
  const std::string path = testing::TempDir() + "/" + name;
  DecompCache cache;
  for (uint64_t i = 0; i < 3; ++i) {
    CacheEntry e;
    e.hw_lb = 2;
    e.hw_ub = 3;
    e.hw_witness = OneNodeWitness(4, 3);
    cache.Merge(KeyOf(100 + i, 7 * i), e);
    keys->push_back(KeyOf(100 + i, 7 * i));
  }
  EXPECT_TRUE(cache.Save(path).ok());
  return path;
}

// A truncated file (torn copy, full disk) must be rejected whole: nothing
// from it may merge, and state the cache already held must survive intact.
TEST(DecompCacheTest, TruncatedFileRejectedWithoutPartialLoad) {
  std::vector<InstanceKey> keys;
  const std::string path = SaveSmallCache("ghd_cache_trunc.bin", &keys);
  // Chop the file mid-entry: keep the header plus one and a half entries.
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  char buf[4096];
  const size_t total = std::fread(buf, 1, sizeof buf, f);
  std::fclose(f);
  ASSERT_GT(total, 60u);
  f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(buf, 1, total - total / 3, f), total - total / 3);
  std::fclose(f);

#if GHD_OBS_ENABLED
  obs::EnableCounters(true);
  obs::ResetCounters();
#endif
  DecompCache cache;
  CacheEntry prior;
  prior.hw_ub = 1;
  prior.hw_witness = OneNodeWitness(2, 1);
  cache.Merge(KeyOf(5, 5), prior);
  EXPECT_FALSE(cache.Load(path).ok());
  // No partial merge: the pre-existing entry alone, none of the file's keys.
  EXPECT_EQ(cache.size(), 1u);
  CacheEntry got;
  EXPECT_TRUE(cache.Lookup(KeyOf(5, 5), &got));
  for (const InstanceKey& k : keys) {
    EXPECT_FALSE(cache.Lookup(k, &got));
  }
#if GHD_OBS_ENABLED
  const obs::CounterSnapshot s = obs::SnapshotCounters();
  EXPECT_GT(s.counter(obs::Counter::kCacheLoadRejected), 0);
  obs::ResetCounters();
  obs::EnableCounters(false);
#endif
  std::remove(path.c_str());
}

// A file written by a different wire version (canonicalization constants may
// have changed underneath the keys) must be ignored, not reinterpreted.
TEST(DecompCacheTest, VersionMismatchRejected) {
  std::vector<InstanceKey> keys;
  const std::string path = SaveSmallCache("ghd_cache_ver.bin", &keys);
  // The version field is the uint32 right after the 4-byte magic.
  std::FILE* f = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, 4, SEEK_SET), 0);
  const uint32_t bogus = 0x7fffffff;
  ASSERT_EQ(std::fwrite(&bogus, sizeof bogus, 1, f), 1u);
  std::fclose(f);

#if GHD_OBS_ENABLED
  obs::EnableCounters(true);
  obs::ResetCounters();
#endif
  DecompCache cache;
  EXPECT_FALSE(cache.Load(path).ok());
  EXPECT_EQ(cache.size(), 0u);
  CacheEntry got;
  for (const InstanceKey& k : keys) {
    EXPECT_FALSE(cache.Lookup(k, &got));
  }
#if GHD_OBS_ENABLED
  const obs::CounterSnapshot s = obs::SnapshotCounters();
  EXPECT_GT(s.counter(obs::Counter::kCacheLoadRejected), 0);
  obs::ResetCounters();
  obs::EnableCounters(false);
#endif
  std::remove(path.c_str());
}

// --- cached solver serving rules -------------------------------------------

TEST(CachedSolverTest, ColdSolvePopulatesAndWarmHitServes) {
  DecompCache cache;
  const PreparedInstance p = PrepareInstance(CycleHypergraph(8));
  const CachedDecideResult cold = CachedDecideHw(p, 2, &cache);
  ASSERT_TRUE(cold.decided);
  EXPECT_TRUE(cold.exists);
  EXPECT_FALSE(cold.from_cache);
  EXPECT_EQ(cold.width, 2);  // hw(C8) = 2
  EXPECT_TRUE(cold.decomposition.Validate(p.original).ok());

  const CachedDecideResult warm = CachedDecideHw(p, 2, &cache);
  ASSERT_TRUE(warm.decided);
  EXPECT_TRUE(warm.from_cache);
  EXPECT_TRUE(warm.exists);
  EXPECT_TRUE(warm.decomposition.Validate(p.original).ok());
  EXPECT_EQ(warm.decomposition.Width(), cold.decomposition.Width());
}

TEST(CachedSolverTest, CachedRefutationServesNo) {
  DecompCache cache;
  const PreparedInstance p = PrepareInstance(CycleHypergraph(8));
  // Decide at k = 1 (no: cycles have hw 2): caches hw_lb = 2.
  const CachedDecideResult cold = CachedDecideHw(p, 1, &cache);
  ASSERT_TRUE(cold.decided);
  EXPECT_FALSE(cold.exists);
  const CachedDecideResult warm = CachedDecideHw(p, 1, &cache);
  ASSERT_TRUE(warm.decided);
  EXPECT_FALSE(warm.exists);
  EXPECT_TRUE(warm.from_cache);
}

TEST(CachedSolverTest, IsomorphicInstancesShareOneEntry) {
  DecompCache cache;
  Rng rng(17);
  const Hypergraph base = TriangleStripHypergraph(4);
  int solves = 0;
  for (int rep = 0; rep < 5; ++rep) {
    std::vector<int> vperm(base.num_vertices());
    std::vector<int> eperm(base.num_edges());
    for (size_t i = 0; i < vperm.size(); ++i) vperm[i] = static_cast<int>(i);
    for (size_t i = 0; i < eperm.size(); ++i) eperm[i] = static_cast<int>(i);
    rng.Shuffle(&vperm);
    rng.Shuffle(&eperm);
    const PreparedInstance p =
        PrepareInstance(RelabeledHypergraph(base, vperm, eperm));
    const CachedDecideResult r = CachedDecideHw(p, 2, &cache);
    ASSERT_TRUE(r.decided && r.exists);
    EXPECT_TRUE(r.decomposition.Validate(p.original).ok());
    if (!r.from_cache) ++solves;
  }
  EXPECT_EQ(solves, 1) << "isomorphic re-asks must share one cold solve";
  EXPECT_EQ(cache.size(), 1u);
}

TEST(CachedSolverTest, TruncatedRunsAreNeverCached) {
  DecompCache cache;
  const PreparedInstance p = PrepareInstance(Grid2dHypergraph(4, 4));
  Budget governor;
  governor.SetTickBudget(1);  // will truncate immediately
  KDeciderOptions options;
  options.budget = &governor;
  const CachedDecideResult r = CachedDecideHw(p, 3, &cache, options);
  EXPECT_FALSE(r.decided);
  CacheEntry entry;
  EXPECT_FALSE(cache.Lookup(p.key(), &entry))
      << "truncated run must not leave a cache entry";
}

// --- the certified hw floor -------------------------------------------------

TEST(CachedSolverTest, FloorRefutesGridsWithoutSearch) {
#if GHD_OBS_ENABLED
  obs::EnableCounters(true);
  obs::ResetCounters();
#endif
  // The floor is taken on the canonical instance. The heuristic treewidth
  // bound behind GhwLowerBound depends on the labeling, so which grids it
  // refutes follows the canonical labels: under the current ones it
  // refutes k = 2 on all six grids. The per-grid checks below hold for any
  // count: a floor above 2 means no search, a floor of 2 a refuting search.
  int floor_refuted = 0;
  for (int r = 4; r <= 6; ++r) {
    for (int c = r; c <= 6; ++c) {
      const std::string what = std::to_string(r) + "x" + std::to_string(c);
      DecompCache cache;
      const PreparedInstance p = PrepareInstance(Grid2dHypergraph(r, c));
      Budget governor;
      KDeciderOptions options;
      options.budget = &governor;
      const CachedDecideResult res = CachedDecideHw(p, 2, &cache, options);
      ASSERT_TRUE(res.decided) << what;
      EXPECT_FALSE(res.exists) << what;
      if (HwLowerBound(CanonicalInstance(p)) > 2) {
        EXPECT_EQ(governor.ticks_used(), 0) << what;
        ++floor_refuted;
      } else {
        EXPECT_GT(governor.ticks_used(), 0) << what;
      }
      CacheEntry entry;
      ASSERT_TRUE(cache.Lookup(p.key(), &entry)) << what;
      EXPECT_GE(entry.hw_lb, 3) << what;
      EXPECT_EQ(entry.hw_ub, -1) << what;
    }
  }
  EXPECT_EQ(floor_refuted, 6);
#if GHD_OBS_ENABLED
  const obs::CounterSnapshot s = obs::SnapshotCounters();
  EXPECT_EQ(s.counter(obs::Counter::kHwFloorRefutations), floor_refuted);
  obs::ResetCounters();
  obs::EnableCounters(false);
#endif
}

TEST(CachedSolverTest, CyclicClassesSkipTheFirstRung) {
  for (const Hypergraph& h :
       {CycleHypergraph(64), CycleHypergraph(256), TriangleStripHypergraph(16),
        TriangleStripHypergraph(64)}) {
    const PreparedInstance p = PrepareInstance(h);
    Budget governor;
    KDeciderOptions options;
    options.budget = &governor;
    const CachedDecideResult r = CachedDecideHw(p, 2, nullptr, options);
    ASSERT_TRUE(r.decided);
    EXPECT_TRUE(r.exists);
    EXPECT_EQ(r.width, 2);
    // Exactly the work of one k = 2 search: no k = 1 rung ran before it.
    Budget alone;
    KDeciderOptions alone_options;
    alone_options.budget = &alone;
    ASSERT_TRUE(
        HypertreeWidthAtMost(CanonicalInstance(p), 2, alone_options).exists);
    EXPECT_EQ(governor.ticks_used(), alone.ticks_used());
  }
}

TEST(CachedSolverTest, FloorSeesCyclesTheGhwBoundMisses) {
  // Not conformal: no edge holds the triangle a, b, c. Its 3 vertices fit in
  // one 3-edge, so the tw x set-cover bound is 1; GYO strips x, y, z and is
  // left with the triangle, so the floor is 2.
  HypergraphBuilder b;
  b.AddEdge("e1", {"a", "b", "x"});
  b.AddEdge("e2", {"b", "c", "y"});
  b.AddEdge("e3", {"c", "a", "z"});
  const Hypergraph h = std::move(b).Build();
  EXPECT_EQ(GhwLowerBound(h), 1);
  EXPECT_EQ(HwLowerBound(h), 2);

  DecompCache cache;
  const PreparedInstance p = PrepareInstance(h);
  Budget governor;
  KDeciderOptions options;
  options.budget = &governor;
  const CachedDecideResult no = CachedDecideHw(p, 1, &cache, options);
  ASSERT_TRUE(no.decided);
  EXPECT_FALSE(no.exists);
  EXPECT_EQ(governor.ticks_used(), 0);
  CacheEntry entry;
  ASSERT_TRUE(cache.Lookup(p.key(), &entry));
  EXPECT_EQ(entry.hw_lb, 2);
  const CachedDecideResult yes = CachedDecideHw(p, 2, &cache);
  ASSERT_TRUE(yes.decided);
  EXPECT_TRUE(yes.exists);
  EXPECT_EQ(yes.width, 2);
}

TEST(CachedSolverTest, TruncationAfterARefutedRungIsUndecided) {
  // hw = 3 over a floor of 2: the k = 2 rung refutes, and a budget that ends
  // inside the k = 3 rung leaves the ask at k = 3 undecided, never "no".
  const PreparedInstance p =
      PrepareInstance(RandomUniformHypergraph(12, 10, 3, /*seed=*/2));
  const Hypergraph canon = CanonicalInstance(p);
  ASSERT_EQ(HwLowerBound(canon), 2);
  Budget probe;
  KDeciderOptions probe_options;
  probe_options.budget = &probe;
  ASSERT_FALSE(HypertreeWidthAtMost(canon, 2, probe_options).exists);

  DecompCache cache;
  Budget governor;
  governor.SetTickBudget(probe.ticks_used() + 1);
  KDeciderOptions options;
  options.budget = &governor;
  const CachedDecideResult cut = CachedDecideHw(p, 3, &cache, options);
  EXPECT_FALSE(cut.decided);
  // The refuted rung is certified and still merged.
  CacheEntry entry;
  ASSERT_TRUE(cache.Lookup(p.key(), &entry));
  EXPECT_EQ(entry.hw_lb, 3);
  EXPECT_EQ(entry.hw_ub, -1);

  const CachedDecideResult full = CachedDecideHw(p, 3, &cache);
  ASSERT_TRUE(full.decided);
  EXPECT_TRUE(full.exists);
  EXPECT_EQ(full.width, 3);
}

// Every serving-path verdict and width equals the independent ladder's, on
// data/*.hg and the repeat_batch catalogue under 3 relabelings each. Rungs
// get a budget each; (instance, k) pairs the oracle cannot settle within it
// (grids 6x6 and 7x7 at k = 3) are skipped.
constexpr long kDifferentialTicks = 200000;

void ExpectCachedMatchesOracle(const Hypergraph& h, const std::string& name,
                               uint64_t seed) {
  // hw is invariant under relabeling: one oracle run serves all three.
  const std::vector<int> oracle = LadderOracle(h, 3, kDifferentialTicks);
  Rng rng(seed);
  for (int rep = 0; rep < 3; ++rep) {
    const Hypergraph g = RandomRelabeling(h, &rng);
    const PreparedInstance p = PrepareInstance(g);
    DecompCache cache;
    for (int k = 1; k <= 3; ++k) {
      Budget governor(0, kDifferentialTicks);
      KDeciderOptions options;
      options.budget = &governor;
      const CachedDecideResult r = CachedDecideHw(p, k, &cache, options);
      if (oracle[k] < 0) continue;
      const std::string what =
          name + " relabeling " + std::to_string(rep) + " k=" +
          std::to_string(k);
      ASSERT_TRUE(r.decided) << what;
      EXPECT_EQ(r.exists, oracle[k] == 1) << what;
      if (r.exists) {
        EXPECT_EQ(r.width, OracleWidth(oracle)) << what;
        EXPECT_TRUE(r.decomposition.Validate(g).ok()) << what;
      }
    }
  }
}

TEST(CachedSolverDifferentialTest, DataFilesMatchTheLadder) {
  int files = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(GHD_DATA_DIR)) {
    if (entry.path().extension() != ".hg") continue;
    Result<Hypergraph> parsed = LoadHg(entry.path().string());
    ASSERT_TRUE(parsed.ok()) << entry.path();
    ExpectCachedMatchesOracle(parsed.value(),
                              entry.path().filename().string(), 70 + files);
    ++files;
  }
  EXPECT_GE(files, 10);
}

TEST(CachedSolverDifferentialTest, RepeatBatchCatalogueMatchesTheLadder) {
  const auto catalogue = RepeatBatchCatalogue();
  ASSERT_EQ(catalogue.size(), 89u);
  uint64_t seed = 2000;
  for (const auto& [name, h] : catalogue) {
    ExpectCachedMatchesOracle(h, name, seed++);
  }
}

TEST(CachedSolverTest, AnytimeExactIntervalIsCachedAndServed) {
  DecompCache cache;
  const PreparedInstance p = PrepareInstance(CycleHypergraph(7));
  AnytimeOptions options;
  const CachedAnytimeResult cold = CachedAnytimeGhw(p, options, &cache);
  ASSERT_TRUE(cold.exact);
  EXPECT_FALSE(cold.from_cache);
  EXPECT_EQ(cold.upper_bound, 2);  // ghw of a cycle
  const CachedAnytimeResult warm = CachedAnytimeGhw(p, options, &cache);
  ASSERT_TRUE(warm.exact);
  EXPECT_TRUE(warm.from_cache);
  EXPECT_EQ(warm.lower_bound, cold.lower_bound);
  EXPECT_EQ(warm.upper_bound, cold.upper_bound);
  EXPECT_TRUE(warm.witness.Validate(p.original).ok());
}

// --- concurrency (exercised under TSan in CI) ------------------------------

TEST(DecompCacheTest, ConcurrentMixedTraffic) {
  DecompCache::Options options;
  options.max_bytes = 64u << 10;  // small: forces concurrent evictions too
  options.shards = 4;
  DecompCache cache(options);
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 2000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        const uint64_t id = static_cast<uint64_t>((t * 37 + i) % 97);
        if ((i + t) % 3 == 0) {
          // Bounds are a function of the key, as certified facts about one
          // instance must be — concurrent merges are then idempotent.
          CacheEntry e;
          e.hw_lb = 1 + static_cast<int32_t>(id % 4);
          e.hw_ub = e.hw_lb + 1;
          e.hw_witness = OneNodeWitness(1 + static_cast<int>(id % 16), 2);
          cache.Merge(KeyOf(id, id * 3), e);
        } else {
          CacheEntry got;
          if (cache.Lookup(KeyOf(id, id * 3), &got)) {
            // Invariants hold under concurrent merges.
            EXPECT_LE(got.hw_lb, got.hw_ub);
            EXPECT_LE(got.ghw_lb, got.hw_ub);
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_LE(cache.bytes(), 64u << 10);
}

TEST(CachedSolverTest, ConcurrentSolversAgree) {
  DecompCache cache;
  const Hypergraph base = CycleHypergraph(9);
  Rng rng(23);
  std::vector<PreparedInstance> asks;
  for (int i = 0; i < 8; ++i) {
    std::vector<int> vperm(base.num_vertices());
    std::vector<int> eperm(base.num_edges());
    for (size_t j = 0; j < vperm.size(); ++j) vperm[j] = static_cast<int>(j);
    for (size_t j = 0; j < eperm.size(); ++j) eperm[j] = static_cast<int>(j);
    rng.Shuffle(&vperm);
    rng.Shuffle(&eperm);
    asks.push_back(PrepareInstance(RelabeledHypergraph(base, vperm, eperm)));
  }
  std::vector<std::thread> threads;
  std::vector<CachedDecideResult> results(asks.size());
  for (size_t i = 0; i < asks.size(); ++i) {
    threads.emplace_back([&, i] {
      results[i] = CachedDecideHw(asks[i], 2, &cache);
    });
  }
  for (std::thread& t : threads) t.join();
  for (size_t i = 0; i < asks.size(); ++i) {
    ASSERT_TRUE(results[i].decided) << i;
    EXPECT_TRUE(results[i].exists) << i;
    EXPECT_TRUE(results[i].decomposition.Validate(asks[i].original).ok());
  }
  EXPECT_EQ(cache.size(), 1u);
}

}  // namespace
}  // namespace ghd
