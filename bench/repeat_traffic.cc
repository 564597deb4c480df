// Experiment E12 — repeat-traffic amortization through the decomposition
// cache (cache/cached_solver.h). Two measurements back the cache's headline
// claims:
//
//   1. Per-instance serving ratio: the p50 of a full cold ask (reduce +
//      canonicalize + hw floor + k-ladder solve) against the p50 of a warm
//      ask of an isomorphic relabeling (reduce + canonicalize + lookup +
//      rehydrate + re-validate). The cache pays for itself
//      instance-by-instance when this ratio is large, which it is only where
//      the cold ask needs a real search: an ask the certified floor refutes
//      (grid2d_6 at k = 2) costs about as much cold as served.
//
//   2. End-to-end manifest throughput at 80% duplicates: the same ask
//      sequence (every unique instance asked five times under fresh
//      labelings) run once with the cache off — every ask a cold solve —
//      and once with the cache on, where only the five class representatives
//      solve cold. The bar is >= 3x end to end.
//
// Records carry the v7 "cache_hit_rate" extra: the fraction of the record's
// asks served from the cache (0 for cold records by construction).
#include <chrono>
#include <cstdio>
#include <numeric>
#include <string>
#include <vector>

#include "cache/cached_solver.h"
#include "cache/decomp_cache.h"
#include "gen/generators.h"
#include "hypergraph/canonical.h"
#include "suite.h"

namespace ghd {
namespace bench {
namespace {

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// A fresh isomorphic re-ask: rotate both label spaces by a seed-dependent
// stride so every duplicate arrives under a different concrete labeling, the
// way repeat traffic does in the wild.
Hypergraph Reask(const Hypergraph& h, int seed) {
  const int n = h.num_vertices(), m = h.num_edges();
  std::vector<int> vperm(n), eperm(m);
  for (int v = 0; v < n; ++v) {
    vperm[v] = seed % 2 ? (n - 1 - v + seed) % n : (v + seed + 1) % n;
  }
  for (int e = 0; e < m; ++e) eperm[e] = (e + 2 * seed + 1) % m;
  return RelabeledHypergraph(h, vperm, eperm);
}

struct ServingSample {
  std::string name;
  Hypergraph hypergraph;
  int k;
};

}  // namespace
}  // namespace bench
}  // namespace ghd

int main(int argc, char** argv) {
  using namespace ghd;
  using namespace ghd::bench;
  const bool full = WantFull(argc, argv);
  const int cold_reps = full ? 15 : 7;
  const int warm_reps = full ? 200 : 50;
  std::vector<BenchRecord> records;

  // --- Part 1: per-instance cold-vs-served p50. The instances are the
  // committed large-universe data/ trio plus a mid-size grid — the sizes
  // where a cold solve is real work but still milliseconds, so the ratio is
  // a serving number rather than a timeout artifact.
  std::vector<ServingSample> samples;
  samples.push_back({"grid2d_6", Grid2dHypergraph(6, 6), 2});
  samples.push_back({"tristrip_64", TriangleStripHypergraph(64), 2});
  samples.push_back({"window_160", WindowPathHypergraph(160, 6, 3), 2});
  samples.push_back({"cycle_256", CycleHypergraph(256), 2});
  std::printf("%-14s %12s %12s %12s %12s %10s\n", "instance", "cold_p50_ms",
              "cold_p99_ms", "warm_p50_ms", "warm_p99_ms", "speedup");
  for (const ServingSample& s : samples) {
    std::vector<double> cold_ms;
    for (int r = 0; r < cold_reps; ++r) {
      const Hypergraph ask = Reask(s.hypergraph, r);
      const double t0 = NowMs();
      const PreparedInstance p = PrepareInstance(ask);
      const CachedDecideResult res = CachedDecideHw(p, s.k, nullptr);
      cold_ms.push_back(NowMs() - t0);
      if (!res.decided) {
        std::fprintf(stderr, "cold solve of %s undecided at k=%d\n",
                     s.name.c_str(), s.k);
        return 1;
      }
    }
    DecompCache cache;
    {
      const PreparedInstance p = PrepareInstance(s.hypergraph);
      CachedDecideHw(p, s.k, &cache);
    }
    std::vector<double> warm_ms;
    long hits = 0;
    for (int r = 0; r < warm_reps; ++r) {
      const Hypergraph ask = Reask(s.hypergraph, r);
      const double t0 = NowMs();
      const PreparedInstance p = PrepareInstance(ask);
      const CachedDecideResult res = CachedDecideHw(p, s.k, &cache);
      warm_ms.push_back(NowMs() - t0);
      hits += res.from_cache ? 1 : 0;
    }
    const double cold_p50 = Percentile(cold_ms, 0.5);
    const double cold_p99 = Percentile(cold_ms, 0.99);
    const double warm_p50 = Percentile(warm_ms, 0.5);
    const double warm_p99 = Percentile(warm_ms, 0.99);
    const double speedup = warm_p50 > 0 ? cold_p50 / warm_p50 : 0;
    const double hit_rate =
        static_cast<double>(hits) / static_cast<double>(warm_reps);
    std::printf("%-14s %12.3f %12.3f %12.4f %12.4f %9.1fx\n", s.name.c_str(),
                cold_p50, cold_p99, warm_p50, warm_p99, speedup);
    BenchRecord rec;
    rec.instance = s.name;
    rec.wall_ms = warm_p50;
    rec.threads = 1;
    rec.extra.push_back({"mode", "\"repeat_serving\""});
    rec.extra.push_back({"cold_ms_p50", std::to_string(cold_p50)});
    rec.extra.push_back({"cold_ms_p99", std::to_string(cold_p99)});
    rec.extra.push_back({"warm_ms_p50", std::to_string(warm_p50)});
    rec.extra.push_back({"warm_ms_p99", std::to_string(warm_p99)});
    rec.extra.push_back({"speedup", std::to_string(speedup)});
    rec.extra.push_back({"cache_hit_rate", std::to_string(hit_rate)});
    records.push_back(std::move(rec));
  }

  // --- Part 2: 80%-duplicate manifest, end to end. Five unique classes,
  // each asked five times under fresh labelings (hit rate 4/5 once the
  // representatives are solved); same ask sequence with the cache off.
  std::vector<Hypergraph> traffic;
  for (const ServingSample& s : samples) {
    for (int dup = 0; dup < 5; ++dup) {
      traffic.push_back(Reask(s.hypergraph, dup));
    }
  }
  traffic.push_back(CliqueHypergraph(8));
  for (int dup = 1; dup < 5; ++dup) {
    traffic.push_back(Reask(CliqueHypergraph(8), dup));
  }
  const int kManifestK = 4;  // covers clique_8 (hw = 4), trivial for the rest
  const auto run_traffic = [&](DecompCache* cache, double* hit_rate) {
    long hits = 0;
    const double t0 = NowMs();
    for (const Hypergraph& ask : traffic) {
      const PreparedInstance p = PrepareInstance(ask);
      const CachedDecideResult res = CachedDecideHw(p, kManifestK, cache);
      hits += res.from_cache ? 1 : 0;
    }
    *hit_rate = static_cast<double>(hits) / static_cast<double>(traffic.size());
    return NowMs() - t0;
  };
  double cold_hit_rate = 0, warm_hit_rate = 0;
  const double cold_wall = run_traffic(nullptr, &cold_hit_rate);
  DecompCache cache;
  const double warm_wall = run_traffic(&cache, &warm_hit_rate);
  const double e2e_speedup = warm_wall > 0 ? cold_wall / warm_wall : 0;
  std::printf(
      "\ndup80 manifest (%zu asks): cache-off %.1f ms, cache-on %.1f ms "
      "(%.1fx, hit rate %.2f)\n",
      traffic.size(), cold_wall, warm_wall, e2e_speedup, warm_hit_rate);
  {
    BenchRecord rec;
    rec.instance = "dup80_manifest_cache_off";
    rec.wall_ms = cold_wall;
    rec.threads = 1;
    rec.extra.push_back({"mode", "\"manifest\""});
    rec.extra.push_back({"asks", std::to_string(traffic.size())});
    rec.extra.push_back({"cache_hit_rate", std::to_string(cold_hit_rate)});
    records.push_back(std::move(rec));
  }
  {
    BenchRecord rec;
    rec.instance = "dup80_manifest_cache_on";
    rec.wall_ms = warm_wall;
    rec.threads = 1;
    rec.extra.push_back({"mode", "\"manifest\""});
    rec.extra.push_back({"asks", std::to_string(traffic.size())});
    rec.extra.push_back({"speedup", std::to_string(e2e_speedup)});
    rec.extra.push_back({"cache_hit_rate", std::to_string(warm_hit_rate)});
    records.push_back(std::move(rec));
  }

  WriteBenchJson("repeat_traffic", full, records, WantForce(argc, argv));
  return 0;
}
