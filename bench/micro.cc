// Experiment E9 — microbenchmarks of the hot inner loops (google-benchmark):
// bitset algebra, primal-graph construction, elimination, covering, and the
// width-k decider. These are the substrate costs every experiment above is
// built from.
#include <benchmark/benchmark.h>

#include <fstream>
#include <optional>

#include "cache/cached_solver.h"
#include "cache/decomp_cache.h"
#include "core/bip.h"
#include "core/ghw_upper.h"
#include "core/incremental.h"
#include "core/fractional.h"
#include "core/k_decider.h"
#include "csp/csp.h"
#include "csp/yannakakis.h"
#include "hypergraph/acyclicity.h"
#include "hypergraph/canonical.h"
#include "hypergraph/flat_hypergraph.h"
#include "hypergraph/kernels.h"
#include "gen/circuits.h"
#include "gen/generators.h"
#include "gen/random_hypergraphs.h"
#include "htd/det_k_decomp.h"
#include "obs/obs.h"
#if GHD_OBS_ENABLED
#include "obs/sampler.h"
#endif
#include "setcover/set_cover.h"
#include "td/bucket_elimination.h"
#include "td/lower_bounds.h"
#include "td/ordering_heuristics.h"
#include "util/bitset.h"
#include "util/set_interner.h"

namespace ghd {
namespace {

// Copy + destroy round-trip. Universes ≤ 128 stay in the inline words (no
// heap traffic at all); 192+ exercises the dynamic path. The gap between
// /128 and /192 is the small-set optimization, and the perf-smoke CI job
// pins the /128 number against bench/perf_smoke_reference.json.
void BM_BitsetCopy(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  VertexSet a(n);
  for (int i = 0; i < n; i += 3) a.Set(i);
  for (auto _ : state) {
    VertexSet b = a;
    benchmark::DoNotOptimize(b);
  }
}
BENCHMARK(BM_BitsetCopy)->Arg(64)->Arg(128)->Arg(192)->Arg(512);

void BM_BitsetHash(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  VertexSet a(n);
  for (int i = 0; i < n; i += 3) a.Set(i);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.Hash());
  }
}
BENCHMARK(BM_BitsetHash)->Arg(64)->Arg(128)->Arg(192)->Arg(512);

// Re-interning a working set of 256 distinct sets: after the first lap every
// Intern() is a hit, which is the decider's steady state (the same
// components and connectors recur across λ branches).
void BM_InternerThroughput(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::vector<VertexSet> sets;
  sets.reserve(256);
  for (int s = 0; s < 256; ++s) {
    VertexSet v(n);
    for (int i = s % 7; i < n; i += 3 + s % 5) v.Set(i);
    v.Set(s % n);
    sets.push_back(std::move(v));
  }
  SetInterner interner;
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(interner.Intern(sets[i & 255]));
    ++i;
  }
}
BENCHMARK(BM_InternerThroughput)->Arg(64)->Arg(512);

void BM_BitsetUnionCount(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  VertexSet a(n), b(n);
  for (int i = 0; i < n; i += 3) a.Set(i);
  for (int i = 0; i < n; i += 5) b.Set(i);
  for (auto _ : state) {
    VertexSet c = a;
    c |= b;
    benchmark::DoNotOptimize(c.Count());
  }
}
BENCHMARK(BM_BitsetUnionCount)->Arg(64)->Arg(512)->Arg(4096);

void BM_PrimalGraph(benchmark::State& state) {
  Hypergraph h = RandomUniformHypergraph(static_cast<int>(state.range(0)),
                                         static_cast<int>(state.range(0)), 4, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(h.PrimalGraph().NumEdges());
  }
}
BENCHMARK(BM_PrimalGraph)->Arg(32)->Arg(128);

void BM_EliminationWidth(benchmark::State& state) {
  Graph g = GridGraph(static_cast<int>(state.range(0)),
                      static_cast<int>(state.range(0)));
  std::vector<int> ordering = MinFillOrdering(g);
  for (auto _ : state) {
    benchmark::DoNotOptimize(EliminationWidth(g, ordering));
  }
}
BENCHMARK(BM_EliminationWidth)->Arg(6)->Arg(12);

void BM_MinFillOrdering(benchmark::State& state) {
  Graph g = GridGraph(static_cast<int>(state.range(0)),
                      static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(MinFillOrdering(g).size());
  }
}
BENCHMARK(BM_MinFillOrdering)->Arg(6)->Arg(10);

void BM_MinorMinWidth(benchmark::State& state) {
  Graph g = GridGraph(static_cast<int>(state.range(0)),
                      static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(MinorMinWidthLowerBound(g));
  }
}
BENCHMARK(BM_MinorMinWidth)->Arg(6)->Arg(10);

void BM_GreedyCover(benchmark::State& state) {
  Hypergraph h = RandomUniformHypergraph(40, 30, 4, 3);
  VertexSet target = h.CoveredVertices();
  for (auto _ : state) {
    benchmark::DoNotOptimize(GreedySetCover(target, h.edges()).size());
  }
}
BENCHMARK(BM_GreedyCover);

void BM_ExactCover(benchmark::State& state) {
  Hypergraph h = RandomUniformHypergraph(24, 20, 4, 3);
  VertexSet target = h.CoveredVertices();
  for (auto _ : state) {
    benchmark::DoNotOptimize(ExactSetCover(target, h.edges())->size());
  }
}
BENCHMARK(BM_ExactCover);

void BM_GhwUpperBoundExactCovers(benchmark::State& state) {
  Hypergraph h = AdderHypergraph(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        GhwUpperBound(h, OrderingHeuristic::kMinFill, CoverMode::kExact)
            .width);
  }
}
BENCHMARK(BM_GhwUpperBoundExactCovers)->Arg(5)->Arg(15);

void BM_DetKDecomp(benchmark::State& state) {
  Hypergraph h = AdderHypergraph(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(HypertreeWidthAtMost(h, 2).exists);
  }
}
BENCHMARK(BM_DetKDecomp)->Arg(3)->Arg(6);

// Live-introspection overhead pair, pinned by the perf-smoke gate: the same
// width-k decision with the whole surface armed — counters, progress board,
// attribution, plus the background sampler at its default cadence feeding
// both its metrics ring and a heartbeat sink — vs everything off (/0). The
// feature's acceptance bar is a <2% suite-row delta; this pinned pair
// catches the catastrophic version of a regression (a publish, lock, or
// snapshot sneaking into the per-state hot path).
void BM_DeciderIntrospection(benchmark::State& state) {
  const bool introspect = state.range(0) != 0;
  const Hypergraph h = AdderHypergraph(6);
#if GHD_OBS_ENABLED
  std::ofstream sink("/dev/null");
  std::optional<obs::Sampler> sampler;
  if (introspect) {
    obs::EnableCounters(true);
    obs::EnableBoard(true);
    obs::EnableAttribution(true);
    obs::Sampler::Options options;  // default 100ms cadence
    options.heartbeat_out = &sink;
    sampler.emplace(options);
    sampler->Start();
  }
#endif
  for (auto _ : state) {
    benchmark::DoNotOptimize(HypertreeWidthAtMost(h, 2).exists);
  }
#if GHD_OBS_ENABLED
  if (introspect) {
    sampler->Stop();
    obs::EnableAttribution(false);
    obs::EnableBoard(false);
    obs::ResetCounters();
    obs::EnableCounters(false);
  }
#else
  (void)introspect;
#endif
}
BENCHMARK(BM_DeciderIntrospection)->Arg(0)->Arg(1);

void BM_FractionalCover(benchmark::State& state) {
  Hypergraph h = RandomUniformHypergraph(20, 15, 4, 3);
  VertexSet target = h.CoveredVertices();
  for (auto _ : state) {
    benchmark::DoNotOptimize(FractionalCoverNumber(target, h.edges()).num());
  }
}
BENCHMARK(BM_FractionalCover);

void BM_GyoAcyclicity(benchmark::State& state) {
  Hypergraph h = AdderHypergraph(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(IsAlphaAcyclic(h));
  }
}
BENCHMARK(BM_GyoAcyclicity)->Arg(5)->Arg(20);

void BM_YannakakisColoring(benchmark::State& state) {
  Csp csp = MakeColoringCsp(GridGraph(4, 4), 3);
  GeneralizedHypertreeDecomposition ghd =
      GhwUpperBound(csp.ConstraintHypergraph(), OrderingHeuristic::kMinFill,
                    CoverMode::kExact)
          .ghd;
  for (auto _ : state) {
    benchmark::DoNotOptimize(SolveViaDecomposition(csp, ghd).has_value());
  }
}
BENCHMARK(BM_YannakakisColoring);

void BM_SubedgeClosure(benchmark::State& state) {
  Hypergraph h = RandomBoundedIntersectionHypergraph(30, 18, 3, 1, 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(BipSubedgeClosure(h).family.size());
  }
}
BENCHMARK(BM_SubedgeClosure);

// The demand-driven closure enumerator itself (the E3 front half): per-parent
// atom frontier + interner dedup + dominance pruning, at the union arity the
// tractability argument actually uses (j = k = 3). Arg is the vertex count of
// the random BIP(2) instance. The perf-smoke CI job pins /24 against
// bench/perf_smoke_reference.json.
void BM_ClosureEnumerate(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Hypergraph h = RandomBoundedIntersectionHypergraph(n, n, 4, 2, 13);
  SubedgeClosureOptions options;
  options.max_union_arity = 3;
  long probed = 0;
  long guards = 0;
  for (auto _ : state) {
    SubedgeClosureResult r = BipSubedgeClosure(h, options);
    probed += r.candidates_probed;
    guards = r.family.size();
    benchmark::DoNotOptimize(guards);
  }
  state.counters["candidates"] = static_cast<double>(probed) /
                                 static_cast<double>(state.iterations());
  state.counters["guards"] = static_cast<double>(guards);
}
BENCHMARK(BM_ClosureEnumerate)->Arg(24)->Arg(40);

// Building the flat CSR + bitset-matrix view (FlatHypergraph). This is the
// once-per-instance cost the kernels amortize; pinned in perf-smoke so a
// regression in the build pass can't hide behind fast kernels.
void BM_CsrBuild(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Hypergraph h = RandomUniformHypergraph(n, n, 4, 7);
  for (auto _ : state) {
    FlatHypergraph flat(h);
    benchmark::DoNotOptimize(flat.num_edges());
  }
}
BENCHMARK(BM_CsrBuild)->Arg(64)->Arg(256);

// Kernel-backed component splitting over the CSR incidence arrays — the
// decider's SplitComponents hot loop with a quarter of the vertices removed
// as the separator.
void BM_FlatSplit(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Hypergraph h = RandomUniformHypergraph(n, n, 4, 7);
  const FlatHypergraph& flat = h.Flat();
  const VertexSet all = VertexSet::Full(h.num_edges());
  VertexSet chi(h.num_vertices());
  for (int v = 0; v < n; v += 4) chi.Set(v);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        kernels::FlatSplitComponents(flat, all, chi).size());
  }
}
BENCHMARK(BM_FlatSplit)->Arg(64)->Arg(256);

// The cover-check acceptance pair: identical guard data and probes, scored
// once through the batched matrix kernel (BM_BatchCoverCheck) and once
// through the pre-flat per-guard VertexSet::IntersectCount loop
// (BM_ScalarCoverCheck). Arg is the vertex universe; 128 is the VertexSet
// inline boundary, larger universes put the scalar path on heap sets. Guard
// count is fixed at 256 rows, the scale of a BIP subedge-closure family.
constexpr int kCoverGuards = 256;

struct CoverCheckFixture {
  explicit CoverCheckFixture(int n)
      : matrix(kCoverGuards, n), guards(), conn(n), comp(n) {
    guards.reserve(kCoverGuards);
    for (int g = 0; g < kCoverGuards; ++g) {
      VertexSet s(n);
      for (int v = g % 13; v < n; v += 3 + g % 7) s.Set(v);
      matrix.SetRow(g, s);
      guards.push_back(std::move(s));
      ids.push_back(g);
    }
    for (int v = 0; v < n; v += 5) conn.Set(v);
    for (int v = 0; v < n; v += 2) comp.Set(v);
  }
  BitMatrix matrix;
  std::vector<VertexSet> guards;
  std::vector<int32_t> ids;
  VertexSet conn;
  VertexSet comp;
};

void BM_BatchCoverCheck(benchmark::State& state) {
  CoverCheckFixture f(static_cast<int>(state.range(0)));
  std::vector<int> conn_cover(kCoverGuards), comp_cover(kCoverGuards);
  for (auto _ : state) {
    kernels::AndPopcountRows(f.conn.word_data(), f.matrix, f.ids.data(),
                             kCoverGuards, conn_cover.data());
    kernels::AndPopcountRows(f.comp.word_data(), f.matrix, f.ids.data(),
                             kCoverGuards, comp_cover.data());
    benchmark::DoNotOptimize(conn_cover.data());
    benchmark::DoNotOptimize(comp_cover.data());
  }
}
BENCHMARK(BM_BatchCoverCheck)->Arg(128)->Arg(256)->Arg(512);

void BM_ScalarCoverCheck(benchmark::State& state) {
  CoverCheckFixture f(static_cast<int>(state.range(0)));
  std::vector<int> conn_cover(kCoverGuards), comp_cover(kCoverGuards);
  for (auto _ : state) {
    for (int g = 0; g < kCoverGuards; ++g) {
      conn_cover[g] = f.guards[g].IntersectCount(f.conn);
      comp_cover[g] = f.guards[g].IntersectCount(f.comp);
    }
    benchmark::DoNotOptimize(conn_cover.data());
    benchmark::DoNotOptimize(comp_cover.data());
  }
}
BENCHMARK(BM_ScalarCoverCheck)->Arg(128)->Arg(256)->Arg(512);

// Canonical fingerprinting cost (hypergraph/canonical.h) on the cycle, the
// worst suite family: vertex-transitive, so 1-WL refinement alone never
// discretizes and every run pays the full individualization-refinement
// search (~2n nodes). This is the per-instance overhead the decomposition
// cache charges on every ask, hit or miss; the perf-smoke gate pins /256 so
// a quadratic slip in refinement or an accidental re-refinement per branch
// shows up before it erases the repeat-traffic win.
void BM_Canonicalize(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const Hypergraph h = CycleHypergraph(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Canonicalize(h).key.lo);
  }
}
BENCHMARK(BM_Canonicalize)->Arg(24)->Arg(64)->Arg(256);

// The full warm-hit serving path of the decomposition cache: reduce +
// canonicalize an isomorphic re-ask, look its key up, rehydrate the cached
// witness through the inverse permutations, and re-validate it on the
// concrete instance. This is the numerator of the repeat-traffic >= 50x
// claim (bench/repeat_traffic.cc measures the ratio end to end); the pin
// catches a lost cache hit (key instability would send this to a cold
// solve and blow past the 3x gate) as well as rehydration regressions.
void BM_CacheHit(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const Hypergraph h = CycleHypergraph(n);
  DecompCache cache;
  const PreparedInstance seed = PrepareInstance(h);
  CachedDecideHw(seed, 2, &cache);  // cold solve populates the entry
  std::vector<int> vperm(h.num_vertices()), eperm(h.num_edges());
  for (int v = 0; v < h.num_vertices(); ++v) {
    vperm[v] = (v + 7) % h.num_vertices();
  }
  for (int e = 0; e < h.num_edges(); ++e) eperm[e] = (e + 3) % h.num_edges();
  const Hypergraph reask = RelabeledHypergraph(h, vperm, eperm);
  for (auto _ : state) {
    const PreparedInstance p = PrepareInstance(reask);
    const CachedDecideResult r = CachedDecideHw(p, 2, &cache);
    if (!r.from_cache) state.SkipWithError("expected a cache hit");
    benchmark::DoNotOptimize(r.exists);
  }
}
BENCHMARK(BM_CacheHit)->Arg(64)->Arg(256);

// One small-delta round against a warm incremental solver: remove one edge
// of the n-cycle and re-insert it, two KLadderContext::Rebind sweeps with
// delta-scoped invalidation (core/incremental.h). This is the per-delta
// overhead the incremental path charges on every mutation — the denominator
// of the replay experiment's amortization claim. The pin catches a sweep
// that degrades to rebuilding the memo wholesale (retention collapsing to
// zero makes later decides slow but leaves this number alone; a quadratic
// remap or a per-entry re-canonicalization shows up here directly).
void BM_DeltaInvalidate(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const Hypergraph base = CycleHypergraph(n);
  IncrementalSolver solver(base);
  solver.DecideHw(2);  // bootstrap warms the ladder
  const VertexSet verts = base.edge(0);
  const std::string name = base.edge_name(0);
  for (auto _ : state) {
    int id = -1;
    for (int e = 0; e < solver.current().num_edges(); ++e) {
      if (solver.current().edge_name(e) == name) {
        id = e;
        break;
      }
    }
    EdgeDelta remove;
    remove.removed_edges.push_back(id);
    solver.Apply(remove);
    EdgeDelta insert;
    insert.inserts.push_back({name, verts});
    solver.Apply(insert);
    benchmark::DoNotOptimize(solver.version());
  }
  if (!solver.warm()) state.SkipWithError("warm ladder was dropped");
}
BENCHMARK(BM_DeltaInvalidate)->Arg(256);

}  // namespace
}  // namespace ghd

// Explicit main instead of BENCHMARK_MAIN(): the JSON context must carry the
// kernel dispatch actually in effect, so tools/perf_smoke.py can refuse to
// compare numbers from different code paths (it reads
// context.kernel_dispatch against the reference file's).
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::AddCustomContext(
      "kernel_dispatch",
      ghd::kernels::KernelDispatchName(ghd::kernels::SelectedDispatch()));
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
