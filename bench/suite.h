// Shared instance registry for the experiment harnesses: the structured
// benchmark families (stand-ins for the public CSP hypergraph library) at
// "quick" and "--full" sizes.
#ifndef GHD_BENCH_SUITE_H_
#define GHD_BENCH_SUITE_H_

#include <string>
#include <utility>
#include <vector>

#include "hypergraph/hypergraph.h"

namespace ghd {
namespace bench {

struct NamedInstance {
  std::string name;
  Hypergraph hypergraph;
};

/// The standard structured suite. `full` adds the larger sizes (slower runs).
std::vector<NamedInstance> StandardSuite(bool full);

/// Small instances whose exact ghw is computable in milliseconds; used by the
/// agreement / ratio experiments.
std::vector<NamedInstance> ExactSuite(bool full);

/// True when argv contains "--full".
bool WantFull(int argc, char** argv);

/// True when argv contains "--force" (allow clobbering an existing
/// BENCH_<name>.json).
bool WantForce(int argc, char** argv);

/// One machine-readable measurement row: an instance run, on `threads`
/// threads when the row times a fan-out of whole requests.
/// `extra` holds additional fields; values are emitted verbatim into the
/// JSON, so pass valid literals ("2", "true", "\"grid\"").
struct BenchRecord {
  std::string instance;
  double wall_ms = 0;
  long states = 0;
  int threads = 1;
  std::vector<std::pair<std::string, std::string>> extra;
};

/// Layout version stamped into every BENCH_*.json. Version 2 added the
/// schema_version field itself and the optional per-record "counters" object.
/// Version 3 added the per-record "inline_set_hit_rate" field (fraction of
/// VertexSets the record's run kept in inline storage) emitted by the suite
/// harness in counter-enabled builds. Version 4 split the bip_tractable
/// rows' wall time into closure and decide phases ("closure_ms" extra; the
/// top-level wall_ms stays closure + decide) and added the "dominated" extra
/// (guards dropped by closure dominance pruning). Version 5 added the
/// top-level "kernel_dispatch" field: the batch-kernel implementation
/// ("avx2" or "scalar", hypergraph/kernels.h) the run executed with.
/// Numbers from different dispatches are different code paths — comparison
/// tooling must check this field first (tools/perf_smoke.py refuses
/// cross-dispatch comparisons loudly).
/// Version 6 added per-record wall-time percentiles over the harness's
/// repeat loop ("wall_ms_p50" / "wall_ms_p99" extras; the suite harness's
/// top-level wall_ms is the p50, bip_tractable's stays the per-seed mean)
/// and the "attr_top" extra: the three heaviest attribution-tree paths of
/// the record's run as [{"path": .., "wall_ms": ..}, ..] (obs builds only).
/// Version 7 added the per-record "cache_hit_rate" extra (fraction of the
/// record's asks served from the decomposition cache, cache/decomp_cache.h;
/// 0 on cache-off records) emitted by the repeat_traffic harness alongside
/// its cold/warm wall-time ratios.
/// Version 8 added the replay harness's per-record event-latency percentiles
/// ("event_ms_p50" / "event_ms_p99" extras over the per-event mutate+decide
/// latencies of a workload trace, core/incremental.h) plus its retention
/// extras ("memo_retention", "incremental_solves", "full_solves",
/// "cache_served"), and extended repeat_traffic's serving records with
/// "cold_ms_p99" / "warm_ms_p99" tail percentiles next to the existing p50s.
/// Version 9 made "hardware_threads" the count of CPUs in the process's
/// affinity mask (UsableCpus, util/thread_pool.h), so a run pinned with
/// `taskset -c 1` records 1. Every search runs on one thread, so the suite
/// harness's per-instance records all carry threads = 1; only its
/// "_suite_fanout" records time whole requests on several threads.
inline constexpr int kBenchSchemaVersion = 9;

/// q-th percentile (0 < q <= 1) of `samples` by the nearest-rank method;
/// 0 when empty. Backs the v6 per-record wall-time percentiles.
double Percentile(std::vector<double> samples, double q);

/// The `limit` heaviest attribution paths of the current tree as a JSON
/// array literal for the "attr_top" extra; "[]" when the build or the
/// attribution runtime flag is off.
std::string AttrTopJson(size_t limit);

/// Writes BENCH_<bench_name>.json in the working directory: run metadata
/// (schema version, bench name, --full flag, usable CPU count) plus
/// every record. The perf trajectory of the solvers is tracked from these
/// files, so an existing file is never clobbered unless `force` is true
/// (wire it to WantForce so users opt in with --force). The write goes to a
/// temporary sibling file that is renamed into place, so a crash mid-run can
/// never leave a truncated BENCH_*.json behind.
void WriteBenchJson(const std::string& bench_name, bool full,
                    const std::vector<BenchRecord>& records, bool force);

}  // namespace bench
}  // namespace ghd

#endif  // GHD_BENCH_SUITE_H_
