// Suite harness — the width-k decider on the standard families.
//
// Runs the width-k decider (hypertree width via det-k-decomp normal form) on
// every StandardSuite instance, one search on one thread, and reports
// per-instance wall-clock and states explored. Then measures the fan-out:
// the whole suite dispatched across threads, one instance per task, at 1
// thread and at every usable CPU, and checks that the fan-out's widths equal
// the sequential pass's.
//
// Results land in BENCH_suite.json (see suite.h); pass --full for the larger
// sizes.
#include <iostream>
#include <sstream>
#include <vector>

#include "htd/det_k_decomp.h"
#include "obs/obs.h"
#include "suite.h"
#include "util/table.h"
#include "util/thread_pool.h"
#include "util/timer.h"

int main(int argc, char** argv) {
  using namespace ghd;
  const bool full = bench::WantFull(argc, argv);
  const bool force = bench::WantForce(argc, argv);
#if GHD_OBS_ENABLED
  ghd::obs::EnableCounters(true);
  ghd::obs::EnableAttribution(true);  // feeds the v6 "attr_top" extra
#endif

  // States cap per decision so the table stays interactive; undecided runs
  // are reported as such.
  const long budget = full ? 5000000 : 500000;
  // Schema v6: each instance is run `repeats` times and the
  // record carries the p50/p99 of the walls, so one scheduler hiccup can't
  // masquerade as a regression in the tracked trajectory.
  const int repeats = full ? 5 : 3;

  std::cout << "suite: width-k decider on the standard families\n\n";

  std::vector<bench::NamedInstance> suite = bench::StandardSuite(full);
  std::vector<bench::BenchRecord> records;
  std::vector<int> widths;  // -1 = budget-undecided
  Table table({"instance", "n", "m", "hw", "ms", "states"});

  for (const auto& [name, h] : suite) {
    KDeciderOptions options;
    options.state_budget = budget;
    std::vector<double> walls;
    walls.reserve(repeats);
    HypertreeWidthResult r;
    for (int rep = 0; rep < repeats; ++rep) {
      // Reset per repeat: the record's counters/attribution describe one
      // run, not `repeats` of them.
#if GHD_OBS_ENABLED
      ghd::obs::ResetCounters();
      ghd::obs::ResetAttribution();
#endif
      WallTimer t;
      r = HypertreeWidth(h, 0, options);
      walls.push_back(t.ElapsedMillis());
    }
    const double ms = bench::Percentile(walls, 0.5);
    const double p99 = bench::Percentile(walls, 0.99);
    const int width = r.exact ? r.width : -1;
    widths.push_back(width);
    table.AddRow({name, Table::Cell(h.num_vertices()),
                  Table::Cell(h.num_edges()),
                  r.exact ? Table::Cell(r.width) : "-", Table::Cell(ms, 2),
                  Table::Cell(static_cast<int>(r.states_visited))});
    bench::BenchRecord record;
    record.instance = name;
    record.wall_ms = ms;
    record.states = r.states_visited;
    record.extra.emplace_back("width", std::to_string(width));
    record.extra.emplace_back("decided", r.exact ? "true" : "false");
    {
      std::ostringstream percentiles;
      percentiles.precision(4);
      percentiles << std::fixed << ms;
      record.extra.emplace_back("wall_ms_p50", percentiles.str());
      percentiles.str("");
      percentiles << p99;
      record.extra.emplace_back("wall_ms_p99", percentiles.str());
    }
#if GHD_OBS_ENABLED
    const ghd::obs::CounterSnapshot snap = ghd::obs::SnapshotCounters();
    std::string counters_json;
    snap.AppendJson(&counters_json);
    record.extra.emplace_back("counters", counters_json);
    // Schema v3: fraction of VertexSets this run kept in inline storage
    // (the small-set optimization's hit rate; see docs/OBSERVABILITY.md).
    const long inline_sets = snap.counter(obs::Counter::kBitsetInlineSets);
    const long heap_sets = snap.counter(obs::Counter::kBitsetHeapSets);
    if (inline_sets + heap_sets > 0) {
      std::ostringstream rate;
      rate.precision(4);
      rate << std::fixed
           << static_cast<double>(inline_sets) /
                  static_cast<double>(inline_sets + heap_sets);
      record.extra.emplace_back("inline_set_hit_rate", rate.str());
    }
    // Schema v6: where the last repeat's wall went (k-ladder rungs).
    record.extra.emplace_back("attr_top", bench::AttrTopJson(3));
#endif
    records.push_back(std::move(record));
  }
  table.Print(std::cout);

  // Fan-out: the whole suite dispatched across threads, one task per
  // instance — parallelism across requests, the serving-style throughput
  // number. Each search still runs on its one thread.
  const int cpus = UsableCpus();
  const int n = static_cast<int>(suite.size());
  bool widths_agree = true;
  for (int threads : {1, cpus}) {
    std::vector<int> fanout_widths(n);
    WallTimer t;
    ParallelFor(WorkerCount(threads, cpus, n), n, [&](int i) {
      KDeciderOptions options;
      options.state_budget = budget;
      const HypertreeWidthResult r =
          HypertreeWidth(suite[i].hypergraph, 0, options);
      fanout_widths[i] = r.exact ? r.width : -1;
    });
    const double ms = t.ElapsedMillis();
    widths_agree = widths_agree && fanout_widths == widths;
    std::cout << "\nfan-out: whole suite at " << threads << " thread(s): "
              << ms << " ms";
    bench::BenchRecord record;
    record.instance = "_suite_fanout";
    record.wall_ms = ms;
    record.threads = threads;
    records.push_back(std::move(record));
    if (threads == cpus) break;  // cpus may be 1
  }

  std::cout << "\n\nresult: fan-out widths "
            << (widths_agree ? "identical to" : "DIFFER (BUG) from")
            << " the sequential pass.\n";
  bench::WriteBenchJson("suite", full, records, force);
  return widths_agree ? 0 : 1;
}
