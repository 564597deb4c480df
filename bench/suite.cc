#include "suite.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>

#include "gen/circuits.h"
#include "gen/generators.h"
#include "gen/random_hypergraphs.h"
#include "hypergraph/kernels.h"
#include "obs/obs.h"
#include "util/thread_pool.h"

namespace ghd {
namespace bench {

std::vector<NamedInstance> StandardSuite(bool full) {
  std::vector<NamedInstance> suite;
  auto add = [&suite](std::string name, Hypergraph h) {
    suite.push_back(NamedInstance{std::move(name), std::move(h)});
  };
  add("adder_5", AdderHypergraph(5));
  add("adder_15", AdderHypergraph(15));
  add("bridge_5", BridgeHypergraph(5));
  add("bridge_15", BridgeHypergraph(15));
  add("grid2d_4", Grid2dHypergraph(4, 4));
  add("grid2d_6", Grid2dHypergraph(6, 6));
  add("clique_8", CliqueHypergraph(8));
  add("clique_12", CliqueHypergraph(12));
  add("cycle_20", CycleHypergraph(20));
  add("hypercube_4", HypercubeHypergraph(4));
  add("tristrip_8", TriangleStripHypergraph(8));
  add("circuit_40", RandomCircuitHypergraph(6, 40, 7));
  add("rand_u3_30", RandomUniformHypergraph(30, 24, 3, 11));
  add("rand_bip1_30", RandomBoundedIntersectionHypergraph(30, 18, 3, 1, 12));
  add("rand_bdeg2_30", RandomBoundedDegreeHypergraph(30, 18, 3, 2, 13));
  // Large-universe family (also committed as data/*.hg): >= 128 and >= 256
  // vertices, so the VertexSet words spill past the inline budget and the
  // batched SIMD kernels dominate the per-state cost — the sizes where the
  // avx2/scalar dispatch gap is visible end to end, not just in micro.
  add("window_160", WindowPathHypergraph(160, 6, 3));
  add("tristrip_64", TriangleStripHypergraph(64));
  add("cycle_256", CycleHypergraph(256));
  if (full) {
    add("adder_40", AdderHypergraph(40));
    add("bridge_40", BridgeHypergraph(40));
    add("grid2d_10", Grid2dHypergraph(10, 10));
    add("grid3d_3", Grid3dHypergraph(3));
    add("clique_20", CliqueHypergraph(20));
    add("hypercube_5", HypercubeHypergraph(5));
    add("circuit_120", RandomCircuitHypergraph(10, 120, 7));
    add("rand_u3_60", RandomUniformHypergraph(60, 48, 3, 21));
  }
  return suite;
}

std::vector<NamedInstance> ExactSuite(bool full) {
  std::vector<NamedInstance> suite;
  auto add = [&suite](std::string name, Hypergraph h) {
    suite.push_back(NamedInstance{std::move(name), std::move(h)});
  };
  add("adder_2", AdderHypergraph(2));
  add("adder_3", AdderHypergraph(3));
  add("bridge_3", BridgeHypergraph(3));
  add("grid2d_3", Grid2dHypergraph(3, 3));
  add("cycle_6", CycleHypergraph(6));
  add("cycle_9", CycleHypergraph(9));
  add("clique_6", CliqueHypergraph(6));
  add("clique_7", CliqueHypergraph(7));
  add("tristrip_3", TriangleStripHypergraph(3));
  add("hypercube_3", HypercubeHypergraph(3));
  add("circuit_10", RandomCircuitHypergraph(4, 10, 5));
  add("rand_u3_a", RandomUniformHypergraph(10, 8, 3, 1));
  add("rand_u3_b", RandomUniformHypergraph(10, 8, 3, 2));
  add("rand_u4", RandomUniformHypergraph(11, 7, 4, 3));
  add("rand_bip1", RandomBoundedIntersectionHypergraph(12, 8, 3, 1, 4));
  add("rand_bdeg2", RandomBoundedDegreeHypergraph(14, 9, 3, 2, 5));
  if (full) {
    add("adder_4", AdderHypergraph(4));
    add("grid2d_4", Grid2dHypergraph(4, 4));
    add("clique_8", CliqueHypergraph(8));
    add("circuit_14", RandomCircuitHypergraph(4, 14, 6));
    add("rand_u3_c", RandomUniformHypergraph(12, 10, 3, 6));
  }
  return suite;
}

bool WantFull(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--full") == 0) return true;
  }
  return false;
}

bool WantForce(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--force") == 0) return true;
  }
  return false;
}

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

}  // namespace

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(samples.size())));
  return samples[rank == 0 ? 0 : std::min(samples.size(), rank) - 1];
}

std::string AttrTopJson(size_t limit) {
#if GHD_OBS_ENABLED
  const obs::AttributionNode root = obs::SnapshotAttribution();
  const auto top = obs::TopAttributionNodes(root, limit);
  std::ostringstream out;
  out.precision(4);
  out << std::fixed << '[';
  for (size_t i = 0; i < top.size(); ++i) {
    if (i > 0) out << ", ";
    out << "{\"path\": \"" << JsonEscape(top[i].first)
        << "\", \"wall_ms\": " << top[i].second * 1000.0 << "}";
  }
  out << ']';
  return out.str();
#else
  (void)limit;
  return "[]";
#endif
}

void WriteBenchJson(const std::string& bench_name, bool full,
                    const std::vector<BenchRecord>& records, bool force) {
  const std::string path = "BENCH_" + bench_name + ".json";
  if (!force && std::ifstream(path).good()) {
    std::cerr << "refusing to clobber existing " << path
              << "; rerun with --force to overwrite.\n";
    return;
  }
  std::ostringstream out;
  out << "{\n"
      << "  \"schema_version\": " << kBenchSchemaVersion << ",\n"
      << "  \"bench\": \"" << JsonEscape(bench_name) << "\",\n"
      << "  \"kernel_dispatch\": \""
      << kernels::KernelDispatchName(kernels::SelectedDispatch()) << "\",\n"
      << "  \"full\": " << (full ? "true" : "false") << ",\n"
      << "  \"hardware_threads\": " << UsableCpus()
      << ",\n"
      << "  \"records\": [\n";
  for (size_t i = 0; i < records.size(); ++i) {
    const BenchRecord& r = records[i];
    out << "    {\"instance\": \"" << JsonEscape(r.instance) << "\", "
        << "\"wall_ms\": " << r.wall_ms << ", "
        << "\"states\": " << r.states << ", "
        << "\"threads\": " << r.threads;
    for (const auto& [key, value] : r.extra) {
      out << ", \"" << JsonEscape(key) << "\": " << value;
    }
    out << "}" << (i + 1 < records.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  // Write-then-rename: the real path only ever holds a complete file. A crash
  // (or full disk) mid-write strands the .tmp sibling instead of truncating
  // the tracked results — --force stays the only path that replaces them.
  const std::string tmp_path = path + ".tmp";
  {
    std::ofstream file(tmp_path, std::ios::trunc);
    file << out.str();
    file.flush();
    if (!file) {
      std::cerr << "warning: could not write " << tmp_path << "\n";
      std::remove(tmp_path.c_str());
      return;
    }
  }
  if (std::rename(tmp_path.c_str(), path.c_str()) != 0) {
    std::cerr << "warning: could not rename " << tmp_path << " to " << path
              << "\n";
    std::remove(tmp_path.c_str());
    return;
  }
  std::cout << "\nwrote " << path << " (" << records.size() << " records)\n";
}

}  // namespace bench
}  // namespace ghd
