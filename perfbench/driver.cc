// perfbench_driver: runs one benchmark workload at one seed and writes every
// figure it measured, with sample counts and run metadata, as one JSON
// object. perfbench/run.py builds this program and turns its output into the
// benchmark's result line.
//
//   perfbench_driver --workload sparse_scale|repeat_batch|edit_stream
//                    --seed N --seconds S --trace 0|1 --out FILE
//                    [--spans-out FILE]
//
// Untraced (--trace 0): the set-up is timed kSetupReps times, then the
// workload runs for S seconds on the real entry points, one closed-loop
// client, engine threads = 1, and the set-up is timed kSetupReps times more;
// setup_s is the median of both batches, so it pools two moments of the run.
// Traced (--trace 1): S/2 seconds untraced, then a fresh traced set-up and
// S/2 seconds traced, whose spans give the per-layer figures; the ratio of
// the two halves' throughput is the tracing overhead.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <sys/personality.h>
#include <unistd.h>

#include "bench.h"
#include "hypergraph/kernels.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_GHD_OBS
#define PERFBENCH_GHD_OBS "unknown"
#endif

namespace perfbench {
namespace {

constexpr int kSetupReps = 15;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string out;
  std::string spans_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
      have_seed = true;
    } else if (key == "--seconds") {
      args->seconds = std::atof(value);
      have_seconds = args->seconds > 0;
    } else if (key == "--trace") {
      args->trace = std::strcmp(value, "1") == 0;
      have_trace = args->trace || std::strcmp(value, "0") == 0;
    } else if (key == "--out") {
      args->out = value;
    } else if (key == "--spans-out") {
      args->spans_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_seed && have_seconds && have_trace &&
         !args->out.empty() && (!args->trace || !args->spans_out.empty());
}

bool AslrOff() {
  const int persona = personality(0xffffffff);
  return persona != -1 && (persona & ADDR_NO_RANDOMIZE) != 0;
}

// Where the heap and the stack lie decides which cache sets their data
// compete for, so the program re-executes itself once with address-space
// randomization off, as `setarch -R` does, and every run of a build at one
// seed gets the same layout. Skipped where the system refuses it.
void FixMemoryLayout(char** argv) {
  if (AslrOff()) return;
  const int persona = personality(0xffffffff);
  if (persona == -1 || personality(persona | ADDR_NO_RANDOMIZE) == -1 ||
      !AslrOff()) {
    return;
  }
  execv("/proc/self/exe", argv);  // on failure, run as is
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed) {
  if (name == "sparse_scale") return MakeSparseScale(seed);
  if (name == "repeat_batch") return MakeRepeatBatch(seed);
  if (name == "edit_stream") return MakeEditStream(seed);
  return nullptr;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

bool WriteRecord(const Args& args, const RunResult& result,
                 const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f,
               "{\"workload\": %s, \"seed\": %llu, \"seconds\": %.17g, "
               "\"trace\": %d,\n",
               JsonString(args.workload).c_str(),
               static_cast<unsigned long long>(args.seed), args.seconds,
               args.trace ? 1 : 0);
  const char* dispatch =
      ghd::kernels::KernelDispatchName(ghd::kernels::SelectedDispatch());
  std::fprintf(f,
               " \"meta\": {\"build_type\": %s, \"ghd_obs\": %s, "
               "\"kernel_dispatch\": %s, \"nproc\": %u, "
               "\"engine_threads\": 1, \"clients\": 1, "
               "\"loop\": \"closed\", \"aslr\": %s},\n",
               JsonString(PERFBENCH_BUILD_TYPE).c_str(),
               JsonString(PERFBENCH_GHD_OBS).c_str(),
               JsonString(dispatch).c_str(),
               std::thread::hardware_concurrency(),
               AslrOff() ? "\"off\"" : "\"on\"");
  std::fprintf(f, " \"attempted\": %ld, \"failed\": %ld, \"failures\": [",
               result.attempted, result.failed);
  for (size_t i = 0; i < result.failures.size(); ++i) {
    std::fprintf(f, "%s%s", i > 0 ? ", " : "",
                 JsonString(result.failures[i]).c_str());
  }
  std::fprintf(f, "],\n \"metrics\": {");
  bool first = true;
  for (const auto& [name, m] : result.metrics) {
    std::fprintf(f,
                 "%s\n  %s: {\"value\": %.17g, \"unit\": %s, "
                 "\"samples\": %ld, \"beyond\": %ld}",
                 first ? "" : ",", JsonString(name).c_str(), m.value,
                 JsonString(m.unit).c_str(), m.samples, m.beyond);
    first = false;
  }
  std::fprintf(f, "}}\n");
  return std::fclose(f) == 0;
}

RunResult RunWorkload(const Args& args, Workload* w) {
  RunResult result;
  Metrics& m = result.metrics;
  Tracer off(false);
  std::vector<double> setup_s;
  const auto clear = [&] { w->Clear(); };
  const auto set_up = [&] { w->Setup(&off); };
  TimeSetups(args.trace ? 1 : kSetupReps, clear, set_up, &setup_s);
  const double rss_after_setup = CurrentRssMb();
  const double untraced_s = args.trace ? args.seconds / 2 : args.seconds;
  const PhaseStats plain = w->Run(&off, untraced_s, &result);
  result.attempted += plain.ops;
  const double plain_ops_per_s = plain.OpsPerS();
  // The workload's untraced extras (hw_exponent, delta_*) always come from
  // the untraced phase, in a traced run too.
  w->Report(off, plain, &m);
  if (!args.trace) {
    m["ops_per_s"] = {plain_ops_per_s, "1/s",
                      static_cast<long>(plain.best_ms.size()), 0};
    AddLatencies(&m, "ask", plain.BestMs(true));
    m["peak_rss_mb"] = {PeakRssMb(), "MB", 1, 0};
    TimeSetups(kSetupReps, clear, set_up, &setup_s);
    m["setup_s"] = {Median(setup_s), "s", static_cast<long>(setup_s.size()),
                    0};
    return result;
  }

  Tracer on(true);
  w->Clear();
  w->Setup(&on);
  const size_t setup_spans = on.spans().size();
  const PhaseStats traced = w->Run(&on, args.seconds / 2, &result);
  result.attempted += traced.ops;
  w->Report(on, traced, &m);
  const std::vector<SpanRecord> setup(on.spans().begin(),
                                      on.spans().begin() + setup_spans);
  const LayerTimes setup_layers(setup);
  AddLayerMs(&m, setup_layers, "hypergraph.parse");
  const long parses = setup_layers.Calls("hypergraph.parse");
  m["hypergraph.parse_calls"] = {static_cast<double>(parses), "count", 1, 0};
  m["hypergraph.rss_after_setup_mb"] = {rss_after_setup, "MB", 1, 0};
  const double traced_ops_per_s = traced.OpsPerS();
  m["trace.untraced_ops_per_s"] = {plain_ops_per_s, "1/s", plain.ops, 0};
  m["trace.traced_ops_per_s"] = {traced_ops_per_s, "1/s", traced.ops, 0};
  m["trace.overhead"] = {1 - traced_ops_per_s / plain_ops_per_s, "share",
                        traced.ops, 0};
  m["trace.coverage"] = {ChildCoverage(on.spans()), "share", traced.ops, 0};
  if (!on.WriteJsonl(args.spans_out)) {
    result.Fail("cannot write spans to " + args.spans_out);
  }
  return result;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  FixMemoryLayout(argv);
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload W --seed N --seconds S "
                 "--trace 0|1 --out FILE [--spans-out FILE]\n");
    return 2;
  }
  std::unique_ptr<Workload> w = MakeWorkload(args.workload, args.seed);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload: %s\n", args.workload.c_str());
    return 2;
  }
  const RunResult result = RunWorkload(args, w.get());
  if (!WriteRecord(args, result, args.out)) {
    std::fprintf(stderr, "cannot write %s\n", args.out.c_str());
    return 1;
  }
  return 0;
}
