// Shared plumbing of perfbench_driver: the benchmark's own seeded RNG and
// relabeling, nearest-rank statistics, the metric map, and the in-memory span
// tracer that the traced run wraps around calls into the ghd library.
//
// Spans are recorded from the benchmark's files only, around public entry
// points (ParseHg, GhwLowerBound, DecideWidthK, CachedDecideHw, ...); the
// library itself is not instrumented further. A span's self time is its
// duration minus the durations of its direct children.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "hypergraph/hypergraph.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double MsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e6;
}

/// splitmix64. The benchmark draws every input from its own generator, so
/// the inputs depend on --seed alone and not on the library's RNG.
class SeedRng {
 public:
  explicit SeedRng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, n); n > 0.
  uint64_t Below(uint64_t n) { return Next() % n; }
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (size_t i = v->size(); i > 1; --i) {
      std::swap((*v)[i - 1], (*v)[Below(i)]);
    }
  }

 private:
  uint64_t state_;
};

/// Renders h as .hg text under a seeded relabeling: vertex ids and edge order
/// are permuted and the names are replaced by v<i> / e<i> in the new order,
/// so the engine sees a fresh member of h's isomorphism class.
std::string RelabeledHgText(const ghd::Hypergraph& h, SeedRng* rng);

/// q-th percentile (0 < q <= 1) by nearest rank, as bench/suite Percentile;
/// 0 when empty.
double Percentile(std::vector<double> samples, double q);

/// Samples strictly above the q-th nearest-rank percentile.
long BeyondPercentile(const std::vector<double>& samples, double q);

/// Median of a non-empty sample.
double Median(std::vector<double> samples);

/// num / den, or 0 when den is 0.
inline double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

struct Metric {
  double value = 0;
  std::string unit;
  /// Sample count behind a timing, and how many samples lie beyond its
  /// percentile (0 for non-percentile figures).
  long samples = 0;
  long beyond = 0;
};
using Metrics = std::map<std::string, Metric>;

/// Sets <prefix>_p50_ms and <prefix>_tail_ms (p99 from 1000 samples up,
/// else p95) from latency samples in ms.
void AddLatencies(Metrics* out, const std::string& prefix,
                  const std::vector<double>& ms);

/// Peak and current resident set size of this process, in MB.
double PeakRssMb();
double CurrentRssMb();

struct SpanRecord {
  const char* name = nullptr;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;  // index into the span list, -1 for a root
  long ask = -1;    // operation id shared by every span of one operation
};

/// Records spans in memory while enabled; does nothing otherwise.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }
  int Begin(const char* name, long ask);
  void End(int id);
  void Rename(int id, const char* name) { spans_[id].name = name; }
  const std::vector<SpanRecord>& spans() const { return spans_; }
  /// One JSON object per line: name, start_ns, end_ns, parent, ask.
  bool WriteJsonl(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<SpanRecord> spans_;
  std::vector<int> open_;
};

/// RAII span; a no-op when the tracer is disabled.
class Span {
 public:
  Span(Tracer* tracer, const char* name, long ask)
      : tracer_(tracer),
        id_(tracer->enabled() ? tracer->Begin(name, ask) : -1) {}
  ~Span() {
    if (id_ >= 0) tracer_->End(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  /// Names the span after the fact, e.g. by the serving path a call took.
  void Rename(const char* name) {
    if (id_ >= 0) tracer_->Rename(id_, name);
  }

 private:
  Tracer* tracer_;
  int id_;
};

/// Self time and call count per span name.
class LayerTimes {
 public:
  explicit LayerTimes(const std::vector<SpanRecord>& spans);
  /// Mean self time per call in ms; 0 for a layer that never ran.
  double MsPerCall(const std::string& name) const;
  long Calls(const std::string& name) const;

 private:
  struct Totals {
    double self_ms = 0;
    long calls = 0;
  };
  std::map<std::string, Totals> totals_;
};

/// Sets <span>_ms to the layer's mean self time per call.
void AddLayerMs(Metrics* out, const LayerTimes& layers,
                const std::string& span);

/// Share of the operation spans' (root spans named "op.*") summed duration
/// covered by their direct children.
double ChildCoverage(const std::vector<SpanRecord>& spans);

struct RunResult {
  long attempted = 0;
  long failed = 0;
  /// First few failure descriptions, for the log.
  std::vector<std::string> failures;
  Metrics metrics;
  void Fail(const std::string& what);
};

/// Pins the calling thread to the CPU, of those the process could use when
/// this was first called, on which a short fixed probe runs fastest now. On a
/// shared host each CPU has its own neighbours: at one moment the same code
/// can run a quarter slower on one CPU than on another, and stay so for
/// seconds. Timing each pass on the quietest CPU measures the program rather
/// than whichever neighbour the scheduler put it beside.
void PinToQuietestCpu();

/// Times `reps` set-ups and appends their durations, in seconds, to `out`.
/// `setup` builds the workload's long-lived state and `clear` (untimed) drops
/// the previous repetition's, so two copies never coexist; the last
/// repetition's state is the one kept. Each set-up runs on the quietest CPU.
template <typename C, typename F>
void TimeSetups(int reps, C&& clear, F&& setup, std::vector<double>* out) {
  for (int i = 0; i < reps; ++i) {
    clear();
    PinToQuietestCpu();
    const int64_t t0 = NowNs();
    setup();
    out->push_back(MsSince(t0) / 1e3);
  }
}

/// Runs whole rounds while the next one is expected to end within `seconds`
/// of wall time, and at least one, each on the quietest CPU. Whole rounds
/// keep the mix of operations the same in every run.
template <typename F>
void RunRounds(double seconds, F&& round) {
  const int64_t start = NowNs();
  double last_s = 0;
  do {
    PinToQuietestCpu();
    const int64_t r0 = NowNs();
    round();
    last_s = MsSince(r0) / 1e3;
  } while (MsSince(start) / 1e3 + last_s <= seconds);
}

/// What one timed phase produced. A phase is made of passes, and each
/// operation has a slot that names it: an operation of a slot does the same
/// work on the same input and state in every pass that makes it. The phase
/// keeps every slot's fastest latency over the passes. Other tenants of a shared host slow the program down by up to a
/// fifth at moments of their choosing; a slot's fastest pass is its cost with
/// the least of that interference, so figures taken from the fastest passes
/// follow the program and much less the host.
struct PhaseStats {
  /// Operations made, over every pass.
  long ops = 0;
  /// Per slot: the fastest latency in ms (infinite until the slot runs), and
  /// whether the operation is an ask.
  std::vector<double> best_ms;
  std::vector<bool> is_ask;
  /// Counts one operation of `slot` that took `ms`.
  void Record(size_t slot, double ms, bool ask = true);
  /// Slots that ran, per second of their summed fastest latency: the client's
  /// throughput, without the result checks made between operations.
  double OpsPerS() const;
  /// Fastest latencies of the ask slots (`asks`) or of the other slots.
  std::vector<double> BestMs(bool asks) const;
};

/// One workload. The constructor makes the seeded inputs (untimed); the
/// program then times set-ups and runs phases, untraced and traced.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Drops the state a Setup built.
  virtual void Clear() = 0;
  /// Parses the inputs and builds the long-lived objects.
  virtual void Setup(Tracer* tracer) = 0;
  /// Runs operations for about `seconds` of wall time on the state of the
  /// last Setup, checking every result outside the operation's timer.
  virtual PhaseStats Run(Tracer* tracer, double seconds, RunResult* result) = 0;
  /// Adds the workload's own figures for the phase: its end-to-end extras
  /// when untraced, its per-layer figures from the spans when traced.
  virtual void Report(const Tracer& tracer, const PhaseStats& phase,
                      Metrics* out) = 0;
};

std::unique_ptr<Workload> MakeSparseScale(uint64_t seed);
std::unique_ptr<Workload> MakeRepeatBatch(uint64_t seed);
std::unique_ptr<Workload> MakeEditStream(uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
