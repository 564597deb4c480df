// Background sampler: one thread that, on every tick, takes one counter
// snapshot and one resident-memory read and feeds two sinks:
//
//  * the metrics ring — a bounded ring of timestamped counter deltas, turning
//    the monotonic totals of obs/counters.h into rate-of-change time-series
//    (memo inserts/sec, governor ticks/sec, kernel batches/sec) plus resident
//    memory read from /proc/self/statm. Always kept, at a fixed capacity of
//    kRingCapacity frames; once full, the oldest frame is overwritten and
//    `samples_dropped()` counts the loss — the same honesty contract as the
//    span rings (trace_spans_dropped).
//  * heartbeat lines — when a stream is given, one JSON line per tick
//    describing where the solver is *right now*: current phase and anytime
//    rung from the ProgressBoard, best certified [lb, ub], search frontier
//    depth, memo/interner occupancy, per-second rates over the tick's
//    counter deltas, and elapsed/budget fractions from the governor.
//
// Heartbeat line schema (stable keys, documented in docs/OBSERVABILITY.md):
//   {"type":"heartbeat","seq":N,"at_seconds":T,"phase":"...","rung":"...",
//    "lb":L,"ub":U,"k":K,"frontier_depth":D,"memo_states":M,
//    "interner_sets":I,"ticks":N,"ticks_per_sec":R,
//    "memo_inserts_per_sec":R,"kernel_batches_per_sec":R,
//    "resident_kb":N,"bytes_charged":N,"deadline_fraction":F,
//    "tick_fraction":F,"memory_fraction":F,"stop_reason":"...","final":B}
// Board slots never published this run render as -1; budget fractions render
// as -1 when that limit is unset.
//
// Termination contract: the thread polls Budget::Stopped() every tick, and
// the heartbeat stream always ends with exactly one line with "final":true
// and the definitive stop_reason — so an exit-3 run (deadline, tick budget,
// injected fault, SIGINT) ends with an honest last line instead of a
// truncated stream. Start() takes the first tick immediately, so even a run
// shorter than one interval produces both an opening (seq 0) and a final
// line; Stop() takes a last tick so the ring's final frame captures the
// end-of-run state.
//
// The hot path pays nothing for a running sampler beyond the relaxed loads it
// already does for the counters: sampling is pull-only (SnapshotCounters sums
// the shards from the sampler thread), engines never see the sampler. Each
// heartbeat line is built into one string and written with a single stream
// write, so concurrent stderr writers (ladder progress lines) cannot
// interleave mid-line.
//
// `SampleNow()` is public so tests can drive deterministic sampling without
// the thread.
#ifndef GHD_OBS_SAMPLER_H_
#define GHD_OBS_SAMPLER_H_

#include <array>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "obs/counters.h"

namespace ghd {

class Budget;

namespace obs {

/// One timestamped delta frame: what changed since the previous tick.
struct MetricsSample {
  double at_seconds = 0;        // seconds since sampler construction
  double interval_seconds = 0;  // actual wall gap to the previous tick
  long resident_kb = 0;         // VmRSS at sample time; 0 when unavailable
  std::array<long, kNumCounters> counter_deltas{};
  std::array<long, kNumGauges> gauges{};  // absolute peaks, not deltas

  long delta(Counter c) const {
    return counter_deltas[static_cast<int>(c)];
  }
  /// delta(c) / interval_seconds; 0 for a degenerate zero-length frame.
  double Rate(Counter c) const;
};

/// Namespace-scope (not nested) so the defaulted-argument constructor below
/// can brace-initialize it inside the class definition.
struct SamplerOptions {
  /// Cadence of the background thread.
  int interval_ms = 100;
  /// Heartbeat sink: one line per tick when set, no heartbeat when null.
  /// The stream must outlive the sampler and tolerate writes from the
  /// sampler thread.
  std::ostream* heartbeat_out = nullptr;
  /// Optional budget for the heartbeat's elapsed/remaining fractions and the
  /// stop_reason of its final line. Must outlive the sampler.
  const Budget* budget = nullptr;
};

class Sampler {
 public:
  using Options = SamplerOptions;

  /// Frames the metrics ring retains (oldest overwritten past this).
  static constexpr size_t kRingCapacity = 256;

  explicit Sampler(Options options = {});
  ~Sampler();  // stops the thread (and flushes the final line) if running

  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;

  /// Takes the seq-0 tick immediately and launches the thread. No-op if
  /// already running.
  void Start();
  /// Joins the thread and takes the last tick, whose heartbeat line is the
  /// final one (exactly once, even when the thread already emitted it after
  /// observing a stopped budget). No-op if not running.
  void Stop();

  /// Takes one tick immediately (callable with or without the thread;
  /// serialized against the background thread internally).
  void SampleNow();

  /// Ring contents, oldest first. Copies under the lock.
  std::vector<MetricsSample> Samples() const;

  size_t samples_taken() const;
  size_t samples_dropped() const;
  size_t lines_emitted() const;

  /// Serializes the ring as {"type":"metrics","interval_ms":..,
  /// "samples_taken":..,"samples_dropped":..,"samples":[{...},...]} with
  /// non-zero counter deltas keyed by CounterName. Input to tools/obs_top.py
  /// and the CLI's --metrics-out flag.
  std::string ToJson() const;

 private:
  void ThreadMain();
  /// One snapshot + RSS read, pushed into the ring and, while the heartbeat
  /// stream is open, written as a heartbeat line.
  void TickLocked(bool final_line);
  void EmitLineLocked(const MetricsSample& sample,
                      const CounterSnapshot& current, bool final_line);

  Options options_;
  std::chrono::steady_clock::time_point start_;
  std::chrono::steady_clock::time_point last_tick_;
  CounterSnapshot prev_;

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_requested_ = false;
  bool running_ = false;

  // Bounded ring guarded by mutex_.
  std::vector<MetricsSample> ring_;
  size_t ring_head_ = 0;  // index of the oldest sample once full
  size_t taken_ = 0;
  size_t dropped_ = 0;

  // Heartbeat stream state, guarded by mutex_.
  size_t seq_ = 0;
  bool final_emitted_ = false;

  // Declared last: the thread uses every member above.
  std::thread thread_;
};

}  // namespace obs
}  // namespace ghd

#endif  // GHD_OBS_SAMPLER_H_
