// Lightweight span tracing with a per-thread in-memory ring buffer and a
// Chrome trace_event JSON exporter.
//
// Spans are RAII (obs::ScopedSpan via the GHD_SPAN_VAR macro): construction
// stamps the start, destruction pushes one complete ("ph":"X") event into the
// recording thread's ring. Rings are bounded — when full, the oldest events
// are overwritten, so long runs keep the *recent* history, flame-graph style.
// Each thread gets its own lane (Chrome "tid"), assigned on first use, so a
// batch running requests side by side renders as one swimlane per worker in
// chrome://tracing or Perfetto. Names, categories, and arg keys must be string literals: the
// tracer stores the pointers, never copies, and the hot path allocates
// nothing after the ring itself.
//
// Tracing is off by default; EnableTracing() arms it (the CLI does this for
// --trace-out). A ScopedSpan constructed while tracing is off is inert and
// stays inert even if tracing is enabled before it closes.
#ifndef GHD_OBS_TRACE_H_
#define GHD_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <ostream>
#include <string>

namespace ghd {
namespace obs {

/// One finished span, ready for export.
struct TraceEvent {
  const char* name = nullptr;
  const char* category = nullptr;
  int64_t start_us = 0;  // microseconds since the trace epoch
  int64_t duration_us = 0;
  int lane = 0;  // per-thread lane id (Chrome tid)
  const char* arg_keys[2] = {nullptr, nullptr};
  long arg_values[2] = {0, 0};
};

/// Arms tracing; the epoch (t = 0) is the moment of this call. Each thread's
/// ring holds up to `ring_capacity` spans (oldest overwritten). Re-enabling
/// clears previously recorded events.
void EnableTracing(size_t ring_capacity = 1 << 16);
void DisableTracing();
bool TracingEnabled();

/// Total spans currently retained across all rings (post-overwrite).
size_t TraceEventCount();

/// Writes the retained spans as Chrome trace_event JSON ("traceEvents" array
/// of complete events plus thread_name metadata, one lane per thread).
/// Loadable in chrome://tracing and Perfetto.
void WriteChromeTrace(std::ostream& out);
std::string TraceToJson();

namespace internal {
extern std::atomic<bool> g_tracing_enabled;
void RecordEvent(const TraceEvent& event);
int64_t NowMicros();
}  // namespace internal

/// RAII span; see the header comment for the literal-lifetime contract.
class ScopedSpan {
 public:
  ScopedSpan(const char* category, const char* name) {
    if (!internal::g_tracing_enabled.load(std::memory_order_relaxed)) return;
    active_ = true;
    event_.name = name;
    event_.category = category;
    event_.start_us = internal::NowMicros();
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Attaches up to two numeric args (emitted as {"key": value}); extra
  /// calls overwrite the second slot. `key` must be a string literal.
  void SetArg(const char* key, long value) {
    if (!active_) return;
    const int slot = num_args_ < 2 ? num_args_++ : 1;
    event_.arg_keys[slot] = key;
    event_.arg_values[slot] = value;
  }

  ~ScopedSpan() {
    if (!active_) return;
    // A span that outlives DisableTracing is dropped by RecordEvent.
    event_.duration_us = internal::NowMicros() - event_.start_us;
    internal::RecordEvent(event_);
  }

 private:
  bool active_ = false;
  int num_args_ = 0;
  TraceEvent event_;
};

}  // namespace obs
}  // namespace ghd

#endif  // GHD_OBS_TRACE_H_
