#include "obs/counters.h"

#include <bit>
#include <mutex>
#include <sstream>
#include <vector>

namespace ghd {
namespace obs {
namespace {

const char* const kCounterNames[kNumCounters] = {
    "bnb_nodes",
    "bnb_prune_finish_now",
    "bnb_prune_lower_bound",
    "bnb_prune_incumbent",
    "bnb_solutions",
    "tw_nodes",
    "tw_reductions",
    "decider_states",
    "decider_memo_hits",
    "decider_memo_misses",
    "decider_memo_inserts",
    "decider_memo_poisoned",
    "decider_lambda_tried",
    "decider_unproven_false",
    "detk_iterations",
    "hw_floor_refutations",
    "cover_cache_hits",
    "cover_cache_misses",
    "ub_restarts_pruned",
    "dp_cells",
    "subedges_generated",
    "guards_dominated",
    "closure_interner_hits",
    "lp_pivots",
    "csp_nodes",
    "governor_ticks",
    "governor_stops",
    "ladder_rungs",
    "ladder_improvements",
    "bitset_inline_sets",
    "bitset_heap_sets",
    "interner_hits",
    "interner_misses",
    "separator_neg_hits",
    "separator_neg_inserts",
    "flat_build_ns",
    "trace_spans_dropped",
    "canon_nodes",
    "canon_fallbacks",
    "canon_backjumps",
    "cache_hits",
    "cache_misses",
    "cache_inserts",
    "cache_evictions",
    "cache_load_rejected",
    "incr_deltas_applied",
    "incr_incremental_solves",
    "incr_full_solves",
    "incr_cache_served",
    "incr_fingerprint_served",
    "incr_memo_retained",
    "incr_memo_invalidated",
    "incr_neg_retained",
    "incr_neg_invalidated",
    "incr_sep_retained",
    "incr_sep_invalidated",
};

const char* const kGaugeNames[kNumGauges] = {
    "peak_bytes_charged",
    "max_guard_family",
    "cache_bytes",
};

const char* const kHistoNames[kNumHistos] = {
    "cover_size",
    "interned_set_words",
    "lambda_candidates",
    "closure_frontier_size",
};

// Registry of live shards plus the fold-in accumulator for exited threads.
// Registration and snapshotting are rare; the hot path never takes the lock.
struct Registry {
  std::mutex mu;
  std::vector<internal::CounterShard*> live;
  std::array<long, kNumCounters> retired_counters{};
  std::array<long, kNumGauges> retired_gauges{};
  std::array<std::array<long, kHistoBuckets>, kNumHistos> retired_histos{};
};

Registry& GetRegistry() {
  static Registry* registry = new Registry;  // leaked: outlives all threads
  return *registry;
}

void AccumulateShard(const internal::CounterShard& shard,
                     CounterSnapshot* out) {
  for (int i = 0; i < kNumCounters; ++i) {
    out->counters[i] += shard.counters[i].load(std::memory_order_relaxed);
  }
  for (int i = 0; i < kNumGauges; ++i) {
    const long v = shard.gauges[i].load(std::memory_order_relaxed);
    if (v > out->gauges[i]) out->gauges[i] = v;
  }
  for (int i = 0; i < kNumHistos; ++i) {
    for (int b = 0; b < kHistoBuckets; ++b) {
      out->histos[i][b] += shard.histos[i][b].load(std::memory_order_relaxed);
    }
  }
}

}  // namespace

namespace internal {

std::atomic<bool> g_counters_enabled{false};

CounterShard::CounterShard() {
  Registry& r = GetRegistry();
  std::lock_guard<std::mutex> lock(r.mu);
  r.live.push_back(this);
}

CounterShard::~CounterShard() {
  Registry& r = GetRegistry();
  std::lock_guard<std::mutex> lock(r.mu);
  for (int i = 0; i < kNumCounters; ++i) {
    r.retired_counters[i] += counters[i].load(std::memory_order_relaxed);
  }
  for (int i = 0; i < kNumGauges; ++i) {
    const long v = gauges[i].load(std::memory_order_relaxed);
    if (v > r.retired_gauges[i]) r.retired_gauges[i] = v;
  }
  for (int i = 0; i < kNumHistos; ++i) {
    for (int b = 0; b < kHistoBuckets; ++b) {
      r.retired_histos[i][b] += histos[i][b].load(std::memory_order_relaxed);
    }
  }
  for (size_t i = 0; i < r.live.size(); ++i) {
    if (r.live[i] == this) {
      r.live.erase(r.live.begin() + i);
      break;
    }
  }
}

int HistoBucket(long value) {
  if (value <= 0) return 0;
  const int bucket =
      std::bit_width(static_cast<unsigned long long>(value));  // >= 1
  return bucket < kHistoBuckets ? bucket : kHistoBuckets - 1;
}

}  // namespace internal

const char* CounterName(Counter c) {
  return kCounterNames[static_cast<int>(c)];
}

const char* GaugeName(Gauge g) { return kGaugeNames[static_cast<int>(g)]; }

const char* HistoName(Histo h) { return kHistoNames[static_cast<int>(h)]; }

void EnableCounters(bool on) {
  internal::g_counters_enabled.store(on, std::memory_order_relaxed);
}

bool CountersEnabled() {
  return internal::g_counters_enabled.load(std::memory_order_relaxed);
}

void ResetCounters() {
  Registry& r = GetRegistry();
  std::lock_guard<std::mutex> lock(r.mu);
  r.retired_counters.fill(0);
  r.retired_gauges.fill(0);
  for (auto& h : r.retired_histos) h.fill(0);
  for (internal::CounterShard* shard : r.live) {
    for (auto& c : shard->counters) c.store(0, std::memory_order_relaxed);
    for (auto& g : shard->gauges) g.store(0, std::memory_order_relaxed);
    for (auto& h : shard->histos) {
      for (auto& b : h) b.store(0, std::memory_order_relaxed);
    }
  }
}

CounterSnapshot SnapshotCounters() {
  CounterSnapshot snapshot;
  Registry& r = GetRegistry();
  std::lock_guard<std::mutex> lock(r.mu);
  snapshot.counters = r.retired_counters;
  snapshot.gauges = r.retired_gauges;
  snapshot.histos = r.retired_histos;
  for (const internal::CounterShard* shard : r.live) {
    AccumulateShard(*shard, &snapshot);
  }
  return snapshot;
}

bool CounterSnapshot::AnyNonZero() const {
  for (long v : counters) {
    if (v != 0) return true;
  }
  for (long v : gauges) {
    if (v != 0) return true;
  }
  for (const auto& h : histos) {
    for (long v : h) {
      if (v != 0) return true;
    }
  }
  return false;
}

bool CounterSnapshot::operator==(const CounterSnapshot& o) const {
  return counters == o.counters && gauges == o.gauges && histos == o.histos;
}

std::string CounterSnapshot::ToTable() const {
  std::ostringstream out;
  for (int i = 0; i < kNumCounters; ++i) {
    if (counters[i] == 0) continue;
    out << "  " << kCounterNames[i] << ": " << counters[i] << "\n";
  }
  for (int i = 0; i < kNumGauges; ++i) {
    if (gauges[i] == 0) continue;
    out << "  " << kGaugeNames[i] << ": " << gauges[i] << "\n";
  }
  for (int i = 0; i < kNumHistos; ++i) {
    long total = 0;
    for (long b : histos[i]) total += b;
    if (total == 0) continue;
    out << "  " << kHistoNames[i] << ":";
    // Buckets are [2^(b-1), 2^b); print "lo:count" pairs for non-empty ones.
    for (int b = 0; b < kHistoBuckets; ++b) {
      if (histos[i][b] == 0) continue;
      const long lo = b == 0 ? 0 : 1L << (b - 1);
      out << " " << lo << ":" << histos[i][b];
    }
    out << "\n";
  }
  std::string s = out.str();
  if (s.empty()) s = "  (all counters zero)\n";
  return s;
}

void CounterSnapshot::AppendJson(std::string* out) const {
  out->push_back('{');
  bool first = true;
  auto emit = [&](const char* name, long value) {
    if (!first) out->append(", ");
    first = false;
    out->push_back('"');
    out->append(name);
    out->append("\": ");
    out->append(std::to_string(value));
  };
  for (int i = 0; i < kNumCounters; ++i) {
    if (counters[i] != 0) emit(kCounterNames[i], counters[i]);
  }
  // decider_memo_poisoned is the library's memo-soundness invariant: emit it
  // even at zero so reports and tests can assert on its presence.
  if (counters[static_cast<int>(Counter::kDeciderMemoPoisoned)] == 0 &&
      counters[static_cast<int>(Counter::kDeciderStates)] != 0) {
    emit(kCounterNames[static_cast<int>(Counter::kDeciderMemoPoisoned)], 0);
  }
  for (int i = 0; i < kNumGauges; ++i) {
    if (gauges[i] != 0) emit(kGaugeNames[i], gauges[i]);
  }
  for (int i = 0; i < kNumHistos; ++i) {
    long total = 0;
    for (long b : histos[i]) total += b;
    if (total == 0) continue;
    if (!first) out->append(", ");
    first = false;
    out->append("\"histo_");
    out->append(kHistoNames[i]);
    out->append("\": [");
    int last = kHistoBuckets - 1;
    while (last > 0 && histos[i][last] == 0) --last;
    for (int b = 0; b <= last; ++b) {
      if (b > 0) out->append(", ");
      out->append(std::to_string(histos[i][b]));
    }
    out->push_back(']');
  }
  out->push_back('}');
}

}  // namespace obs
}  // namespace ghd
