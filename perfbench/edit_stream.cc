// edit_stream: mutation streams replayed through IncrementalSolver, the way
// `ghd_cli replay` serves them.
//
// Twenty ghdtrace-1 streams from GenerateTrace (80% single-edge rounds, the
// rest batched churn; k = 2, seeded), five over each of fixed relabelings of
// cycle-40, triangle strip-13, grid 5x5 and adder-8. The bases have 39 or 40
// edges, so the fingerprint memo, which hashes every edge, costs the same on
// every stream and the median ask does not sit between two streams' costs.
// How far a stream drifts from its base, and so what its asks cost, differs
// from trace to trace; many short streams average that out, where a few long
// ones let one seed's traces set a run's figures. One client interleaves the
// streams event by event; one DecompCache is attached to all the solvers. A pass replays every event of every stream from fresh
// solvers and an empty cache, and a run makes whole passes, so every run
// does the same events and the memos never outgrow one pass. An operation is
// an event: a write (ResolveDelta + Apply, i.e. ApplyEdgeDelta plus the
// Rebind sweep) or an ask (DecideHw, served by the version fingerprint memo,
// the warm ladder, the cache or a full bootstrap). This is the only workload
// that runs core/incremental.
#include <algorithm>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "cache/decomp_cache.h"
#include "core/incremental.h"
#include "core/k_decider.h"
#include "gen/circuits.h"
#include "gen/generators.h"
#include "gen/workload_trace.h"
#include "hypergraph/hg_io.h"

namespace perfbench {
namespace {

using ghd::Hypergraph;

// Streams per base and events per stream: 10000 events a pass, which takes
// about five seconds today.
constexpr int kStreamsPerBase = 5;
constexpr int kEventsPerStream = 500;

// The serving paths of IncrementalSolver::DecideHw.
enum Path { kFingerprint = 0, kWarm = 1, kCache = 2, kFull = 3, kNumPaths = 4 };
const char* const kPathSpan[] = {
    "core.incremental.decide.fingerprint", "core.incremental.decide.warm",
    "core.incremental.decide.cache", "core.incremental.decide.full"};
const char* const kPathName[] = {"fingerprint", "warm", "cache", "full"};

// Which path served the last DecideHw, from the solver's own totals.
Path ServedBy(const ghd::IncrementalStats& before,
              const ghd::IncrementalStats& after) {
  if (after.fingerprint_served > before.fingerprint_served) return kFingerprint;
  if (after.incremental_solves > before.incremental_solves) return kWarm;
  if (after.cache_served > before.cache_served) return kCache;
  return kFull;
}

// The edge multiset of a version, as text: equal iff the versions are equal
// up to edge order.
std::string VersionKey(const Hypergraph& h) {
  std::vector<std::string> edges;
  for (int e = 0; e < h.num_edges(); ++e) {
    std::string s;
    h.edge(e).ForEach([&](int v) { s += std::to_string(v) + ","; });
    edges.push_back(std::move(s));
  }
  std::sort(edges.begin(), edges.end());
  std::string key;
  for (const std::string& s : edges) key += s + ";";
  return key;
}

struct Decided {
  long event = -1;  // index into the stream's events; -1 = the bootstrap ask
  int k = 0;
  bool exists = false;
};

struct Stream {
  ghd::WorkloadTrace trace;
  std::unique_ptr<ghd::IncrementalSolver> solver;
  size_t next = 0;  // next event to replay
  std::vector<Decided> decided;        // this pass
  std::vector<Decided> first_decided;  // the phase's first pass
};

class EditStream : public Workload {
 public:
  explicit EditStream(uint64_t seed) {
    // The bases' relabeling is fixed: a bootstrap solve's cost depends on the
    // labeling, and the set-up should do the same work at every seed. The
    // seed drives GenerateTrace, which picks the rounds and the edges they hit.
    SeedRng relabel(0xed17ed17ed17ull);
    const Hypergraph bases[] = {
        ghd::CycleHypergraph(40), ghd::TriangleStripHypergraph(13),
        ghd::Grid2dHypergraph(5, 5), ghd::AdderHypergraph(8)};
    std::vector<Hypergraph> relabeled;
    for (const Hypergraph& base : bases) {
      relabeled.push_back(
          ghd::ParseHg(RelabeledHgText(base, &relabel)).value());
    }
    const size_t streams = kStreamsPerBase * std::size(bases);
    for (size_t i = 0; i < streams; ++i) {
      ghd::TraceGenOptions gen;
      gen.events = kEventsPerStream;
      gen.seed = seed * streams + i;
      gen.k = 2;
      gen.small_pct = 80;
      texts_.push_back(ghd::WriteTrace(
          ghd::GenerateTrace(relabeled[i % relabeled.size()], gen)));
    }
  }

  void Clear() override {
    streams_.clear();
    cache_.reset();
  }

  // Parse every trace, then build the solvers.
  void Setup(Tracer* tracer) override {
    for (const std::string& text : texts_) {
      Stream s;
      {
        Span span(tracer, "hypergraph.parse", -1);
        s.trace = ghd::ParseTrace(text).value();
      }
      streams_.push_back(std::move(s));
    }
    Restart();
  }

  PhaseStats Run(Tracer* tracer, double seconds, RunResult* result) override {
    PhaseStats phase;
    for (auto& c : path_calls_) c = 0;
    bool first_pass = true;
    RunRounds(seconds, [&] {
      if (!first_pass) Restart();
      size_t slot = 0;
      for (bool any = true; any;) {
        any = false;
        for (Stream& s : streams_) {
          if (s.next >= s.trace.events.size()) continue;
          any = true;
          const long event = static_cast<long>(s.next++);
          const ghd::TraceEvent& ev = s.trace.events[event];
          const bool write = ev.kind == ghd::TraceEvent::Kind::kDelta;
          const double ms =
              write ? Write(tracer, &s, ev, phase.ops, result)
                    : AskOnce(tracer, &s, ev, event, phase.ops, result);
          phase.Record(slot++, ms, !write);
        }
      }
      // Passes replay the same events on a deterministic solver, so every
      // later pass must repeat the first pass's verdicts.
      for (Stream& s : streams_) {
        if (first_pass) {
          s.first_decided = std::move(s.decided);
        } else {
          for (size_t d = 0; d < s.decided.size(); ++d) {
            if (d >= s.first_decided.size() ||
                s.decided[d].exists != s.first_decided[d].exists) {
              result->Fail("event " + std::to_string(s.decided[d].event) +
                           ": verdict differs from the first pass");
            }
          }
        }
      }
      first_pass = false;
    });
    CheckVerdicts(result);
    return phase;
  }

  void Report(const Tracer& tracer, const PhaseStats& phase,
              Metrics* out) override {
    if (!tracer.enabled()) {
      AddLatencies(out, "delta", phase.BestMs(false));
      return;
    }
    const LayerTimes layers(tracer.spans());
    const double ops = static_cast<double>(phase.ops);
    AddLayerMs(out, layers, "gen.trace.resolve");
    AddLayerMs(out, layers, "core.incremental.apply");
    const long applies = layers.Calls("core.incremental.apply");
    (*out)["core.incremental.apply_calls"] = {applies / ops, "1/op", applies};
    for (int p = 0; p < kNumPaths; ++p) {
      (*out)[std::string("core.incremental.decide_ms.") + kPathName[p]] = {
          layers.MsPerCall(kPathSpan[p]), "ms", path_calls_[p]};
      (*out)[std::string("core.incremental.decide_calls.") + kPathName[p]] = {
          path_calls_[p] / ops, "1/op", path_calls_[p]};
    }
    long retained = 0, invalidated = 0, drops = 0;
    for (const Stream& s : streams_) {
      retained += s.solver->stats().memo_retained;
      invalidated += s.solver->stats().memo_invalidated;
      drops += s.solver->stats().ladder_drops;
    }
    const long swept = retained + invalidated;
    (*out)["core.incremental.memo_retention"] = {Ratio(retained, swept),
                                                 "share", swept};
    (*out)["core.incremental.ladder_drops"] = {drops / ops, "1/op", drops};
  }

 private:
  // One solver per stream over one fresh cache, each warmed by its stream's
  // base-version bootstrap ask.
  void Restart() {
    cache_ = std::make_unique<ghd::DecompCache>();
    for (Stream& s : streams_) {
      ghd::IncrementalOptions opts;
      opts.cache = cache_.get();
      opts.num_threads = 1;
      s.solver = std::make_unique<ghd::IncrementalSolver>(s.trace.base, opts);
      const ghd::IncrementalDecideResult r =
          s.solver->DecideHw(s.trace.default_k);
      s.next = 0;
      s.decided = {{-1, s.trace.default_k, r.decided && r.exists}};
    }
  }

  double Write(Tracer* tracer, Stream* s, const ghd::TraceEvent& ev, long op_id,
               RunResult* result) {
    ghd::Status status;
    const int64_t t0 = NowNs();
    {
      Span op(tracer, "op.delta", op_id);
      ghd::EdgeDelta delta;
      {
        Span span(tracer, "gen.trace.resolve", op_id);
        status = ghd::ResolveDelta(s->solver->current(), ev, &delta);
      }
      if (status.ok()) {
        Span span(tracer, "core.incremental.apply", op_id);
        s->solver->Apply(delta);
      }
    }
    const double ms = MsSince(t0);
    if (!status.ok()) result->Fail("delta: " + status.ToString());
    return ms;
  }

  double AskOnce(Tracer* tracer, Stream* s, const ghd::TraceEvent& ev,
                 long event, long op_id, RunResult* result) {
    const int k = ev.k > 0 ? ev.k : s->trace.default_k;
    const ghd::IncrementalStats before = s->solver->stats();
    ghd::IncrementalDecideResult r;
    const int64_t t0 = NowNs();
    {
      Span op(tracer, "op.decide", op_id);
      Span span(tracer, kPathSpan[kFull], op_id);
      r = s->solver->DecideHw(k);
      if (tracer->enabled()) {
        span.Rename(kPathSpan[ServedBy(before, s->solver->stats())]);
      }
    }
    const double ms = MsSince(t0);
    ++path_calls_[ServedBy(before, s->solver->stats())];
    if (!r.decided) {
      result->Fail("decide at event " + std::to_string(event) + ": undecided");
    } else {
      s->decided.push_back({event, k, r.exists});
    }
    return ms;
  }

  // Replays each stream's writes from its base and checks every verdict of
  // the first pass against a from-scratch DecideWidthK, once per distinct
  // version.
  void CheckVerdicts(RunResult* result) {
    truth_.resize(streams_.size());
    for (size_t si = 0; si < streams_.size(); ++si) {
      Stream& s = streams_[si];
      auto& truth = truth_[si];
      Hypergraph current = s.trace.base;
      size_t d = 0;
      auto check = [&](const Decided& got) {
        auto [it, fresh] =
            truth.try_emplace({VersionKey(current), got.k}, false);
        if (fresh) {
          const ghd::KDeciderResult r = ghd::DecideWidthK(
              current, ghd::OriginalEdgesFamily(current), got.k);
          it->second = r.decided && r.exists;
        }
        if (it->second != got.exists) {
          result->Fail("event " + std::to_string(got.event) +
                       ": verdict differs from scratch");
        }
      };
      const std::vector<Decided>& decided = s.first_decided;
      while (d < decided.size() && decided[d].event < 0) check(decided[d++]);
      for (size_t e = 0; e < s.trace.events.size() && d < decided.size(); ++e) {
        const ghd::TraceEvent& ev = s.trace.events[e];
        if (ev.kind == ghd::TraceEvent::Kind::kDelta) {
          ghd::EdgeDelta delta;
          if (!ghd::ResolveDelta(current, ev, &delta).ok()) break;
          current = ghd::ApplyEdgeDelta(current, delta).next;
        } else if (decided[d].event == static_cast<long>(e)) {
          check(decided[d++]);
        }
      }
    }
  }

  std::vector<std::string> texts_;
  std::unique_ptr<ghd::DecompCache> cache_;
  std::vector<Stream> streams_;
  // Per stream: (version, k) -> hw(version) <= k, by the from-scratch check.
  std::vector<std::map<std::pair<std::string, int>, bool>> truth_;
  // Per phase.
  long path_calls_[kNumPaths] = {0, 0, 0, 0};
};

}  // namespace

std::unique_ptr<Workload> MakeEditStream(uint64_t seed) {
  return std::make_unique<EditStream>(seed);
}

}  // namespace perfbench
