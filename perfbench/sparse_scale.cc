// sparse_scale: cold one-shot asks on large sparse instances of known width.
//
// Six families, each at a ladder of four sizes: path and window (alpha-
// acyclic, ghw = hw = 1), cycle, triangle strip, adder and bridge
// (ghw = hw = 2). Every instance gets three asks per round: `hw`
// (HypertreeWidth), `anytime` (AnytimeGhw) and `stats` (ComputeStats +
// IsAlphaAcyclic). Each instance has kRelabelings seeded relabelings; a
// round asks all three kinds on one relabeling of every instance (72 asks)
// in a seeded order, and successive rounds take the relabelings in turn. No
// ask touches canonicalization, the decomposition cache or the incremental
// solver; the time goes to the lower bound, the k-ladder,
// the anytime rungs and the GYO / statistics passes, which are super-linear
// on these inputs today.
#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "core/anytime.h"
#include "core/ghw_lower.h"
#include "core/k_decider.h"
#include "gen/circuits.h"
#include "gen/generators.h"
#include "htd/det_k_decomp.h"
#include "hypergraph/acyclicity.h"
#include "hypergraph/hg_io.h"
#include "hypergraph/stats.h"

namespace perfbench {
namespace {

using ghd::Hypergraph;

struct Family {
  const char* name;
  int width;  // ghw = hw
  std::function<Hypergraph(int)> make;  // about `edges` edges
};

const std::vector<Family>& Families() {
  static const std::vector<Family> families = {
      {"path", 1, [](int m) { return ghd::WindowPathHypergraph(m + 1, 2, 1); }},
      {"window", 1,
       [](int m) { return ghd::WindowPathHypergraph(m + 3, 4, 1); }},
      {"cycle", 2, [](int m) { return ghd::CycleHypergraph(m); }},
      {"tristrip", 2,
       [](int m) { return ghd::TriangleStripHypergraph(m / 3); }},
      {"adder", 2, [](int m) { return ghd::AdderHypergraph(m / 5); }},
      {"bridge", 2, [](int m) { return ghd::BridgeHypergraph(m / 5); }},
  };
  return families;
}

// Geometric ladder (ratio about 1.41). The three asks on all 24 instances
// take two to three seconds today; at 500 edges and more they take over ten.
constexpr int kSizes[] = {125, 177, 250, 354};
constexpr int kNumSizes = 4;

// Anytime asks run under a tick budget. Without one the exact branch-and-bound
// rung does not finish on relabeled cycles (the heuristics stop at [2, 3]),
// and a deadline overshoots by seconds on these sizes; a tick budget bounds
// the rung by work, so the answer and its cost do not depend on the clock.
// The interval it certifies need not be exact.
constexpr long kAnytimeTicks = 10;

// Relabelings per instance. How fast the heuristics close an interval, and
// so an ask's cost, depends on the labeling; taking them in turn keeps one
// unlucky relabeling from setting a run's figures, and short whole rounds
// keep the mix of instances the same in every run.
constexpr int kRelabelings = 6;

enum Kind { kHw = 0, kAnytime = 1, kStats = 2 };
const char* const kKindSpan[] = {"op.hw", "op.anytime", "op.stats"};

struct Instance {
  int family = 0;
  std::vector<std::string> texts;  // one per relabeling
};

class SparseScale : public Workload {
 public:
  explicit SparseScale(uint64_t seed) : rng_(seed) {
    SeedRng relabel(seed ^ 0x5ca1e5ca1eull);
    for (int f = 0; f < static_cast<int>(Families().size()); ++f) {
      for (int s = 0; s < kNumSizes; ++s) {
        const Hypergraph h = Families()[f].make(kSizes[s]);
        Instance in{f, {}};
        for (int r = 0; r < kRelabelings; ++r) {
          in.texts.push_back(RelabeledHgText(h, &relabel));
        }
        instances_.push_back(std::move(in));
      }
    }
  }

  void Clear() override { graphs_.clear(); }

  void Setup(Tracer* tracer) override {
    for (const Instance& in : instances_) {
      for (const std::string& text : in.texts) {
        Span span(tracer, "hypergraph.parse", -1);
        graphs_.push_back(ghd::ParseHg(text).value());
      }
    }
  }

  PhaseStats Run(Tracer* tracer, double seconds, RunResult* result) override {
    PhaseStats phase;
    hw_ms_.assign(instances_.size(), {});
    trails_.clear();
    lb_calls_ = lb_useful_ = rungs_ = refuted_ = states_ = 0;
    anytime_asks_ = anytime_exact_ = 0;
    checked_against_hw_.assign(graphs_.size(), false);
    int round = 0;
    RunRounds(seconds, [&] {
      // Round r asks every instance on relabeling r mod kRelabelings.
      std::vector<std::pair<int, int>> asks;  // (graph, kind)
      for (int i = 0; i < static_cast<int>(instances_.size()); ++i) {
        const int g = i * kRelabelings + round % kRelabelings;
        for (int k = 0; k < 3; ++k) asks.push_back({g, k});
      }
      ++round;
      rng_.Shuffle(&asks);
      for (const auto& [g, kind] : asks) {
        const double ms = Ask(tracer, g, kind, phase.ops, result);
        phase.Record(g * 3 + kind, ms);
        if (kind == kHw) hw_ms_[g / kRelabelings].push_back(ms);
      }
    });
    return phase;
  }

  void Report(const Tracer& tracer, const PhaseStats& phase,
              Metrics* out) override {
    if (!tracer.enabled()) {
      ReportExponent(out);
      return;
    }

    const LayerTimes layers(tracer.spans());
    const double ops = static_cast<double>(phase.ops);
    for (const char* span :
         {"hypergraph.stats", "hypergraph.acyclicity", "core.lower_bound",
          "core.ladder_setup", "core.k_decider", "core.anytime"}) {
      AddLayerMs(out, layers, span);
    }
    (*out)["core.lower_bound_useful_share"] = {Ratio(lb_useful_, lb_calls_),
                                               "share", lb_calls_};
    (*out)["core.k_decider_calls"] = {rungs_ / ops, "1/op", rungs_};
    (*out)["core.k_decider_states"] = {Ratio(states_, rungs_), "1/call",
                                       rungs_};
    (*out)["core.k_decider_refuted_share"] = {Ratio(refuted_, rungs_), "share",
                                              rungs_};
    const long anytime_calls = layers.Calls("core.anytime");
    // Rung times come from the public trail; "closed-by-heuristics" and
    // "trivial" are markers, not rungs.
    static const char* const kRungs[] = {"lower-bound", "greedy-cover",
                                         "multi-restart", "subset-dp",
                                         "exact-bnb", "det-k-decomp"};
    double after_close_s = 0;
    std::map<std::string, double> rung_s;
    for (const auto& trail : trails_) {
      for (size_t j = 0; j < trail.size(); ++j) {
        rung_s[trail[j].engine] += trail[j].rung_seconds;
        if (j > 0 && trail[j - 1].lower_bound == trail[j - 1].upper_bound) {
          after_close_s += trail[j].rung_seconds;
        }
      }
    }
    for (const char* rung : kRungs) {
      (*out)[std::string("core.anytime.") + rung + "_ms"] = {
          Ratio(rung_s[rung] * 1e3, anytime_calls), "ms", anytime_calls};
    }
    (*out)["core.anytime.after_close_ms"] = {
        Ratio(after_close_s * 1e3, anytime_calls), "ms", anytime_calls};
    (*out)["core.anytime.exact_share"] = {Ratio(anytime_exact_, anytime_asks_),
                                          "share", anytime_asks_};
  }

 private:
  // Log-log slope of hw ask time against edge count per family, on the
  // per-size medians; the median over families.
  void ReportExponent(Metrics* out) const {
    std::vector<double> slopes;
    for (int f = 0; f < static_cast<int>(Families().size()); ++f) {
      double sx = 0, sy = 0, sxx = 0, sxy = 0;
      int n = 0;
      for (size_t i = 0; i < instances_.size(); ++i) {
        if (instances_[i].family != f || hw_ms_[i].empty()) continue;
        const double x = std::log(graphs_[i * kRelabelings].num_edges());
        const double y = std::log(Median(hw_ms_[i]));
        sx += x, sy += y, sxx += x * x, sxy += x * y, ++n;
      }
      if (n >= 2) slopes.push_back((n * sxy - sx * sy) / (n * sxx - sx * sx));
    }
    long hw_asks = 0;
    for (const auto& v : hw_ms_) hw_asks += static_cast<long>(v.size());
    (*out)["hw_exponent"] = {Median(slopes), "1", hw_asks, 0};
  }

  // Times one ask on graphs_[g], then checks its answer against the family's
  // known width (and, traced, against HypertreeWidth) outside the timer.
  double Ask(Tracer* tracer, int g, int kind, long ask_id, RunResult* result) {
    const Hypergraph& h = graphs_[g];
    const Family& fam = Families()[instances_[g / kRelabelings].family];
    const std::string what = std::string(fam.name) + "-" +
                             std::to_string(h.num_edges()) + " " +
                             kKindSpan[kind];
    const int64_t t0 = NowNs();
    if (kind == kHw) {
      int width = 0;
      bool exact = false;
      ghd::GeneralizedHypertreeDecomposition witness;
      if (tracer->enabled()) {
        exact = TracedHypertreeWidth(tracer, h, ask_id, &width, &witness);
      } else {
        ghd::HypertreeWidthResult r = ghd::HypertreeWidth(h);
        exact = r.exact, width = r.width, witness = std::move(r.decomposition);
      }
      const double ms = MsSince(t0);
      if (!exact || width != fam.width || !witness.Validate(h).ok() ||
          witness.Width() > width) {
        result->Fail(what + ": width " + std::to_string(width));
      } else if (tracer->enabled() && !checked_against_hw_[g]) {
        checked_against_hw_[g] = true;
        if (ghd::HypertreeWidth(h).width != width) {
          result->Fail(what + ": traced chain disagrees with HypertreeWidth");
        }
      }
      return ms;
    }
    if (kind == kAnytime) {
      ghd::AnytimeGhwResult r;
      {
        Span op(tracer, kKindSpan[kind], ask_id);
        Span span(tracer, "core.anytime", ask_id);
        ghd::AnytimeOptions options;
        options.tick_budget = kAnytimeTicks;
        r = ghd::AnytimeGhw(h, options);
      }
      const double ms = MsSince(t0);
      ++anytime_asks_;
      if (r.exact) ++anytime_exact_;
      if (r.lower_bound > fam.width || r.upper_bound < fam.width ||
          !r.witness.Validate(h).ok() || r.witness.Width() > r.upper_bound) {
        result->Fail(what + ": interval [" + std::to_string(r.lower_bound) +
                     "," + std::to_string(r.upper_bound) + "]");
      }
      if (tracer->enabled()) trails_.push_back(std::move(r.trail));
      return ms;
    }
    ghd::HypergraphStats stats;
    bool acyclic = false;
    {
      Span op(tracer, kKindSpan[kind], ask_id);
      {
        Span span(tracer, "hypergraph.stats", ask_id);
        stats = ghd::ComputeStats(h);
      }
      Span span(tracer, "hypergraph.acyclicity", ask_id);
      acyclic = ghd::IsAlphaAcyclic(h);
    }
    const double ms = MsSince(t0);
    if (acyclic != (fam.width == 1) || stats.num_edges != h.num_edges() ||
        stats.num_vertices != h.num_vertices()) {
      result->Fail(what + ": wrong stats or acyclicity");
    }
    return ms;
  }

  // The chain HypertreeWidth runs, one span per public call: the lower bound
  // picks the first rung, one KLadderContext serves every rung.
  bool TracedHypertreeWidth(Tracer* tracer, const Hypergraph& h, long ask_id,
                            int* width,
                            ghd::GeneralizedHypertreeDecomposition* witness) {
    Span op(tracer, kKindSpan[kHw], ask_id);
    int start = 1;
    {
      Span span(tracer, "core.lower_bound", ask_id);
      start = std::max(1, ghd::GhwLowerBound(h));
    }
    ++lb_calls_;
    if (start > 1) ++lb_useful_;
    std::unique_ptr<ghd::GuardFamily> family;
    std::unique_ptr<ghd::KLadderContext> ladder;
    {
      Span span(tracer, "core.ladder_setup", ask_id);
      family = std::make_unique<ghd::GuardFamily>(ghd::OriginalEdgesFamily(h));
      ladder = std::make_unique<ghd::KLadderContext>(h, *family, 1);
    }
    for (int k = start; k <= h.num_edges(); ++k) {
      ghd::KDeciderResult r;
      {
        Span span(tracer, "core.k_decider", ask_id);
        r = ghd::DecideWidthK(h, *family, k, {}, ladder.get());
      }
      ++rungs_;
      states_ += r.states_visited;
      if (!r.decided) return false;
      if (r.exists) {
        *width = k;
        *witness = std::move(r.decomposition);
        return true;
      }
      ++refuted_;
    }
    return false;
  }

  SeedRng rng_;
  std::vector<Instance> instances_;
  std::vector<Hypergraph> graphs_;
  // Per phase.
  std::vector<std::vector<double>> hw_ms_;  // hw ask latencies per instance
  std::vector<std::vector<ghd::AnytimeStep>> trails_;
  std::vector<bool> checked_against_hw_;
  long lb_calls_ = 0, lb_useful_ = 0, rungs_ = 0, refuted_ = 0, states_ = 0;
  long anytime_asks_ = 0, anytime_exact_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeSparseScale(uint64_t seed) {
  return std::make_unique<SparseScale>(seed);
}

}  // namespace perfbench
