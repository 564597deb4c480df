// repeat_batch: a repeat-traffic stream of `hw <= 2` asks served through the
// decomposition cache (PrepareInstance -> CachedDecideHw, one DecompCache).
//
// The class catalogue holds small cyclic and acyclic families (grids 4x4 to
// 6x6, triangle strips, cycles of 64 to 256 vertices, adders, bridges and
// windows; every universe has at most 256 vertices). A pass asks every class
// once as new and re-asks classes four times as often, each ask a fresh
// seeded relabeling in a seeded order; a class's share of the re-asks is
// 1/rank under a fixed popularity ranking. Every pass starts from an empty
// cache, so the hit and miss mix is the same in every pass and run. Hits
// spend their time in reduction, canonicalization, lookup and rehydration;
// misses in the k-ladder. No lower bound runs here.
#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "cache/cached_solver.h"
#include "cache/decomp_cache.h"
#include "gen/circuits.h"
#include "gen/generators.h"
#include "htd/det_k_decomp.h"
#include "hypergraph/hg_io.h"

namespace perfbench {
namespace {

using ghd::Hypergraph;

constexpr int kAskWidth = 2;
constexpr int kReasksPerNew = 4;

struct Class {
  std::string name;
  Hypergraph graph;
};

std::vector<Class> Catalogue() {
  std::vector<Class> out;
  for (int r = 4; r <= 6; ++r) {
    for (int c = r; c <= 6; ++c) {
      out.push_back({"grid" + std::to_string(r) + "x" + std::to_string(c),
                     ghd::Grid2dHypergraph(r, c)});
    }
  }
  for (int k = 16; k <= 64; k += 4) {
    out.push_back(
        {"tristrip" + std::to_string(k), ghd::TriangleStripHypergraph(k)});
  }
  for (int n = 64; n <= 256; n += 8) {
    out.push_back({"cycle" + std::to_string(n), ghd::CycleHypergraph(n)});
  }
  for (int k = 4; k <= 16; ++k) {
    out.push_back({"adder" + std::to_string(k), ghd::AdderHypergraph(k)});
  }
  for (int k = 4; k <= 24; k += 2) {
    out.push_back({"bridge" + std::to_string(k), ghd::BridgeHypergraph(k)});
  }
  for (int n = 40; n <= 160; n += 20) {
    for (int arity = 3; arity <= 5; ++arity) {
      out.push_back({"window" + std::to_string(n) + "a" + std::to_string(arity),
                     ghd::WindowPathHypergraph(n, arity, 1)});
    }
  }
  return out;
}

struct Ask {
  int cls = 0;
  std::string text;
};

class RepeatBatch : public Workload {
 public:
  explicit RepeatBatch(uint64_t seed) : classes_(Catalogue()) {
    // Popularity is part of the workload, not of the seed: a fixed ranking,
    // and each class re-asked in proportion to 1/rank (largest remainder), so
    // every run asks the same multiset of classes. The seed orders the asks
    // and relabels each one.
    const int n = static_cast<int>(classes_.size());
    std::vector<int> rank(n);
    for (int c = 0; c < n; ++c) rank[c] = c + 1;
    SeedRng popularity(0x9091a417ull);
    popularity.Shuffle(&rank);
    double total_weight = 0;
    for (int c = 0; c < n; ++c) total_weight += 1.0 / rank[c];
    const int reasks = n * kReasksPerNew;
    std::vector<int> count(n);
    std::vector<std::pair<double, int>> remainder;
    int assigned = 0;
    for (int c = 0; c < n; ++c) {
      const double share = reasks * (1.0 / rank[c]) / total_weight;
      count[c] = 1 + static_cast<int>(share);  // the new ask plus the re-asks
      assigned += static_cast<int>(share);
      remainder.push_back({share - static_cast<int>(share), c});
    }
    std::sort(remainder.rbegin(), remainder.rend());
    for (int j = 0; assigned < reasks; ++j, ++assigned) {
      ++count[remainder[j].second];
    }

    SeedRng rng(seed ^ 0x7e9ea7ba7c4ull);
    std::vector<int> order;
    for (int c = 0; c < n; ++c) order.insert(order.end(), count[c], c);
    rng.Shuffle(&order);
    for (int cls : order) {
      asks_.push_back({cls, RelabeledHgText(classes_[cls].graph, &rng)});
    }
  }

  void Clear() override {
    graphs_.clear();
    cache_.reset();
  }

  void Setup(Tracer* tracer) override {
    graphs_.reserve(asks_.size());
    for (const Ask& a : asks_) {
      Span span(tracer, "hypergraph.parse", -1);
      graphs_.push_back(ghd::ParseHg(a.text).value());
    }
    cache_ = std::make_unique<ghd::DecompCache>();
  }

  PhaseStats Run(Tracer* tracer, double seconds, RunResult* result) override {
    PhaseStats phase;
    hits_ = edges_ = dropped_ = 0;
    bool first_pass = true;
    RunRounds(seconds, [&] {
      if (!first_pass) cache_ = std::make_unique<ghd::DecompCache>();
      first_pass = false;
      for (size_t a = 0; a < asks_.size(); ++a) {
        phase.Record(a, AskOnce(tracer, a, phase.ops, result));
      }
    });
    return phase;
  }

  void Report(const Tracer& tracer, const PhaseStats& phase,
              Metrics* out) override {
    if (!tracer.enabled()) return;
    const LayerTimes layers(tracer.spans());
    const double ops = static_cast<double>(phase.ops);
    for (const char* span : {"hypergraph.reduce", "hypergraph.canonical",
                             "cache.hit", "cache.miss"}) {
      AddLayerMs(out, layers, span);
    }
    (*out)["hypergraph.reduce_drop_share"] = {Ratio(dropped_, edges_), "share",
                                              phase.ops};
    const long canonical = layers.Calls("hypergraph.canonical");
    (*out)["hypergraph.canonical_calls"] = {canonical / ops, "1/op", canonical};
    (*out)["cache.hit_rate"] = {hits_ / ops, "share", phase.ops};
    (*out)["cache.bytes"] = {static_cast<double>(cache_->bytes()), "B", 1};
    (*out)["cache.entries"] = {static_cast<double>(cache_->size()), "count", 1};
  }

 private:
  double AskOnce(Tracer* tracer, size_t a, long ask_id, RunResult* result) {
    const Hypergraph& h = graphs_[a];
    ghd::CachedDecideResult r;
    ghd::InstanceKey key;
    const int64_t t0 = NowNs();
    if (tracer->enabled()) {
      // PrepareInstance's two steps, then the cached decide, one span each.
      Span op(tracer, "op.decide", ask_id);
      ghd::PreparedInstance p;
      p.original = h;
      {
        Span span(tracer, "hypergraph.reduce", ask_id);
        p.reduction = ghd::RemoveSubsumedEdgesMapped(p.original);
      }
      {
        Span span(tracer, "hypergraph.canonical", ask_id);
        p.canon = ghd::Canonicalize(p.reduction.reduced);
      }
      {
        Span span(tracer, "cache.miss", ask_id);
        r = ghd::CachedDecideHw(p, kAskWidth, cache_.get());
        if (r.from_cache) span.Rename("cache.hit");
      }
      key = p.key();
      edges_ += h.num_edges();
      dropped_ += h.num_edges() - p.reduction.reduced.num_edges();
    } else {
      const ghd::PreparedInstance p = ghd::PrepareInstance(h);
      r = ghd::CachedDecideHw(p, kAskWidth, cache_.get());
    }
    const double ms = MsSince(t0);
    if (r.from_cache) ++hits_;

    const int cls = asks_[a].cls;
    const std::string what = classes_[cls].name + " ask " + std::to_string(a);
    if (!r.decided) {
      result->Fail(what + ": undecided");
    } else if (r.exists != Reference(cls)) {
      result->Fail(what + ": wrong verdict");
    } else if (r.exists && !r.decomposition.Validate(h).ok()) {
      result->Fail(what + ": witness fails validation");
    } else if (tracer->enabled() && !(key == ghd::PrepareInstance(h).key())) {
      result->Fail(what + ": traced key differs from PrepareInstance");
    }
    return ms;
  }

  // hw(class) <= 2, by an uncached from-scratch HypertreeWidthAtMost on the
  // first concrete instance of the class the stream asked.
  bool Reference(int cls) {
    if (reference_.empty()) reference_.assign(classes_.size(), -1);
    if (reference_[cls] < 0) {
      for (size_t a = 0; a < asks_.size(); ++a) {
        if (asks_[a].cls != cls) continue;
        const ghd::KDeciderResult r =
            ghd::HypertreeWidthAtMost(graphs_[a], kAskWidth);
        reference_[cls] = r.decided && r.exists ? 1 : 0;
        break;
      }
    }
    return reference_[cls] == 1;
  }

  std::vector<Class> classes_;
  std::vector<Ask> asks_;
  std::vector<Hypergraph> graphs_;
  std::unique_ptr<ghd::DecompCache> cache_;
  std::vector<int> reference_;  // per class: -1 unknown, 0 no, 1 yes
  // Per phase.
  long hits_ = 0, edges_ = 0, dropped_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeRepeatBatch(uint64_t seed) {
  return std::make_unique<RepeatBatch>(seed);
}

}  // namespace perfbench
