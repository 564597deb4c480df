#include "core/k_decider.h"

#include <algorithm>
#include <map>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/cover_index.h"
#include "hypergraph/flat_hypergraph.h"
#include "obs/obs.h"
#include "util/check.h"
#include "util/hash_mix.h"
#include "util/set_interner.h"

namespace ghd {
namespace internal {

// A search state: a set of still-uncovered edges forming one connected block,
// plus the connector vertices shared with the already-built part of the tree.
// Both sets live in the search's interner; the key holds only their ids, so
// memo probes hash and compare two integers instead of two bitsets. The ids
// are borrowed names: the memos and the interner live and die together — in
// the per-call Decider below, or in the LadderState when a KLadderContext
// spans several calls (ids must never outlive the interner that issued them).
struct StateKey {
  uint32_t comp_id;  // interned edge set (universe = num_edges)
  uint32_t conn_id;  // interned vertex set (universe = num_vertices)

  bool operator==(const StateKey& o) const {
    return comp_id == o.comp_id && conn_id == o.conn_id;
  }
};

// splitmix64 over the packed ids. The non-interned fallback for hashing a
// (comp, conn) pair of raw bitsets is HashCombine(comp.Hash(), conn.Hash())
// (util/hash_mix.h) — the old `h1 * 1000003 + h2` combiner left h2's low
// bits nearly intact, which striped the bucket arrays.
struct StateKeyHash {
  size_t operator()(const StateKey& k) const {
    return static_cast<size_t>(SplitMix64(PackIds(k.comp_id, k.conn_id)));
  }
};

// Memoized decision for a *decomposable* state: the bag, guard choice, and
// child states needed for decomposition reconstruction. Values are immutable
// once inserted. Children are interned ids — 8 bytes per child instead of
// two bitsets. Undecomposable states are remembered key-only in a separate
// negative set: they carry no payload, and unlike positives they must not
// outlive the width they were refuted at.
struct StateValue {
  VertexSet chi;
  std::vector<int> lambda;  // guard indices into the family
  std::vector<StateKey> children;
};

using PositiveMemo = std::unordered_map<StateKey, StateValue, StateKeyHash>;
using NegativeMemo = std::unordered_set<StateKey, StateKeyHash>;

// Negative search state persisted across same-k calls when a KLadderContext
// arms PersistNegatives: the key-only refutation memo plus the
// negative-separator cache. Refutations are k-specific, so a context keeps
// one store per exact k and a call only ever touches its own k's store —
// the segregation that keeps cross-k poisoning structurally impossible.
struct NegativeStore {
  NegativeMemo memo;
  NegSeparatorCache cache;
};

// The cross-call share of a k-ladder (see KLadderContext in the header): the
// interner that issues every state id, the cover-candidate index, and the
// monotone positive memo. Built once per (h, family), reused by every rung;
// building the index checks the family (each guard inside its parent edge).
// Rebind (incremental re-decomposition) re-points h/flat/family at the next
// version and rebuilds the index; the interner is append-only, so ids issued
// for the old edge universe simply linger as unreferenced garbage.
struct LadderState {
  LadderState(const Hypergraph& h_in, const GuardFamily& family_in)
      : h(&h_in),
        flat(&h_in.Flat()),
        family(&family_in),
        index(std::make_unique<CoverIndex>(h_in, family_in)) {}

  const Hypergraph* h;
  const FlatHypergraph* flat;  // h's CSR view, shared by rungs
  const GuardFamily* family;
  SetInterner interner;
  std::unique_ptr<CoverIndex> index;  // rebuilt on Rebind
  PositiveMemo positive;
  int max_k = 0;  // largest k decided so far; enforces nondecreasing rungs
  // Per-exact-k negative stores; empty (and unused) until PersistNegatives.
  bool persist_negatives = false;
  std::map<int, std::unique_ptr<NegativeStore>> negatives;
};

}  // namespace internal

namespace {

using internal::LadderState;
using internal::NegativeMemo;
using internal::NegativeStore;
using internal::PositiveMemo;
using internal::StateKey;
using internal::StateValue;

// One state's connector bookkeeping for the λ-enumeration, over the
// connector's own members: bit j stands for the j-th vertex of conn. Row i
// is prefix candidate i ∩ conn, and suffix row i the union of rows i, i+1,
// ... to the end of the prefix (the last suffix row is empty). Tail
// candidates miss the connector, so their rows would be empty: Suffix(i) at
// or past the end of the prefix is that empty row. A branch only asks which
// connector vertices no chosen guard covers yet, and that set is always
// inside conn, so rows of a few words give the same answers as n-bit rows
// would: O(|prefix| * |conn| / 64) words per state.
struct ConnRows {
  void Build(const VertexSet& conn, const CandidateCursor& candidates,
             const GuardFamily& family) {
    members = conn.Count();
    words = (members + 63) / 64;
    count = candidates.prefix_size();
    data.assign((2 * count + 1) * words, 0);
    for (size_t i = 0; i < count; ++i) {
      const VertexSet& guard = family.guards[candidates[i]];
      uint64_t* row = data.data() + i * words;
      int j = 0;
      conn.ForEach([&](int v) {
        if (guard.Test(v)) row[j >> 6] |= uint64_t{1} << (j & 63);
        ++j;
      });
    }
    for (size_t i = count; i-- > 0;) {
      const uint64_t* next = Suffix(i + 1);
      const uint64_t* guard = data.data() + i * words;
      uint64_t* row = data.data() + (count + i) * words;
      for (int w = 0; w < words; ++w) row[w] = next[w] | guard[w];
    }
  }

  // Guard row i (i < count) over the members.
  const uint64_t* Guard(size_t i) const { return data.data() + i * words; }
  const uint64_t* Suffix(size_t i) const {
    return data.data() + (count + std::min(i, count)) * words;
  }
  // Whether suffix row i covers `left` (a set over the members).
  bool SuffixCovers(size_t i, const VertexSet& left) const {
    const uint64_t* a = left.word_data();
    const uint64_t* b = Suffix(i);
    for (int w = 0; w < words; ++w) {
      if ((a[w] & ~b[w]) != 0) return false;
    }
    return true;
  }

  int members = 0;
  int words = 0;
  size_t count = 0;            // prefix candidates
  std::vector<uint64_t> data;  // count guard rows, then count + 1 suffix rows
};

// One depth of a state's λ-enumeration: the candidate position to try next,
// and the connector members the guards chosen above it leave uncovered.
struct Level {
  size_t next = 0;
  VertexSet left;
};

// One (component, connector) state under decision, on the decider's explicit
// stack. `lambda` is the guard choice being built, levels[d] the enumeration
// at its d-th slot. While a connector-covering choice is evaluated, chi and
// children hold its separator and child states, and children[child] is the
// one being decided.
struct Frame {
  enum class Phase {
    kEnter,  // entering the enumeration at depth lambda.size()
    kLoop,   // trying the next candidate at depth lambda.size()
    kChild,  // children[child] has been decided; its verdict is child_ok
  };

  StateKey key;
  const VertexSet* comp = nullptr;  // interned, stable
  const VertexSet* conn = nullptr;
  VertexSet v_comp;
  CandidateCursor candidates;
  ConnRows rows;
  std::vector<int> lambda;
  std::vector<Level> levels;  // k + 1
  Phase phase = Phase::kEnter;
  VertexSet chi;
  uint64_t neg_key = 0;
  std::vector<StateKey> children;
  size_t child = 0;
  bool child_ok = false;
};

// A child block of a split: its edges and its connector V(part) ∩ chi.
struct Part {
  VertexSet edges;
  VertexSet conn;
};

// Clears `s` in place, or makes it an empty set over `universe`.
void ResetSet(VertexSet* s, int universe) {
  if (s->universe_size() == universe) {
    s->Clear();
  } else {
    *s = VertexSet(universe);
  }
}

// The search of one DecideWidthK call. Decide → enumerate λ → evaluate λ →
// decide the children is the recursion of det-k-decomp; it runs here as a
// loop over a heap-allocated stack of Frames, so its depth (about m/2 states
// on a cycle) is bounded by memory, not by the thread's stack. Every tick,
// memo probe, interning and budget check happens in the order the recursive
// form would make it.
//
// The state invariant: every edge outside a state's component meets V(comp)
// only inside the state's connector. Roots have it (their components share
// no vertex with other edges), and each child built by TryLambda keeps it
// (DESIGN.md). It makes the candidate tail a filter of the index's static
// order, and keeps the splits below inside the component.
struct Decider {
  enum class Step { kTrue, kFalse, kChild };

  const Hypergraph* h;
  const FlatHypergraph* flat;
  const GuardFamily* family;
  const CoverIndex* index;
  int k;
  ghd::Budget* budget = nullptr;  // shared governor, never null once running

  long states = 0;
  // The interner owns every component/connector/separator set of the search;
  // both memos and the negative-separator cache key by its ids. Interner and
  // positive memo live in the LadderState (per-call or shared across a
  // k-ladder — they are torn down together, which is what makes the borrowed
  // ids safe). The negative memo and the separator cache default to per-call
  // scratch instances, since a refutation at width k says nothing at width
  // k+1; a context with PersistNegatives armed points them at the
  // LadderState's store for this exact k instead.
  SetInterner* interner = nullptr;
  PositiveMemo* pos_memo = nullptr;
  NegativeMemo* neg_memo = nullptr;
  NegSeparatorCache* neg_cache = nullptr;

  // The state stack: frames_[0, depth_) are live; frames past depth_ are
  // kept for reuse, with their buffers.
  std::vector<std::unique_ptr<Frame>> frames_;
  size_t depth_ = 0;

  // Split scratch: epoch-stamped edge and vertex marks, the BFS stack and
  // the parts of the latest split.
  std::vector<uint32_t> edge_mark_;
  std::vector<uint32_t> vertex_mark_;
  uint32_t epoch_ = 0;
  std::vector<int> stack_;
  std::vector<Part> parts_;

  void Init() {
    edge_mark_.assign(h->num_edges(), 0);
    vertex_mark_.assign(h->num_vertices(), 0);
  }

  uint32_t NextEpoch() {
    if (epoch_ == UINT32_MAX) {
      std::fill(edge_mark_.begin(), edge_mark_.end(), 0);
      std::fill(vertex_mark_.begin(), vertex_mark_.end(), 0);
      epoch_ = 0;
    }
    return ++epoch_;
  }

  bool Tick() {
    ++states;
    GHD_COUNT(kDeciderStates);
    // Occupancy publishes for the live board every 1024th state;
    // GHD_BOARD_LAZY skips it entirely while no board is armed.
    if ((states & 1023) == 0) {
      GHD_BOARD_LAZY(kMemoStates, pos_memo->size() + neg_memo->size());
      GHD_BOARD_LAZY(kInternerSets, interner->Size());
    }
    return budget->Tick();
  }

  bool OutOfBudget() const { return budget->Stopped(); }

  // Interns `s`, charging the canonical copy against the memory budget on
  // first sight.
  uint32_t InternCharged(const VertexSet& s) {
    bool inserted = false;
    const uint32_t id = interner->Intern(s, &inserted);
    if (inserted) budget->Charge(ApproxBytes(s));
    return id;
  }

  StateKey MakeKey(const VertexSet& comp, const VertexSet& conn) {
    return StateKey{InternCharged(comp), InternCharged(conn)};
  }

  // V(comp), walking the component's edges in the edge CSR.
  void VerticesOf(const VertexSet& comp, VertexSet* out) const {
    ResetSet(out, h->num_vertices());
    const std::vector<int32_t>& eoff = flat->edge_offsets();
    const std::vector<int32_t>& everts = flat->edge_vertices();
    comp.ForEach([&](int e) {
      for (int32_t i = eoff[e]; i < eoff[e + 1]; ++i) out->Set(everts[i]);
    });
  }

  // Copies `comp` into `rem` without the component edges that lie inside
  // chi; true when there was one. An edge inside chi has a vertex in chi
  // unless it is empty, and an empty edge is a root component of its own,
  // which has no candidates and never gets here; so walking chi's incident
  // edges finds them all.
  bool RemoveCovered(const VertexSet& comp, const VertexSet& chi,
                     VertexSet* rem) {
    *rem = comp;
    const std::vector<int32_t>& eoff = flat->edge_offsets();
    const std::vector<int32_t>& everts = flat->edge_vertices();
    const std::vector<int32_t>& voff = flat->vertex_offsets();
    const std::vector<int32_t>& vedges = flat->vertex_edges();
    const uint32_t epoch = NextEpoch();
    bool covered_any = false;
    chi.ForEach([&](int v) {
      for (int32_t j = voff[v]; j < voff[v + 1]; ++j) {
        const int e = vedges[j];
        if (edge_mark_[e] == epoch) continue;
        edge_mark_[e] = epoch;
        if (!comp.Test(e)) continue;
        bool inside = true;
        for (int32_t i = eoff[e]; i < eoff[e + 1] && inside; ++i) {
          inside = chi.Test(everts[i]);
        }
        if (inside) {
          rem->Reset(e);
          covered_any = true;
        }
      }
    });
    return covered_any;
  }

  // Splits `rem` into [chi]-connected parts: two edges are connected when
  // they share a vertex outside chi. A BFS over the CSRs in which each open
  // vertex is expanded once; by the state invariant all its incident edges
  // lie in the component, so the walk stays inside it. Seeds are taken in
  // ascending edge id, so parts come in ascending order of their least edge,
  // each with its connector V(part) ∩ chi.
  void SplitComponents(const VertexSet& rem, const VertexSet& chi) {
    const std::vector<int32_t>& eoff = flat->edge_offsets();
    const std::vector<int32_t>& everts = flat->edge_vertices();
    const std::vector<int32_t>& voff = flat->vertex_offsets();
    const std::vector<int32_t>& vedges = flat->vertex_edges();
    const uint32_t epoch = NextEpoch();
    parts_.clear();
    rem.ForEach([&](int seed) {
      if (edge_mark_[seed] == epoch) return;
      parts_.push_back(
          Part{VertexSet(h->num_edges()), VertexSet(h->num_vertices())});
      Part& part = parts_.back();
      edge_mark_[seed] = epoch;
      part.edges.Set(seed);
      stack_.assign(1, seed);
      while (!stack_.empty()) {
        const int e = stack_.back();
        stack_.pop_back();
        for (int32_t i = eoff[e]; i < eoff[e + 1]; ++i) {
          const int v = everts[i];
          if (chi.Test(v)) {
            part.conn.Set(v);
            continue;
          }
          if (vertex_mark_[v] == epoch) continue;
          vertex_mark_[v] = epoch;
          for (int32_t j = voff[v]; j < voff[v + 1]; ++j) {
            const int f = vedges[j];
            if (edge_mark_[f] == epoch || !rem.Test(f)) continue;
            edge_mark_[f] = epoch;
            part.edges.Set(f);
            stack_.push_back(f);
          }
        }
      }
    });
  }

  // Opens the state `key` one level above the top of the stack: settles it
  // from the memos (or the budget) at once, or pushes its frame. Returns 1
  // or 0 for a settled true or false, -1 for a pushed frame.
  int Enter(const StateKey& key) {
    // Positive memo first: a decomposable state stays decomposable at any
    // larger width, so a hit is valid whether the entry came from this call
    // or from an earlier rung of a shared k-ladder. Negative entries come
    // from this call or (persistent-negatives mode) an earlier call at the
    // *same* k, so a hit there is a width-k refutation by construction.
    if (pos_memo->count(key) != 0) {
      GHD_COUNT(kDeciderMemoHits);
      return 1;
    }
    if (neg_memo->count(key) != 0) {
      GHD_COUNT(kDeciderMemoHits);
      return 0;
    }
    GHD_COUNT(kDeciderMemoMisses);
    if (!Tick()) return 0;
    GHD_BOARD_SET(kFrontierDepth, static_cast<long>(depth_));

    if (depth_ == frames_.size()) frames_.push_back(std::make_unique<Frame>());
    Frame& f = *frames_[depth_++];
    f.key = key;
    f.comp = &interner->Resolve(key.comp_id);
    f.conn = &interner->Resolve(key.conn_id);
    VerticesOf(*f.comp, &f.v_comp);
    // Connector-meeting guards first, scored; the rest read on demand.
    index->Open(*f.comp, f.v_comp, *f.conn, &f.candidates);
    // The prefix's connector rows and their suffix unions for the futility
    // prune. One O(|prefix| * |conn|) pass here saves whole subset subtrees.
    f.rows.Build(*f.conn, f.candidates, *family);
    f.lambda.clear();
    f.levels.resize(k + 1);
    f.levels[0].next = 0;
    f.levels[0].left = VertexSet::Full(f.rows.members);
    f.phase = Frame::Phase::kEnter;
    return -1;
  }

  // Pops the top frame with its verdict, memoizing it.
  bool Leave(Frame& f, bool ok) {
    GHD_HISTO(kLambdaCandidates, static_cast<long>(f.candidates.read()));
    --depth_;
    if (ok) {
      // Successes are complete witnesses regardless of budget state:
      // memoize unconditionally, so every true child a parent references is
      // resident for reconstruction.
      StateValue value;
      value.chi = std::move(f.chi);
      value.lambda = f.lambda;
      value.children = std::move(f.children);
      MemoizeTrue(f.key, std::move(value));
      return true;
    }
    // A false under an exhausted budget may be a truncated search, not a
    // refutation: never cache it. This is the library-wide cache rule (see
    // util/resource_governor.h): a truncated run must never poison a memo
    // entry with an unproven refutation. The truncation test runs exactly
    // once so that the discard decision and the soundness accounting in
    // MemoizeFalse see the same answer.
    const bool truncated = OutOfBudget();
    if (truncated) {
      GHD_COUNT(kDeciderUnprovenFalse);
      return false;
    }
    MemoizeFalse(f.key, truncated);
    return false;
  }

  // Decides `root` and everything below it.
  bool Decide(const StateKey& root) {
    int settled = Enter(root);
    if (settled >= 0) return settled == 1;
    for (;;) {
      Frame& f = *frames_[depth_ - 1];
      const Step step = Run(f);
      if (step == Step::kChild) {
        settled = Enter(f.children[f.child]);
        if (settled >= 0) f.child_ok = settled == 1;
        continue;
      }
      const bool ok = Leave(f, step == Step::kTrue);
      if (depth_ == 0) return ok;
      frames_[depth_ - 1]->child_ok = ok;
    }
  }

  // Advances the λ-enumeration of `f` until it settles the state or needs a
  // child decided. Enumerates guard subsets of size <= k over the
  // candidates, evaluating each complete connector-covering choice, and
  // stops at the first success. A branch whose uncovered connector is not
  // inside the suffix union of the candidates still open can never complete
  // a cover, so its whole subtree is pruned with one subset test; past the
  // prefix that union is empty, so the enumeration stops at the end of the
  // prefix while any connector vertex is uncovered.
  Step Run(Frame& f) {
    using Phase = Frame::Phase;
    for (;;) {
      const size_t d = f.lambda.size();
      Level& level = f.levels[d];
      switch (f.phase) {
        case Phase::kEnter:
          if (!f.rows.SuffixCovers(level.next, level.left) ||
              !Tick()) {  // the tick bounds the subset enumeration itself
            if (Unwind(f)) return Step::kFalse;
            break;
          }
          if (d > 0 && level.left.Empty()) {
            const Step step = TryLambda(f);
            if (step != Step::kFalse) return step;
            if (LambdaFailed(f)) return Step::kFalse;
            break;
          }
          f.phase = Phase::kLoop;
          break;
        case Phase::kLoop: {
          const size_t i = level.next;
          if (d == static_cast<size_t>(k) ||
              (i >= f.rows.count && !level.left.Empty()) ||
              !f.candidates.Has(i)) {
            if (Unwind(f)) return Step::kFalse;
            break;
          }
          level.next = i + 1;
          f.lambda.push_back(f.candidates[i]);
          Level& down = f.levels[d + 1];
          down.next = i + 1;
          down.left = level.left;
          if (i < f.rows.count) down.left.SubtractWords(f.rows.Guard(i));
          f.phase = Phase::kEnter;
          break;
        }
        case Phase::kChild:
          if (f.child_ok && !OutOfBudget()) {
            if (++f.child < f.children.size()) return Step::kChild;
            return Step::kTrue;
          }
          // A child refutation is a proven failure of (comp, chi) only when
          // no truncation is in flight; otherwise the child may merely have
          // been cut short.
          if (!f.child_ok && !OutOfBudget()) FailProven(f);
          if (LambdaFailed(f)) return Step::kFalse;
          break;
      }
    }
  }

  // The enumeration at depth lambda.size() came back false: returns to the
  // depth above (dropping the guard chosen there) and goes on with its next
  // candidate, or unwinds further while the budget is out. True when depth
  // 0 came back, i.e. the state's enumeration is over.
  bool Unwind(Frame& f) {
    for (;;) {
      if (f.lambda.empty()) return true;
      f.lambda.pop_back();
      if (!OutOfBudget()) {
        f.phase = Frame::Phase::kLoop;
        return false;
      }
    }
  }

  // A complete guard choice failed: the enumeration goes on at the same
  // depth, or unwinds when the budget is out. True when the state is over.
  bool LambdaFailed(Frame& f) {
    if (OutOfBudget()) return Unwind(f);
    f.phase = Frame::Phase::kLoop;
    return false;
  }

  void FailProven(const Frame& f) {
    GHD_COUNT(kSeparatorNegInserts);
    neg_cache->Insert(f.neg_key);
  }

  // Evaluates the complete guard choice f.lambda: builds chi, covers the
  // component edges inside it and splits the rest into child states.
  // Returns kChild with the children queued, kTrue when no edge is left, or
  // kFalse. Failed (component, chi) pairs land in the negative-separator
  // cache — distinct guard subsets unioning to the same chi then fail
  // without re-splitting — but only when the failure is proven (truncated
  // failures are never cached, the same soundness rule the memo follows).
  Step TryLambda(Frame& f) {
    GHD_COUNT(kDeciderLambdaTried);
    ResetSet(&f.chi, h->num_vertices());
    for (int g : f.lambda) {
      for (int32_t v : index->GuardVertices(g)) {
        if (f.v_comp.Test(v)) f.chi.Set(v);
      }
    }
    if (!f.conn->IsSubsetOf(f.chi)) return Step::kFalse;
    const uint32_t chi_id = InternCharged(f.chi);
    f.neg_key = NegSeparatorCache::Key(f.key.comp_id, chi_id);
    if (neg_cache->Contains(f.neg_key)) {
      GHD_COUNT(kSeparatorNegHits);
      return Step::kFalse;
    }
    // Progress rule: every child block must be strictly smaller than the
    // current component; otherwise this guard choice loops. With no edge
    // covered, rem is the whole component, so one part is all of it.
    VertexSet rem;
    const bool covered_any = RemoveCovered(*f.comp, f.chi, &rem);
    SplitComponents(rem, f.chi);
    if (!covered_any && parts_.size() == 1) {
      FailProven(f);
      return Step::kFalse;
    }
    f.children.clear();
    for (const Part& part : parts_) {
      f.children.push_back(MakeKey(part.edges, part.conn));
    }
    if (f.children.empty()) return Step::kTrue;
    f.child = 0;
    f.phase = Frame::Phase::kChild;
    return Step::kChild;
  }

  // Inserts a positive witness into the (possibly cross-rung) memo,
  // accounting its approximate footprint against the memory budget (the chi
  // bitset dominates; key and children are interned ids, and the canonical
  // component/connector copies were charged when they entered the interner).
  void MemoizeTrue(const StateKey& key, StateValue value) {
    GHD_COUNT(kDeciderMemoInserts);
    const size_t bytes = sizeof(StateKey) + sizeof(StateValue) +
                         ApproxBytes(value.chi) +
                         value.lambda.size() * sizeof(int) +
                         value.children.size() * sizeof(StateKey);
    budget->Charge(bytes);
    pos_memo->emplace(key, std::move(value));
  }

  // Records a proven width-k refutation in the (per-call or per-exact-k
  // persistent) negative map. A
  // negative under truncation is refused outright — that would cache an
  // unproven refutation; the refusal counter is the observable invariant
  // (decider_memo_poisoned stays 0 as long as every caller discards
  // truncated negatives before reaching here).
  void MemoizeFalse(const StateKey& key, bool truncated) {
    if (truncated) {
      GHD_COUNT(kDeciderMemoPoisoned);
      return;
    }
    GHD_COUNT(kDeciderMemoInserts);
    budget->Charge(sizeof(StateKey) + 1);
    neg_memo->insert(key);
  }

  static size_t ApproxBytes(const VertexSet& s) {
    return static_cast<size_t>((s.universe_size() + 63) / 64) * 8;
  }

  // Rebuilds the decomposition tree for a successful root state; returns the
  // index of the subtree root in `out`. Bags come in preorder, and each tree
  // edge once its child's subtree is complete — the order of a recursive
  // walk — from an explicit stack.
  int Reconstruct(const StateKey& root,
                  GeneralizedHypertreeDecomposition* out) {
    struct Open {
      const StateValue* value;
      int node;
      size_t next;  // next child to visit
    };
    std::vector<Open> stack;
    auto open = [&](const StateKey& key) {
      const auto it = pos_memo->find(key);
      GHD_CHECK(it != pos_memo->end());
      const StateValue* value = &it->second;
      const int node = out->num_nodes();
      out->bags.push_back(value->chi);
      std::vector<int> edge_ids;
      for (int g : value->lambda) {
        const int parent = family->parent_edge[g];
        if (parent >= 0 && std::find(edge_ids.begin(), edge_ids.end(),
                                     parent) == edge_ids.end()) {
          edge_ids.push_back(parent);
        }
      }
      out->guards.push_back(std::move(edge_ids));
      stack.push_back(Open{value, node, 0});
      return node;
    };
    const int root_node = open(root);
    while (!stack.empty()) {
      Open& top = stack.back();
      if (top.next < top.value->children.size()) {
        open(top.value->children[top.next++]);
        continue;
      }
      const int node = top.node;
      stack.pop_back();
      if (!stack.empty()) out->tree_edges.emplace_back(stack.back().node, node);
    }
    return root_node;
  }
};

}  // namespace

GuardFamily OriginalEdgesFamily(const Hypergraph& h) {
  GuardFamily family;
  family.guards = h.edges();
  family.parent_edge.resize(h.num_edges());
  for (int e = 0; e < h.num_edges(); ++e) family.parent_edge[e] = e;
  return family;
}

KLadderContext::KLadderContext(const Hypergraph& h, const GuardFamily& family)
    : state_(std::make_unique<internal::LadderState>(h, family)) {}

KLadderContext::KLadderContext(const Hypergraph& h, const GuardFamily& family,
                               int /*ignored*/)
    : KLadderContext(h, family) {}

KLadderContext::~KLadderContext() = default;

size_t KLadderContext::interned_sets() const {
  return state_->interner.Size();
}

size_t KLadderContext::positive_states() const {
  return state_->positive.size();
}

int KLadderContext::max_k() const { return state_->max_k; }

size_t KLadderContext::negative_states() const {
  size_t total = 0;
  for (const auto& [k, store] : state_->negatives) total += store->memo.size();
  return total;
}

void KLadderContext::PersistNegatives() {
  state_->persist_negatives = true;
}

RebindStats KLadderContext::Rebind(const Hypergraph& new_h,
                                   const GuardFamily& new_family,
                                   const VertexSet& dirty_edges,
                                   const std::vector<int>& edge_map) {
  internal::LadderState* s = state_.get();
  GHD_CHECK(new_h.num_vertices() == s->h->num_vertices());
  GHD_CHECK(new_family.size() == new_h.num_edges());
  // Only the original-edges family shape is rebindable: edge_map renumbers
  // edge ids, and retained lambdas/guard ids are reinterpreted through it.
  for (int g = 0; g < new_family.size(); ++g) {
    GHD_CHECK(new_family.parent_edge[g] == g);
  }
  RebindStats stats;

  // Component remap, memoized per interned id: clean components (disjoint
  // from dirty_edges) renumber through edge_map into the new edge universe
  // and re-intern; dirty ones map to the tombstone and drop every entry that
  // references them. A clean component's edges all survive (removed edges
  // are in dirty_edges by construction), so every edge_map read is >= 0.
  constexpr uint32_t kDirty = 0xffffffffu;
  std::unordered_map<uint32_t, uint32_t> comp_remap;
  const int new_m = new_h.num_edges();
  auto remap_comp = [&](uint32_t comp_id) -> uint32_t {
    auto it = comp_remap.find(comp_id);
    if (it != comp_remap.end()) return it->second;
    const VertexSet& comp = s->interner.Resolve(comp_id);
    uint32_t mapped = kDirty;
    if (comp.universe_size() == dirty_edges.universe_size() &&
        !comp.Intersects(dirty_edges)) {
      VertexSet renum(new_m);
      bool ok = true;
      comp.ForEach([&](int e) {
        const int ne = edge_map[e];
        if (ne < 0) {
          ok = false;
        } else {
          renum.Set(ne);
        }
      });
      if (ok) mapped = s->interner.Intern(renum);
    }
    comp_remap.emplace(comp_id, mapped);
    return mapped;
  };

  // Positive sweep: rebuild the memo keeping only entries whose component
  // (and, transitively, every child component — children are sub-components
  // of the parent, so a clean parent has clean children) survives. chi and
  // the connector live in the unchanged vertex universe; lambda guard ids
  // renumber through edge_map (guard id == edge id for original-edges
  // families). A retained entry's guards are never removed edges: a guard
  // intersects the component's vertices, and a removed edge's vertices are
  // all dirty, which would have dirtied the component.
  PositiveMemo fresh_pos;
  for (const auto& [key, value] : s->positive) {
    const uint32_t comp = remap_comp(key.comp_id);
    if (comp == kDirty) {
      ++stats.pos_dropped;
      continue;
    }
    StateValue moved;
    moved.chi = value.chi;
    moved.lambda.reserve(value.lambda.size());
    bool ok = true;
    for (int g : value.lambda) {
      const int ng = edge_map[g];
      if (ng < 0) {
        ok = false;
        break;
      }
      moved.lambda.push_back(ng);
    }
    if (ok) {
      moved.children.reserve(value.children.size());
      for (const StateKey& child : value.children) {
        const uint32_t child_comp = remap_comp(child.comp_id);
        if (child_comp == kDirty) {
          ok = false;
          break;
        }
        moved.children.push_back(StateKey{child_comp, child.conn_id});
      }
    }
    if (!ok) {
      ++stats.pos_dropped;
      continue;
    }
    fresh_pos.emplace(StateKey{comp, key.conn_id}, std::move(moved));
    ++stats.pos_retained;
  }
  s->positive = std::move(fresh_pos);

  // Negative sweep, per exact-k store: same retention test. A retained
  // refutation stands because its candidate guard set is literally the same
  // family subset — removed guards would have dirtied the component, and
  // inserted edges have all-dirty vertices so they never touch a retained
  // component's vertices.
  for (auto& [k, store] : s->negatives) {
    auto fresh = std::make_unique<NegativeStore>();
    for (const StateKey& key : store->memo) {
      const uint32_t comp = remap_comp(key.comp_id);
      if (comp == kDirty) {
        ++stats.neg_dropped;
        continue;
      }
      fresh->memo.insert(StateKey{comp, key.conn_id});
      ++stats.neg_retained;
    }
    store->cache.ForEachKey([&](uint64_t packed) {
      uint32_t comp_id = 0, chi_id = 0;
      NegSeparatorCache::Unpack(packed, &comp_id, &chi_id);
      const uint32_t comp = remap_comp(comp_id);
      if (comp == kDirty) {
        ++stats.sep_dropped;
        return;
      }
      fresh->cache.Insert(NegSeparatorCache::Key(comp, chi_id));
      ++stats.sep_retained;
    });
    store = std::move(fresh);
  }

  s->h = &new_h;
  s->flat = &new_h.Flat();
  s->family = &new_family;
  s->index = std::make_unique<CoverIndex>(new_h, new_family);
  return stats;
}

KDeciderResult DecideWidthK(const Hypergraph& h, const GuardFamily& family,
                            int k, const KDeciderOptions& options,
                            KLadderContext* ladder) {
  GHD_CHECK(k >= 1);
  // The family check (each guard inside its parent edge) runs where the
  // cover index is built: once per LadderState, so once per call without a
  // ladder, once per ladder and once per Rebind with one.
  const bool has_parents = family.HasParents();
  KDeciderResult result;
  result.guards_valid = has_parents;
  if (h.num_edges() == 0) {
    result.decided = true;
    result.exists = true;
    result.decomposition.bags.push_back(VertexSet(h.num_vertices()));
    result.decomposition.guards.push_back({});
    return result;
  }

  // Private budget from the legacy state_budget knob unless the caller
  // shares a governor.
  Budget local_budget;
  Budget* budget = options.budget;
  if (budget == nullptr) {
    local_budget.SetTickBudget(options.state_budget);
    budget = &local_budget;
  }

  // The interner, cover index, and positive memo live in a LadderState:
  // either the caller's KLadderContext (reused and extended across a whole
  // nondecreasing-k ladder) or a private one scoped to this call. Both paths
  // run the identical engine; only the lifetime of the shared half differs.
  std::unique_ptr<LadderState> local_state;
  LadderState* state;
  if (ladder != nullptr) {
    state = ladder->state_.get();
    // The ids in the carried-over memo name sets of *this* instance and
    // family; positive carry is monotone only for nondecreasing k.
    GHD_CHECK(state->h == &h && state->family == &family);
    GHD_CHECK(k >= state->max_k);
    state->max_k = k;
  } else {
    local_state = std::make_unique<LadderState>(h, family);
    state = local_state.get();
  }

  Decider decider;
  decider.h = &h;
  decider.flat = state->flat;
  decider.family = &family;
  decider.index = state->index.get();
  decider.interner = &state->interner;
  decider.pos_memo = &state->positive;
  decider.k = k;
  decider.budget = budget;

  // Negative state: per-call scratch by default (a refutation at width k
  // says nothing at width k+1, and the next call usually has a different k).
  // A ladder with persistent negatives armed shares the store for exactly
  // this k across calls — the incremental solver's repeated same-k asks.
  NegativeMemo local_neg;
  NegSeparatorCache local_sep;
  decider.neg_memo = &local_neg;
  decider.neg_cache = &local_sep;
  if (state->persist_negatives) {
    std::unique_ptr<NegativeStore>& store = state->negatives[k];
    if (store == nullptr) store = std::make_unique<NegativeStore>();
    decider.neg_memo = &store->memo;
    decider.neg_cache = &store->cache;
  }

  // Root components of all edges with an empty separator.
  decider.Init();
  decider.SplitComponents(VertexSet::Full(h.num_edges()),
                          VertexSet(h.num_vertices()));
  std::vector<Part> roots = std::move(decider.parts_);
  GHD_GAUGE_MAX(kMaxGuardFamily, family.size());
  GHD_BOARD_SET(kWidthK, k);
  GHD_BOARD_SET(kGuardFamily, family.size());
  std::vector<StateKey> root_keys;
  bool all_ok = true;
  for (const Part& root : roots) {
    const StateKey key = decider.MakeKey(root.edges, root.conn);
    GHD_SPAN_VAR(span, "decider", "decide-component");
    span.SetArg("k", k);
    span.SetArg("edges", root.edges.Count());
    if (!decider.Decide(key)) {
      all_ok = false;
      break;
    }
    root_keys.push_back(key);
  }
  result.states_visited = decider.states;
  result.outcome = budget->MakeOutcome();
  result.outcome.ticks = result.states_visited;
  // A complete positive witness stands even when the budget fired during the
  // search: truncation may delay an answer, never flip one. Only a failure
  // under an exhausted budget is unresolved.
  if (!all_ok && decider.OutOfBudget()) {
    result.decided = false;
    return result;
  }
  result.decided = true;
  result.exists = all_ok;
  if (all_ok) {
    int previous_root = -1;
    for (const StateKey& key : root_keys) {
      const int node = decider.Reconstruct(key, &result.decomposition);
      if (previous_root >= 0) {
        result.decomposition.tree_edges.emplace_back(previous_root, node);
      }
      previous_root = node;
    }
    if (has_parents) {
      GHD_CHECK(result.decomposition.Width() <= k);
      GHD_CHECK(result.decomposition.Validate(h).ok());
    }
  }
  return result;
}

}  // namespace ghd
