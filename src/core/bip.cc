#include "core/bip.h"

#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "hypergraph/flat_hypergraph.h"
#include "hypergraph/kernels.h"
#include "obs/obs.h"
#include "util/check.h"
#include "util/set_interner.h"

namespace ghd {
namespace {

// Per-parent output of the demand-driven enumeration: the parent's candidate
// subedges in deterministic emission order (interned ids, deduped within the
// parent; cross-parent duplicates drop at the merge).
struct ParentCandidates {
  std::vector<uint32_t> ids;
  long probed = 0;
};

// Enumerates every distinct nonempty proper subedge e ∩ (f1 ∪ ... ∪ fj),
// j <= max_arity, for one parent edge e — without ever forming an
// edge-combination. Key fact: e ∩ (f1 ∪ ... ∪ fj) = (e∩f1) ∪ ... ∪ (e∩fj),
// so the reachable subedges are exactly the unions of at most j distinct
// *atoms* (the distinct nonempty values of e ∩ f over f ≠ e). The frontier
// walks atom combinations breadth-first; a per-parent map keyed on interned
// ids keeps, for each reached set, the smallest next-atom index it was
// enqueued with.
//
// Completeness: a target union of atoms i1 < ... < im (m <= max_arity) is
// reached along its sorted prefix path. Inductively the prefix P_t is
// enqueued with a next-index <= i_t + 1 <= i_{t+1} (the map keeps the
// minimum, and a strictly smaller arrival re-enqueues), so the expansion
// with atom i_{t+1} happens while t < m <= max_arity levels remain.
void EnumerateParent(const Hypergraph& h, int e, int max_arity,
                     size_t max_guards, size_t* emitted_total, bool* capped,
                     Budget* budget,
                     SetInterner* interner, ParentCandidates* out) {
  const VertexSet& edge = h.edge(e);
  // Distinct nonempty atoms in first-seen (f ascending) order. Atoms equal
  // to e itself are dropped: any union containing one equals e and is never
  // a proper subedge. The e∩f sweep runs over the flat edge_bits matrix —
  // one contiguous strip of rows, AND + emptiness/identity checks on raw
  // words, and a VertexSet materialized only for the surviving atoms.
  std::vector<VertexSet> atoms;
  {
    const BitMatrix& edge_bits = h.Flat().edge_bits();
    const uint64_t* row_e = edge_bits.row(e);
    const int words = edge_bits.logical_words();
    std::vector<uint64_t> cut(edge_bits.stride_words(), 0);
    std::unordered_set<VertexSet, VertexSetHash> seen;
    for (int f = 0; f < h.num_edges(); ++f) {
      if (f == e) continue;
      kernels::AndInto(cut.data(), row_e, edge_bits.row(f), words);
      if (kernels::IsEmpty(cut.data(), words) ||
          kernels::Equal(cut.data(), row_e, words)) {
        continue;
      }
      VertexSet a = VertexSet::FromWords(h.num_vertices(), cut.data());
      if (seen.insert(a).second) atoms.push_back(std::move(a));
    }
  }
  const int num_atoms = static_cast<int>(atoms.size());
  if (num_atoms == 0) return;

  struct Entry {
    uint32_t id;
    int from;  // smallest atom index not yet combined in
  };
  std::vector<Entry> frontier;
  std::vector<Entry> next;
  // Reached set -> smallest next-atom index enqueued so far.
  std::unordered_map<uint32_t, int> best_from;

  auto emit = [&](const VertexSet& s, int from) -> bool {
    // Returns false when generation must stop (budget or cap).
    ++out->probed;
    if (!budget->Tick()) return false;
    const uint32_t id = interner->Intern(s);
    auto it = best_from.find(id);
    if (it == best_from.end()) {
      best_from.emplace(id, from);
      out->ids.push_back(id);
      next.push_back(Entry{id, from});
      if (++*emitted_total >= max_guards) {
        *capped = true;
        return false;
      }
    } else if (it->second > from) {
      // Re-reached with a smaller next index: already emitted, but the
      // extension range [from, old) is new — re-enqueue for completeness.
      it->second = from;
      next.push_back(Entry{id, from});
    }
    return true;
  };

  // Level 1: the atoms themselves (all distinct, all proper by filtering).
  for (int i = 0; i < num_atoms; ++i) {
    if (!emit(atoms[i], i + 1)) return;
  }
  frontier.swap(next);

  for (int level = 2; level <= max_arity && !frontier.empty(); ++level) {
    GHD_HISTO(kClosureFrontierSize, static_cast<long>(frontier.size()));
    for (const Entry& entry : frontier) {
      // Resolve once per entry; the canonical reference is stable while new
      // sets are interned.
      const VertexSet& base = interner->Resolve(entry.id);
      for (int i = entry.from; i < num_atoms; ++i) {
        VertexSet s = base;
        s |= atoms[i];
        if (s == base) continue;  // absorbed atom: same set, no new union
        if (s == edge) continue;  // not a proper subedge (dead end: stays e)
        if (!emit(s, i + 1)) return;
      }
      if (*capped) return;
    }
    frontier.swap(next);
  }
}

}  // namespace

const char* ClosureStopName(ClosureStop stop) {
  switch (stop) {
    case ClosureStop::kComplete:
      return "complete";
    case ClosureStop::kGuardCap:
      return "guard-cap";
    case ClosureStop::kBudget:
      return "budget";
    case ClosureStop::kRankRefusal:
      return "rank-refusal";
  }
  return "unknown";
}

SubedgeClosureResult BipSubedgeClosure(const Hypergraph& h,
                                       const SubedgeClosureOptions& options) {
  GHD_CHECK(options.max_union_arity >= 1);
  GHD_SPAN_VAR(span, "bip", "subedge-closure");
  GHD_BOARD_PHASE("subedge-closure");
  GHD_ATTR_SCOPE(attr, "subedge-closure");
  span.SetArg("edges", h.num_edges());

  SubedgeClosureResult result;
  Budget local_budget;  // unlimited unless the caller shares a governor
  Budget* budget = options.budget != nullptr ? options.budget : &local_budget;

  SetInterner interner;
  std::vector<ParentCandidates> per_parent(h.num_edges());
  size_t emitted_total = 0;
  bool capped = false;
  for (int e = 0; e < h.num_edges() && !capped && !budget->Stopped(); ++e) {
    EnumerateParent(h, e, options.max_union_arity, options.max_guards,
                    &emitted_total, &capped, budget, &interner,
                    &per_parent[e]);
  }

  // Merge in parent order: the family starts with the original edges, then
  // takes each parent's candidates in emission order. Dedup is by interned
  // id, so a subedge reachable from several parents is kept once (first
  // parent in id order wins).
  result.family = OriginalEdgesFamily(h);
  std::unordered_set<uint32_t> in_family;
  in_family.reserve(h.num_edges() * 2);
  for (int e = 0; e < h.num_edges(); ++e) {
    in_family.insert(interner.Intern(h.edge(e)));
  }
  for (int e = 0; e < h.num_edges(); ++e) {
    result.candidates_probed += per_parent[e].probed;
    for (uint32_t id : per_parent[e].ids) {
      if (result.family.guards.size() >=
          static_cast<size_t>(options.max_guards)) {
        capped = true;
        break;
      }
      if (in_family.insert(id).second) {
        result.family.guards.push_back(interner.Resolve(id));
        result.family.parent_edge.push_back(e);
      } else {
        GHD_COUNT(kClosureInternerHits);
      }
    }
  }

  const int num_original = h.num_edges();
  // Dominance pruning among *added* guards only: drop g when another added
  // guard g' ⊋ g exists. Original edges are untouchable — they anchor the
  // hw-completeness of the family and the λ -> parent-edge mapping — and
  // they never prune an added guard (an added subedge strictly inside an
  // original edge is exactly what the closure exists to provide; pruning
  // against originals would collapse the ghw search to an hw search).
  if (options.prune_dominated) {
    const int num_added =
        result.family.size() - num_original;
    if (num_added > 1) {
      // contains[v] = bitset over added-guard indices whose guard holds v;
      // the supersets of g are the AND of contains[v] over v ∈ g.
      std::vector<VertexSet> contains(h.num_vertices(), VertexSet(num_added));
      for (int g = 0; g < num_added; ++g) {
        result.family.guards[num_original + g].ForEach(
            [&](int v) { contains[v].Set(g); });
      }
      GuardFamily pruned;
      pruned.guards.reserve(result.family.guards.size());
      pruned.parent_edge.reserve(result.family.guards.size());
      for (int e = 0; e < num_original; ++e) {
        pruned.guards.push_back(std::move(result.family.guards[e]));
        pruned.parent_edge.push_back(result.family.parent_edge[e]);
      }
      for (int g = 0; g < num_added; ++g) {
        const VertexSet& s = result.family.guards[num_original + g];
        VertexSet supersets = VertexSet::Full(num_added);
        s.ForEach([&](int v) { supersets &= contains[v]; });
        // `supersets` always holds g itself; any second member is a distinct
        // added guard containing every vertex of s, i.e. a strict superset.
        if (supersets.Count() > 1) {
          ++result.dominated_pruned;
          continue;
        }
        pruned.guards.push_back(std::move(result.family.guards[num_original + g]));
        pruned.parent_edge.push_back(
            result.family.parent_edge[num_original + g]);
      }
      result.family = std::move(pruned);
      GHD_COUNT_N(kGuardsDominated, result.dominated_pruned);
    }
  }

  if (budget->Stopped()) {
    result.stop = ClosureStop::kBudget;
    result.stop_reason = budget->reason();
  } else if (capped) {
    result.stop = ClosureStop::kGuardCap;
    result.stop_reason = StopReason::kGuardCap;
  }

  GHD_COUNT_N(kSubedgesGenerated,
              result.family.size() - num_original);
  GHD_GAUGE_MAX(kMaxGuardFamily, result.family.size());
  GHD_BOARD_SET(kGuardFamily, result.family.size());
  span.SetArg("guards", result.family.size());
  return result;
}

SubedgeClosureResult FullSubedgeClosure(const Hypergraph& h, size_t max_guards,
                                        Budget* budget) {
  GHD_SPAN_VAR(span, "bip", "full-closure");
  SubedgeClosureResult result;
  Budget local_budget;
  if (budget == nullptr) budget = &local_budget;
  std::unordered_set<VertexSet, VertexSetHash> seen;
  for (int e = 0; e < h.num_edges(); ++e) {
    const std::vector<int> members = h.edge(e).ToVector();
    const int r = static_cast<int>(members.size());
    if (r >= 25) {  // 2^25 subsets: refuse up front, family stays empty.
      result.family = GuardFamily{};
      result.stop = ClosureStop::kRankRefusal;
      return result;
    }
    for (uint64_t mask = 1; mask < (uint64_t{1} << r); ++mask) {
      ++result.candidates_probed;
      if (!budget->Tick()) {
        result.stop = ClosureStop::kBudget;
        result.stop_reason = budget->reason();
        return result;
      }
      VertexSet sub(h.num_vertices());
      for (int b = 0; b < r; ++b) {
        if ((mask >> b) & 1) sub.Set(members[b]);
      }
      if (seen.insert(sub).second) {
        if (result.family.guards.size() >= max_guards) {
          result.stop = ClosureStop::kGuardCap;
          result.stop_reason = StopReason::kGuardCap;
          return result;
        }
        result.family.guards.push_back(std::move(sub));
        result.family.parent_edge.push_back(e);
      }
    }
  }
  GHD_COUNT_N(kSubedgesGenerated, result.family.size());
  GHD_GAUGE_MAX(kMaxGuardFamily, result.family.size());
  return result;
}

KDeciderResult BipGhwDecide(const Hypergraph& h, int k,
                            const SubedgeClosureOptions& closure,
                            const KDeciderOptions& decider) {
  // Closure and decider drain one governor: the closure's per-candidate
  // ticks and the decider's state ticks are the same budget.
  Budget local_budget;
  KDeciderOptions decider_options = decider;
  SubedgeClosureOptions closure_options = closure;
  if (decider_options.budget == nullptr) {
    local_budget.SetTickBudget(decider.state_budget);
    decider_options.budget = &local_budget;
  }
  if (closure_options.budget == nullptr) {
    closure_options.budget = decider_options.budget;
  }

  const SubedgeClosureResult c = BipSubedgeClosure(h, closure_options);
  GHD_BOARD_PHASE("bip-decide");
  KDeciderResult result = [&] {
    GHD_ATTR_SCOPE(attr, "bip-decide");
    return DecideWidthK(h, c.family, k, decider_options);
  }();
  if (!c.complete() && !(result.decided && result.exists)) {
    // A positive over a partial family carries a complete validated witness
    // and stands (truncation may delay an answer, never flip one). A
    // negative over a partial family says nothing about the missing guards:
    // report undecided with the closure's stop reason.
    result.decided = false;
    result.outcome.complete = false;
    if (result.outcome.stop_reason == StopReason::kNone) {
      result.outcome.stop_reason = c.stop == ClosureStop::kBudget
                                       ? c.stop_reason
                                       : StopReason::kGuardCap;
    }
  }
  return result;
}

ClosureGhwResult GhwViaFullClosure(const Hypergraph& h, size_t max_guards,
                                   const KDeciderOptions& decider) {
  ClosureGhwResult result;
  if (h.num_edges() == 0) {
    result.exact = true;
    return result;
  }
  Budget local_budget;
  KDeciderOptions decider_options = decider;
  if (decider_options.budget == nullptr) {
    local_budget.SetTickBudget(decider.state_budget);
    decider_options.budget = &local_budget;
  }
  const SubedgeClosureResult closure =
      FullSubedgeClosure(h, max_guards, decider_options.budget);
  result.closure_stop = closure.stop;
  result.stop_reason = closure.stop_reason;
  if (!closure.complete()) return result;  // exactness needs the whole closure

  // One ladder context for the whole k-iteration: interner, cover index, and
  // the monotone positive memo carry across rungs (a state decomposable at
  // width k stays decomposable at k+1); negatives are discarded per rung.
  KLadderContext ladder(h, closure.family);
  for (int k = 1; k <= h.num_edges(); ++k) {
    KDeciderResult r =
        DecideWidthK(h, closure.family, k, decider_options, &ladder);
    result.states_visited += r.states_visited;
    if (!r.decided) {
      result.stop_reason = r.outcome.stop_reason;
      return result;
    }
    if (r.exists) {
      result.width = k;
      result.exact = true;
      result.decomposition = std::move(r.decomposition);
      return result;
    }
  }
  return result;
}

}  // namespace ghd
