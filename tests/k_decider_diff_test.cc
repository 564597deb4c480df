// Differential test of the width-k decider against the decider it replaced.
//
// The reference below sorts each state's candidates out of every guard that
// touches the component, scored through dense guard strips; splits
// components with kernels::FlatSplitComponents; and recurses on the call
// stack. The decider under test reads a connector-first prefix and a lazy
// tail from the CoverIndex CSRs, splits inside the component, and runs on an
// explicit state stack. Both must agree on the verdict, states_visited, the
// outcome and the witness — bags, guards and tree edges in the same order —
// on every family shape the decider serves: original edges (hw), BIP and
// full subedge closures (ghw), tree-projection targets without parent edges,
// k-ladders, persistent negatives across Rebind, and tick budgets that cut
// the search anywhere.
#include <algorithm>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/bip.h"
#include "core/cover_index.h"
#include "core/k_decider.h"
#include "core/tree_projection.h"
#include "gen/circuits.h"
#include "gen/generators.h"
#include "gen/random_hypergraphs.h"
#include "gen/workload_trace.h"
#include "gtest/gtest.h"
#include "htd/det_k_decomp.h"
#include "hypergraph/flat_hypergraph.h"
#include "hypergraph/hg_io.h"
#include "hypergraph/kernels.h"
#include "obs/obs.h"
#include "test_instances.h"
#include "util/check.h"
#include "util/hash_mix.h"
#include "util/rng.h"
#include "util/set_interner.h"

namespace ghd {
namespace {

// ---------------------------------------------------------------------------
// The reference decider.
// ---------------------------------------------------------------------------

// Candidates of a state: every guard touching v_comp, connected-first —
// guards meeting conn by descending |g ∩ conn|, then the rest; ties by
// descending |g ∩ v_comp|, then ascending id. Scored over dense strips: one
// guards-containing row per vertex and one row per guard.
class RefCoverIndex {
 public:
  RefCoverIndex(const Hypergraph& h, const GuardFamily& family)
      : guards_containing_(h.num_vertices(), family.size()),
        guard_bits_(family.size(), h.num_vertices()) {
    for (int g = 0; g < family.size(); ++g) {
      guard_bits_.SetRow(g, family.guards[g]);
      family.guards[g].ForEach([&](int v) {
        guards_containing_.row(v)[g >> 6] |= uint64_t{1} << (g & 63);
      });
    }
  }

  std::vector<int> CandidatesFor(const VertexSet& v_comp,
                                 const VertexSet& conn) const {
    const VertexSet touching = kernels::UnionRows(guards_containing_, v_comp);
    std::vector<int32_t> ids;
    touching.ForEach([&](int g) { ids.push_back(g); });
    const int count = static_cast<int>(ids.size());
    std::vector<int> conn_cover(count);
    std::vector<int> comp_cover(count);
    kernels::AndPopcountRows(conn.word_data(), guard_bits_, ids.data(), count,
                             conn_cover.data());
    kernels::AndPopcountRows(v_comp.word_data(), guard_bits_, ids.data(),
                             count, comp_cover.data());
    std::vector<int> order(count);
    for (int i = 0; i < count; ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](int a, int b) {
      const bool a_conn = conn_cover[a] > 0;
      const bool b_conn = conn_cover[b] > 0;
      if (a_conn != b_conn) return a_conn;
      if (a_conn && conn_cover[a] != conn_cover[b]) {
        return conn_cover[a] > conn_cover[b];
      }
      if (comp_cover[a] != comp_cover[b]) {
        return comp_cover[a] > comp_cover[b];
      }
      return ids[a] < ids[b];
    });
    std::vector<int> out;
    out.reserve(count);
    for (int i : order) out.push_back(ids[i]);
    return out;
  }

 private:
  BitMatrix guards_containing_;  // rows = vertices, universe = family
  BitMatrix guard_bits_;         // rows = guards, universe = vertices
};

struct RefKey {
  uint32_t comp_id;
  uint32_t conn_id;
  bool operator==(const RefKey& o) const {
    return comp_id == o.comp_id && conn_id == o.conn_id;
  }
};

struct RefKeyHash {
  size_t operator()(const RefKey& k) const {
    return static_cast<size_t>(SplitMix64(PackIds(k.comp_id, k.conn_id)));
  }
};

struct RefValue {
  VertexSet chi;
  std::vector<int> lambda;
  std::vector<RefKey> children;
};

using RefPositive = std::unordered_map<RefKey, RefValue, RefKeyHash>;
using RefNegative = std::unordered_set<RefKey, RefKeyHash>;

struct RefNegativeStore {
  RefNegative memo;
  NegSeparatorCache cache;
};

// The reference's k-ladder context: interner, index, positive memo and the
// per-k negative stores, with the same Rebind sweep.
struct RefLadder {
  RefLadder(const Hypergraph& h_in, const GuardFamily& family_in)
      : h(&h_in),
        family(&family_in),
        index(std::make_unique<RefCoverIndex>(h_in, family_in)) {}

  void Rebind(const Hypergraph& new_h, const GuardFamily& new_family,
              const VertexSet& dirty_edges, const std::vector<int>& edge_map) {
    constexpr uint32_t kDirty = 0xffffffffu;
    std::unordered_map<uint32_t, uint32_t> comp_remap;
    const int new_m = new_h.num_edges();
    auto remap_comp = [&](uint32_t comp_id) -> uint32_t {
      auto it = comp_remap.find(comp_id);
      if (it != comp_remap.end()) return it->second;
      const VertexSet& comp = interner.Resolve(comp_id);
      uint32_t mapped = kDirty;
      if (comp.universe_size() == dirty_edges.universe_size() &&
          !comp.Intersects(dirty_edges)) {
        VertexSet renum(new_m);
        bool ok = true;
        comp.ForEach([&](int e) {
          if (edge_map[e] < 0) {
            ok = false;
          } else {
            renum.Set(edge_map[e]);
          }
        });
        if (ok) mapped = interner.Intern(renum);
      }
      comp_remap.emplace(comp_id, mapped);
      return mapped;
    };
    RefPositive fresh_pos;
    for (const auto& [key, value] : positive) {
      const uint32_t comp = remap_comp(key.comp_id);
      if (comp == kDirty) continue;
      RefValue moved;
      moved.chi = value.chi;
      bool ok = true;
      for (int g : value.lambda) {
        if (edge_map[g] < 0) {
          ok = false;
          break;
        }
        moved.lambda.push_back(edge_map[g]);
      }
      for (const RefKey& child : value.children) {
        if (!ok) break;
        const uint32_t child_comp = remap_comp(child.comp_id);
        if (child_comp == kDirty) {
          ok = false;
          break;
        }
        moved.children.push_back(RefKey{child_comp, child.conn_id});
      }
      if (ok) fresh_pos.emplace(RefKey{comp, key.conn_id}, std::move(moved));
    }
    positive = std::move(fresh_pos);
    for (auto& [k, store] : negatives) {
      auto fresh = std::make_unique<RefNegativeStore>();
      for (const RefKey& key : store->memo) {
        const uint32_t comp = remap_comp(key.comp_id);
        if (comp != kDirty) fresh->memo.insert(RefKey{comp, key.conn_id});
      }
      store->cache.ForEachKey([&](uint64_t packed) {
        uint32_t comp_id = 0, chi_id = 0;
        NegSeparatorCache::Unpack(packed, &comp_id, &chi_id);
        const uint32_t comp = remap_comp(comp_id);
        if (comp != kDirty) {
          fresh->cache.Insert(NegSeparatorCache::Key(comp, chi_id));
        }
      });
      store = std::move(fresh);
    }
    h = &new_h;
    family = &new_family;
    index = std::make_unique<RefCoverIndex>(new_h, new_family);
  }

  const Hypergraph* h;
  const GuardFamily* family;
  SetInterner interner;
  std::unique_ptr<RefCoverIndex> index;
  RefPositive positive;
  bool persist_negatives = false;
  std::map<int, std::unique_ptr<RefNegativeStore>> negatives;
};

// The recursive decider, state for state.
struct RefDecider {
  const Hypergraph* h;
  const FlatHypergraph* flat;
  const GuardFamily* family;
  const RefCoverIndex* index;
  int k;
  Budget* budget;
  long states = 0;
  SetInterner* interner;
  RefPositive* pos_memo;
  RefNegative* neg_memo;
  NegSeparatorCache* neg_cache;

  bool Tick() {
    ++states;
    return budget->Tick();
  }
  bool OutOfBudget() const { return budget->Stopped(); }

  static size_t ApproxBytes(const VertexSet& s) {
    return static_cast<size_t>((s.universe_size() + 63) / 64) * 8;
  }
  uint32_t InternCharged(const VertexSet& s) {
    bool inserted = false;
    const uint32_t id = interner->Intern(s, &inserted);
    if (inserted) budget->Charge(ApproxBytes(s));
    return id;
  }
  RefKey MakeKey(const VertexSet& comp, const VertexSet& conn) {
    return RefKey{InternCharged(comp), InternCharged(conn)};
  }

  // Guard rows over the connector's members and their suffix unions.
  struct Rows {
    Rows(const VertexSet& conn, const std::vector<int>& candidates,
         const GuardFamily& family)
        : members(conn.Count()),
          words((members + 63) / 64),
          count(candidates.size()),
          data((2 * count + 1) * words, 0) {
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
    const uint64_t* Guard(size_t i) const { return data.data() + i * words; }
    const uint64_t* Suffix(size_t i) const {
      return data.data() + (count + i) * words;
    }
    int members;
    int words;
    size_t count;
    std::vector<uint64_t> data;
  };

  bool TryLambda(const RefKey& key, const VertexSet& comp,
                 const VertexSet& conn, const VertexSet& v_comp,
                 const std::vector<int>& lambda, RefValue* value) {
    VertexSet chi(h->num_vertices());
    for (int g : lambda) chi |= family->guards[g];
    chi &= v_comp;
    if (!conn.IsSubsetOf(chi)) return false;
    const uint64_t neg_key =
        NegSeparatorCache::Key(key.comp_id, InternCharged(chi));
    if (neg_cache->Contains(neg_key)) return false;
    VertexSet rem = comp;
    bool covered_any = false;
    comp.ForEach([&](int e) {
      if (h->edge(e).IsSubsetOf(chi)) {
        rem.Reset(e);
        covered_any = true;
      }
    });
    std::vector<VertexSet> parts =
        kernels::FlatSplitComponents(*flat, rem, chi);
    if (!covered_any && parts.size() == 1 && parts[0] == comp) {
      neg_cache->Insert(neg_key);
      return false;
    }
    std::vector<RefKey> children;
    for (VertexSet& part : parts) {
      VertexSet child_conn = kernels::FlatVerticesOf(*flat, part);
      child_conn &= chi;
      children.push_back(MakeKey(part, child_conn));
    }
    for (const RefKey& child : children) {
      if (!Decide(child)) {
        if (!OutOfBudget()) neg_cache->Insert(neg_key);
        return false;
      }
      if (OutOfBudget()) return false;
    }
    value->chi = std::move(chi);
    value->lambda = lambda;
    value->children = std::move(children);
    return true;
  }

  bool EnumerateLambda(const RefKey& key, const VertexSet& comp,
                       const VertexSet& conn, const VertexSet& v_comp,
                       const std::vector<int>& candidates, const Rows& rows,
                       size_t from, std::vector<int>* lambda,
                       const VertexSet& conn_left, RefValue* value) {
    if (!kernels::IsSubset(conn_left.word_data(), rows.Suffix(from),
                           rows.words)) {
      return false;
    }
    if (!Tick()) return false;
    if (!lambda->empty() && conn_left.Empty()) {
      if (TryLambda(key, comp, conn, v_comp, *lambda, value)) return true;
      if (OutOfBudget()) return false;
    }
    if (static_cast<int>(lambda->size()) == k) return false;
    for (size_t i = from; i < candidates.size(); ++i) {
      lambda->push_back(candidates[i]);
      VertexSet next_conn = conn_left;
      next_conn.SubtractWords(rows.Guard(i));
      if (EnumerateLambda(key, comp, conn, v_comp, candidates, rows, i + 1,
                          lambda, next_conn, value)) {
        return true;
      }
      lambda->pop_back();
      if (OutOfBudget()) return false;
    }
    return false;
  }

  bool Decide(const RefKey& key) {
    if (pos_memo->count(key) != 0) return true;
    if (neg_memo->count(key) != 0) return false;
    if (!Tick()) return false;
    const VertexSet& comp = interner->Resolve(key.comp_id);
    const VertexSet& conn = interner->Resolve(key.conn_id);
    const VertexSet v_comp = kernels::FlatVerticesOf(*flat, comp);
    const std::vector<int> candidates = index->CandidatesFor(v_comp, conn);
    const Rows rows(conn, candidates, *family);
    RefValue value;
    std::vector<int> lambda;
    if (EnumerateLambda(key, comp, conn, v_comp, candidates, rows, 0, &lambda,
                        VertexSet::Full(rows.members), &value)) {
      budget->Charge(sizeof(RefKey) + sizeof(RefValue) +
                     ApproxBytes(value.chi) +
                     value.lambda.size() * sizeof(int) +
                     value.children.size() * sizeof(RefKey));
      pos_memo->emplace(key, std::move(value));
      return true;
    }
    if (OutOfBudget()) return false;
    budget->Charge(sizeof(RefKey) + 1);
    neg_memo->insert(key);
    return false;
  }

  int Reconstruct(const RefKey& key, GeneralizedHypertreeDecomposition* out) {
    const auto it = pos_memo->find(key);
    GHD_CHECK(it != pos_memo->end());
    const RefValue* value = &it->second;
    const int node = out->num_nodes();
    out->bags.push_back(value->chi);
    std::vector<int> edge_ids;
    for (int g : value->lambda) {
      const int parent = family->parent_edge[g];
      if (parent >= 0 && std::find(edge_ids.begin(), edge_ids.end(), parent) ==
                             edge_ids.end()) {
        edge_ids.push_back(parent);
      }
    }
    out->guards.push_back(std::move(edge_ids));
    for (const RefKey& child : value->children) {
      const int child_node = Reconstruct(child, out);
      out->tree_edges.emplace_back(node, child_node);
    }
    return node;
  }
};

KDeciderResult RefDecideWidthK(const Hypergraph& h, const GuardFamily& family,
                               int k, const KDeciderOptions& options,
                               RefLadder* ladder = nullptr) {
  KDeciderResult result;
  result.guards_valid = family.HasParents();
  if (h.num_edges() == 0) {
    result.decided = true;
    result.exists = true;
    result.decomposition.bags.push_back(VertexSet(h.num_vertices()));
    result.decomposition.guards.push_back({});
    return result;
  }
  Budget local_budget;
  Budget* budget = options.budget;
  if (budget == nullptr) {
    local_budget.SetTickBudget(options.state_budget);
    budget = &local_budget;
  }
  std::unique_ptr<RefLadder> local;
  if (ladder == nullptr) {
    local = std::make_unique<RefLadder>(h, family);
    ladder = local.get();
  }
  RefDecider decider{&h,
                     &h.Flat(),
                     &family,
                     ladder->index.get(),
                     k,
                     budget,
                     0,
                     &ladder->interner,
                     &ladder->positive,
                     nullptr,
                     nullptr};
  RefNegative local_neg;
  NegSeparatorCache local_sep;
  decider.neg_memo = &local_neg;
  decider.neg_cache = &local_sep;
  if (ladder->persist_negatives) {
    std::unique_ptr<RefNegativeStore>& store = ladder->negatives[k];
    if (store == nullptr) store = std::make_unique<RefNegativeStore>();
    decider.neg_memo = &store->memo;
    decider.neg_cache = &store->cache;
  }
  const std::vector<VertexSet> roots = kernels::FlatSplitComponents(
      h.Flat(), VertexSet::Full(h.num_edges()), VertexSet(h.num_vertices()));
  std::vector<RefKey> root_keys;
  bool all_ok = true;
  for (const VertexSet& comp : roots) {
    const RefKey key = decider.MakeKey(comp, VertexSet(h.num_vertices()));
    if (!decider.Decide(key)) {
      all_ok = false;
      break;
    }
    root_keys.push_back(key);
  }
  result.states_visited = decider.states;
  result.outcome = budget->MakeOutcome();
  result.outcome.ticks = result.states_visited;
  if (!all_ok && decider.OutOfBudget()) return result;
  result.decided = true;
  result.exists = all_ok;
  if (all_ok) {
    int previous_root = -1;
    for (const RefKey& key : root_keys) {
      const int node = decider.Reconstruct(key, &result.decomposition);
      if (previous_root >= 0) {
        result.decomposition.tree_edges.emplace_back(previous_root, node);
      }
      previous_root = node;
    }
  }
  return result;
}

// ---------------------------------------------------------------------------
// Comparison helpers.
// ---------------------------------------------------------------------------

void ExpectSame(const KDeciderResult& got, const KDeciderResult& want,
                const std::string& what) {
  EXPECT_EQ(got.decided, want.decided) << what;
  EXPECT_EQ(got.exists, want.exists) << what;
  EXPECT_EQ(got.guards_valid, want.guards_valid) << what;
  EXPECT_EQ(got.states_visited, want.states_visited) << what;
  EXPECT_EQ(got.outcome.complete, want.outcome.complete) << what;
  EXPECT_EQ(got.outcome.stop_reason, want.outcome.stop_reason) << what;
  EXPECT_EQ(got.outcome.ticks, want.outcome.ticks) << what;
  const auto& a = got.decomposition;
  const auto& b = want.decomposition;
  EXPECT_EQ(a.bags, b.bags) << what;
  EXPECT_EQ(a.guards, b.guards) << what;
  EXPECT_EQ(a.tree_edges, b.tree_edges) << what;
}

// One decision at width k under a fresh budget of `ticks` (0 = none).
void CompareOne(const Hypergraph& h, const GuardFamily& family, int k,
                long ticks, const std::string& what) {
  Budget got_budget(0, ticks);
  Budget want_budget(0, ticks);
  KDeciderOptions got_options;
  got_options.budget = &got_budget;
  KDeciderOptions want_options;
  want_options.budget = &want_budget;
  ExpectSame(DecideWidthK(h, family, k, got_options),
             RefDecideWidthK(h, family, k, want_options), what);
}

// The k-ladder k = first..last through one shared context on each side,
// stopping after the first decided positive or undecided rung; returns the
// reference's last rung.
KDeciderResult CompareLadder(const Hypergraph& h, const GuardFamily& family,
                             int first, int last, long ticks,
                             const std::string& what) {
  KDeciderResult last_rung;
  KLadderContext got_ladder(h, family);
  RefLadder want_ladder(h, family);
  for (int k = first; k <= last; ++k) {
    Budget got_budget(0, ticks);
    Budget want_budget(0, ticks);
    KDeciderOptions got_options;
    got_options.budget = &got_budget;
    KDeciderOptions want_options;
    want_options.budget = &want_budget;
    const KDeciderResult got =
        DecideWidthK(h, family, k, got_options, &got_ladder);
    const KDeciderResult want =
        RefDecideWidthK(h, family, k, want_options, &want_ladder);
    ExpectSame(got, want, what + " k=" + std::to_string(k));
    last_rung = want;
    if (!want.decided || want.exists) break;
  }
  return last_rung;
}

// decider_memo_poisoned so far; counting starts on the first call. It must
// stay 0: no truncated refutation may reach a memo.
long PoisonedCount() {
#if GHD_OBS_ENABLED
  obs::EnableCounters(true);
  return obs::SnapshotCounters().counter(obs::Counter::kDeciderMemoPoisoned);
#else
  return 0;
#endif
}

// The 24 sparse_scale shapes: six families at four sizes.
std::vector<std::pair<std::string, Hypergraph>> SparseScaleShapes() {
  std::vector<std::pair<std::string, Hypergraph>> out;
  for (int m : {125, 177, 250, 354}) {
    const std::string size = std::to_string(m);
    out.emplace_back("path" + size, WindowPathHypergraph(m + 1, 2, 1));
    out.emplace_back("window" + size, WindowPathHypergraph(m + 3, 4, 1));
    out.emplace_back("cycle" + size, CycleHypergraph(m));
    out.emplace_back("tristrip" + size, TriangleStripHypergraph(m / 3));
    out.emplace_back("adder" + size, AdderHypergraph(m / 5));
    out.emplace_back("bridge" + size, BridgeHypergraph(m / 5));
  }
  return out;
}

// ---------------------------------------------------------------------------
// The differentials.
// ---------------------------------------------------------------------------

TEST(KDeciderDiffTest, DataCorpusAtWidthsOneToThree) {
  PoisonedCount();
  int files = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(GHD_DATA_DIR)) {
    if (entry.path().extension() != ".hg") continue;
    const Hypergraph h = LoadHg(entry.path().string()).value();
    const GuardFamily family = OriginalEdgesFamily(h);
    const std::string name = entry.path().filename().string();
    for (int k = 1; k <= 3; ++k) {
      CompareOne(h, family, k, 200000, name + " k=" + std::to_string(k));
    }
    CompareLadder(h, family, 1, 3, 200000, name + " ladder");
    ++files;
  }
  EXPECT_GE(files, 10);
  EXPECT_EQ(PoisonedCount(), 0);
}

TEST(KDeciderDiffTest, SparseScaleShapesAndRelabelings) {
  Rng rng(0x5ca1e);
  for (const auto& [name, base] : SparseScaleShapes()) {
    for (int r = 0; r < 6; ++r) {
      const Hypergraph h = r == 0 ? base : RandomRelabeling(base, &rng);
      const GuardFamily family = OriginalEdgesFamily(h);
      const std::string what = name + " relabeling " + std::to_string(r);
      CompareLadder(h, family, HwLowerBound(h), 3, 0, what);
    }
  }
}

TEST(KDeciderDiffTest, RepeatBatchCatalogue) {
  Rng rng(89);
  for (const auto& [name, base] : RepeatBatchCatalogue()) {
    const Hypergraph h = RandomRelabeling(base, &rng);
    CompareLadder(h, OriginalEdgesFamily(h), 1, 3, 200000, name);
  }
}

// Edge sizes that do not follow edge ids: the tail's static order (size
// desc, id asc) differs from id order here.
TEST(KDeciderDiffTest, MixedArityInstances) {
  PoisonedCount();
  for (uint64_t seed = 1; seed <= 16; ++seed) {
    const Hypergraph h = MixedArityHypergraph(30, 36, 5, seed);
    const std::string name = "mixed" + std::to_string(seed);
    CompareLadder(h, OriginalEdgesFamily(h), 1, 4, 200000, name);
    SubedgeClosureOptions options;
    options.max_union_arity = 2;
    CompareLadder(h, BipSubedgeClosure(h, options).family, 1, 2, 200000,
                  name + " bip");
  }
  EXPECT_EQ(PoisonedCount(), 0);
}

TEST(KDeciderDiffTest, ClosureFamilies) {
  const std::vector<std::pair<std::string, Hypergraph>> instances = {
      {"triangle", CycleHypergraph(3)},
      {"cycle12", CycleHypergraph(12)},
      {"grid4x4", Grid2dHypergraph(4, 4)},
      {"adder4", AdderHypergraph(4)},
      {"bridge4", BridgeHypergraph(4)},
      {"tristrip12", TriangleStripHypergraph(12)},
      {"random", RandomBoundedIntersectionHypergraph(14, 10, 3, 1, 4)},
  };
  for (const auto& [name, h] : instances) {
    // BipGhwDecide's family: the bounded-intersection closure.
    for (int k = 1; k <= 3; ++k) {
      SubedgeClosureOptions options;
      options.max_union_arity = k;
      const SubedgeClosureResult bip = BipSubedgeClosure(h, options);
      CompareOne(h, bip.family, k, 0,
                 name + " bip k=" + std::to_string(k));
    }
    // GhwViaFullClosure's ladder over every subedge.
    const SubedgeClosureResult full = FullSubedgeClosure(h);
    ASSERT_TRUE(full.complete()) << name;
    const KDeciderResult top =
        CompareLadder(h, full.family, 1, h.num_edges(), 0, name + " full");
    EXPECT_TRUE(top.decided && top.exists) << name;
  }
}

TEST(KDeciderDiffTest, TreeProjectionTargetsWithoutParents) {
  const std::vector<std::pair<std::string, Hypergraph>> instances = {
      {"triangle", CycleHypergraph(3)},
      {"cycle16", CycleHypergraph(16)},
      {"grid4x4", Grid2dHypergraph(4, 4)},
      {"adder4", AdderHypergraph(4)},
      {"bridge3", BridgeHypergraph(3)},
      {"window24", WindowPathHypergraph(24, 3, 1)},
  };
  for (const auto& [name, h] : instances) {
    for (int k = 1; k <= 2; ++k) {
      const Hypergraph g = KFoldUnionHypergraph(h, k, 20000).value();
      GuardFamily family;
      family.guards = g.edges();
      family.parent_edge.assign(g.num_edges(), -1);
      CompareOne(h, family, 1, 0, name + " H^[" + std::to_string(k) + "]");
    }
  }
}

TEST(KDeciderDiffTest, PersistentNegativesAcrossRebind) {
  PoisonedCount();
  const std::vector<std::pair<std::string, Hypergraph>> bases = {
      {"cycle40", CycleHypergraph(40)},
      {"tristrip13", TriangleStripHypergraph(13)},
      {"grid5x5", Grid2dHypergraph(5, 5)},
      {"adder8", AdderHypergraph(8)},
  };
  for (const auto& [name, base] : bases) {
    TraceGenOptions options;
    options.events = 120;
    options.seed = 7;
    options.k = 2;
    const WorkloadTrace trace = GenerateTrace(base, options);
    // Each side owns its versions and families: a context keeps pointers.
    std::vector<std::unique_ptr<Hypergraph>> versions;
    std::vector<std::unique_ptr<GuardFamily>> families;
    versions.push_back(std::make_unique<Hypergraph>(trace.base));
    families.push_back(
        std::make_unique<GuardFamily>(OriginalEdgesFamily(*versions.back())));
    KLadderContext got_ladder(*versions.back(), *families.back());
    RefLadder want_ladder(*versions.back(), *families.back());
    got_ladder.PersistNegatives();
    want_ladder.persist_negatives = true;
    int event = 0;
    for (const TraceEvent& ev : trace.events) {
      const std::string what = name + " event " + std::to_string(event++);
      const Hypergraph& current = *versions.back();
      if (ev.kind == TraceEvent::Kind::kDelta) {
        EdgeDelta delta;
        ASSERT_TRUE(ResolveDelta(current, ev, &delta).ok()) << what;
        EdgeDeltaResult r = ApplyEdgeDelta(current, delta);
        VertexSet dirty_edges = current.EdgesIntersecting(r.dirty_vertices);
        for (int e : delta.removed_edges) dirty_edges.Set(e);
        versions.push_back(std::make_unique<Hypergraph>(std::move(r.next)));
        families.push_back(std::make_unique<GuardFamily>(
            OriginalEdgesFamily(*versions.back())));
        got_ladder.Rebind(*versions.back(), *families.back(), dirty_edges,
                          r.edge_map);
        want_ladder.Rebind(*versions.back(), *families.back(), dirty_edges,
                           r.edge_map);
        continue;
      }
      // Same-k asks only: the warm ladder's k never goes down.
      const int k = std::max(ev.k > 0 ? ev.k : trace.default_k,
                             got_ladder.max_k());
      Budget got_budget(0, 200000);
      Budget want_budget(0, 200000);
      KDeciderOptions got_options;
      got_options.budget = &got_budget;
      KDeciderOptions want_options;
      want_options.budget = &want_budget;
      ExpectSame(DecideWidthK(current, *families.back(), k, got_options,
                              &got_ladder),
                 RefDecideWidthK(current, *families.back(), k, want_options,
                                 &want_ladder),
                 what);
    }
  }
  EXPECT_EQ(PoisonedCount(), 0);
}

TEST(KDeciderDiffTest, TickBudgetsOneToTwoHundred) {
  PoisonedCount();
  const std::vector<std::pair<std::string, Hypergraph>> instances = {
      {"grid3x3", Grid2dHypergraph(3, 3)},
      {"grid4x4", Grid2dHypergraph(4, 4)},
      {"cycle20", CycleHypergraph(20)},
      {"adder4", AdderHypergraph(4)},
      {"bridge4", BridgeHypergraph(4)},
  };
  for (const auto& [name, h] : instances) {
    const GuardFamily family = OriginalEdgesFamily(h);
    for (long ticks = 1; ticks <= 200; ++ticks) {
      for (int k = 1; k <= 3; ++k) {
        CompareOne(h, family, k, ticks,
                   name + " k=" + std::to_string(k) + " ticks=" +
                       std::to_string(ticks));
      }
      CompareLadder(h, family, 1, 3, ticks,
                    name + " ladder ticks=" + std::to_string(ticks));
    }
  }
  EXPECT_EQ(PoisonedCount(), 0);
}

}  // namespace
}  // namespace ghd
