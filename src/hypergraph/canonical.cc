#include "hypergraph/canonical.h"

#include <algorithm>
#include <array>
#include <initializer_list>
#include <numeric>
#include <unordered_map>

#include "hypergraph/flat_hypergraph.h"
#include "obs/obs.h"
#include "util/check.h"

namespace ghd {
namespace {

// Independent seeds for the two key halves, the vertex/edge color domains,
// and the individualization salt. Arbitrary odd constants; changing any of
// them invalidates every persisted cache file (cache/decomp_cache.cc bumps
// its format version for that).
constexpr uint64_t kVertexSeed = 0x633d5c0744964b1dull;
constexpr uint64_t kEdgeSeed = 0x2b1f8e7a94d3c5f1ull;
constexpr uint64_t kIndivSalt = 0x5bf03635d1a4e02bull;
constexpr uint64_t kKeySeedHi = 0x8f14e45fceea167aull;
constexpr uint64_t kKeySeedLo = 0x452821e638d01377ull;
constexpr uint64_t kNoncanonicalMark = 0xdeadbeefcafef00dull;

// Order-dependent FNV-1a-style fold over 64-bit values, splitmix-finalized.
// Callers sort first when the input is a multiset.
uint64_t HashValues(const uint64_t* values, size_t count, uint64_t seed) {
  uint64_t h = seed ^ (0xcbf29ce484222325ull + count);
  for (size_t i = 0; i < count; ++i) {
    h ^= values[i];
    h *= 0x100000001b3ull;
  }
  return SplitMix64(h);
}

uint64_t HashInts(const uint32_t* values, size_t count, uint64_t seed) {
  uint64_t h = seed ^ (0xcbf29ce484222325ull + count);
  for (size_t i = 0; i < count; ++i) {
    h ^= values[i];
    h *= 0x100000001b3ull;
  }
  return SplitMix64(h);
}

// One node of the individualization-refinement search: a pair of color
// vectors over vertices and edges plus the cell sizes keyed by color value.
// The counts let the worklist refinement decide "did this cell actually
// split" without ever scanning the full color vectors.
struct Coloring {
  std::vector<uint64_t> vc;
  std::vector<uint64_t> ec;
  std::unordered_map<uint64_t, int> vcount;
  std::unordered_map<uint64_t, int> ecount;
};

// A leaf the search keeps: its encoding (compared lexicographically), the
// permutations that produced it, and the individualized vertices on the way
// down (path[d] is the vertex the depth-d node branched on).
struct Leaf {
  bool set = false;
  std::vector<uint32_t> encoding;
  std::vector<int> vertex_perm;
  std::vector<int> edge_perm;
  std::vector<int> path;
};

class CanonicalSearch {
 public:
  CanonicalSearch(const Hypergraph& h, const CanonicalizeOptions& options)
      : h_(h), flat_(h.Flat()), options_(options),
        n_(h.num_vertices()), m_(h.num_edges()),
        stamp_v_(h.num_vertices(), 0), stamp_e_(h.num_edges(), 0) {}

  CanonicalFormResult Run() {
    CanonicalFormResult result;
    Coloring start;
    InitialColors(&start);
    std::vector<int> all_v(n_), all_e(m_);
    std::iota(all_v.begin(), all_v.end(), 0);
    std::iota(all_e.begin(), all_e.end(), 0);
    orbit_.resize(n_);
    std::iota(orbit_.begin(), orbit_.end(), 0);
    Search(std::move(start), std::move(all_v), std::move(all_e),
           /*depth=*/0);
    GHD_CHECK(best_.set);
    result.vertex_perm = std::move(best_.vertex_perm);
    result.edge_perm = std::move(best_.edge_perm);
    result.canonical = !fallback_;
    result.nodes_explored = nodes_;
    result.refinement_rounds = rounds_;
    result.backjumps = backjumps_;
    uint64_t seed_hi = kKeySeedHi;
    uint64_t seed_lo = kKeySeedLo;
    if (fallback_) {
      // A budget-truncated search is not relabeling-invariant; poison the
      // seeds so a truncated key can never collide with the canonical key of
      // the same (or any other) instance.
      seed_hi = HashCombine(seed_hi, kNoncanonicalMark);
      seed_lo = HashCombine(seed_lo, kNoncanonicalMark);
      GHD_COUNT(kCanonFallbacks);
    }
    result.key.hi =
        HashInts(best_.encoding.data(), best_.encoding.size(), seed_hi);
    result.key.lo =
        HashInts(best_.encoding.data(), best_.encoding.size(), seed_lo);
    GHD_COUNT_N(kCanonNodes, nodes_);
    GHD_COUNT_N(kCanonBackjumps, backjumps_);
    return result;
  }

 private:
  // Seed colors: vertex degree; edge arity plus (on small enough instances)
  // the sorted profile of pairwise intersection sizes. The profile walks the
  // vertex CSR: every edge met through a shared vertex is counted in a reused
  // array, and the m - |met| disjoint edges are the leading zeros of the
  // sorted profile. Cost is the sum over e of the degrees of e's members.
  void InitialColors(Coloring* c) {
    c->vc.resize(n_);
    c->ec.resize(m_);
    const auto& vo = flat_.vertex_offsets();
    const auto& ve = flat_.vertex_edges();
    const auto& eo = flat_.edge_offsets();
    const auto& ev = flat_.edge_vertices();
    for (int v = 0; v < n_; ++v) {
      const long degree = vo[v + 1] - vo[v];
      c->vc[v] = SplitMix64(kVertexSeed ^ static_cast<uint64_t>(degree));
    }
    const bool profile = m_ > 0 && m_ <= kMaxProfileEdges;
    std::vector<int> counts(profile ? m_ : 0, 0);
    std::vector<int> met;
    std::vector<uint64_t> sorted;
    for (int e = 0; e < m_; ++e) {
      const long arity = eo[e + 1] - eo[e];
      uint64_t h = SplitMix64(kEdgeSeed ^ static_cast<uint64_t>(arity));
      if (profile) {
        met.clear();
        for (int32_t i = eo[e]; i < eo[e + 1]; ++i) {
          const int v = ev[i];
          for (int32_t j = vo[v]; j < vo[v + 1]; ++j) {
            if (counts[ve[j]]++ == 0) met.push_back(ve[j]);
          }
        }
        sorted.assign(m_ - met.size(), 0);
        for (const int f : met) {
          sorted.push_back(static_cast<uint64_t>(counts[f]));
          counts[f] = 0;
        }
        std::sort(sorted.end() - met.size(), sorted.end());
        h = HashCombine(h, HashValues(sorted.data(), sorted.size(), h));
      }
      c->ec[e] = h;
    }
    for (const uint64_t x : c->vc) ++c->vcount[x];
    for (const uint64_t x : c->ec) ++c->ecount[x];
  }

  // Worklist 1-WL on the incidence structure, Paige-Tarjan style: only
  // elements adjacent to a cell that split last half-round are rescored, and
  // a rescored cell moves only the members whose signature actually
  // separates them (members left untouched keep their color — their
  // signatures are determined by cell-formation history plus the preserved
  // neighbor counts, so skipping them is the classic "all but one part"
  // split). This is what makes individualization affordable: re-refining
  // after splitting one vertex off costs work proportional to the region the
  // change wave reaches, not rounds * (n + m). On a cycle — vertex-
  // transitive, so every branch of the search pays a full refinement — the
  // end-to-end canonicalization drops from quadratic per branch to linear
  // (BM_Canonicalize/256 pins it).
  //
  // `dirty_v` / `dirty_e` are the just-split elements (consumed). New colors
  // are HashCombine(old color, signature): invariant under relabeling, and
  // cells only ever split, so termination is bounded by n + m total splits
  // (the round guard below only trips on a 64-bit color collision, which
  // makes the result wrong-but-deterministic — the same failure class as an
  // InstanceKey collision, and caught by rehydration-time re-validation).
  void Refine(Coloring* c, std::vector<int> dirty_v, std::vector<int> dirty_e) {
    std::vector<uint64_t> neighbors;
    // (old color, signature, element) triples of the rescored side, sorted to
    // group cells and candidate splits.
    std::vector<std::array<uint64_t, 3>> scored;
    std::vector<int> touched;
    const long max_half_rounds = 4L * (n_ + m_) + 8;
    long half_rounds = 0;
    while ((!dirty_v.empty() || !dirty_e.empty()) &&
           half_rounds++ < max_half_rounds) {
      ++rounds_;
      const bool vertex_side = !dirty_v.empty();
      std::vector<int>& dirty = vertex_side ? dirty_v : dirty_e;
      // Rescore the neighbors of the dirty elements on the opposite side.
      touched.clear();
      if (vertex_side) {
        const auto& vo = flat_.vertex_offsets();
        const auto& ve = flat_.vertex_edges();
        for (int v : dirty) {
          for (int32_t i = vo[v]; i < vo[v + 1]; ++i) {
            const int e = ve[i];
            if (stamp_e_[e] != stamp_) {
              stamp_e_[e] = stamp_;
              touched.push_back(e);
            }
          }
        }
      } else {
        const auto& eo = flat_.edge_offsets();
        const auto& ev = flat_.edge_vertices();
        for (int e : dirty) {
          for (int32_t i = eo[e]; i < eo[e + 1]; ++i) {
            const int v = ev[i];
            if (stamp_v_[v] != stamp_) {
              stamp_v_[v] = stamp_;
              touched.push_back(v);
            }
          }
        }
      }
      dirty.clear();
      ++stamp_;
      scored.clear();
      scored.reserve(touched.size());
      for (const int x : touched) {
        neighbors.clear();
        if (vertex_side) {
          const auto& eo = flat_.edge_offsets();
          const auto& ev = flat_.edge_vertices();
          for (int32_t i = eo[x]; i < eo[x + 1]; ++i) {
            neighbors.push_back(c->vc[ev[i]]);
          }
        } else {
          const auto& vo = flat_.vertex_offsets();
          const auto& ve = flat_.vertex_edges();
          for (int32_t i = vo[x]; i < vo[x + 1]; ++i) {
            neighbors.push_back(c->ec[ve[i]]);
          }
        }
        std::sort(neighbors.begin(), neighbors.end());
        const uint64_t sig =
            HashValues(neighbors.data(), neighbors.size(),
                       vertex_side ? kEdgeSeed : kVertexSeed);
        const uint64_t old =
            vertex_side ? c->ec[x] : c->vc[x];
        scored.push_back({old, sig, static_cast<uint64_t>(x)});
      }
      std::sort(scored.begin(), scored.end());
      std::vector<uint64_t>& colors = vertex_side ? c->ec : c->vc;
      std::unordered_map<uint64_t, int>& counts =
          vertex_side ? c->ecount : c->vcount;
      std::vector<int>& split_out = vertex_side ? dirty_e : dirty_v;
      for (size_t i = 0; i < scored.size();) {
        size_t j = i;
        while (j < scored.size() && scored[j][0] == scored[i][0]) ++j;
        const uint64_t old = scored[i][0];
        const int cell_size = counts.at(old);
        // Whole cell rescored into one signature group: nothing separated,
        // every member keeps its color.
        if (static_cast<int>(j - i) == cell_size &&
            scored[j - 1][1] == scored[i][1]) {
          i = j;
          continue;
        }
        // Otherwise every rescored member moves to a signature-refined
        // color; unrescored members (signature necessarily distinct — their
        // neighborhoods kept the pre-split colors) stay behind on `old`.
        int moved = 0;
        for (size_t g = i; g < j;) {
          size_t h = g;
          while (h < j && scored[h][1] == scored[g][1]) ++h;
          const uint64_t fresh = HashCombine(old, scored[g][1]);
          for (size_t t = g; t < h; ++t) {
            const int x = static_cast<int>(scored[t][2]);
            colors[x] = fresh;
            split_out.push_back(x);
          }
          counts[fresh] += static_cast<int>(h - g);
          moved += static_cast<int>(h - g);
          g = h;
        }
        if ((counts[old] -= moved) <= 0) counts.erase(old);
        i = j;
      }
    }
  }

  // Two vertices are twins when their incidence lists are identical — every
  // automorphism-free search can order them arbitrarily, so a cell of
  // mutual twins never needs individualization. (Covers isolated vertices,
  // star leaves, and interchangeable pin vertices.) The vertex CSR lists are
  // sorted, so equal sets are equal ranges.
  bool VerticesAreTwins(int a, int b) const {
    const auto& vo = flat_.vertex_offsets();
    const auto& ve = flat_.vertex_edges();
    return vo[a + 1] - vo[a] == vo[b + 1] - vo[b] &&
           std::equal(ve.begin() + vo[a], ve.begin() + vo[a + 1],
                      ve.begin() + vo[b]);
  }

  // Orbit partition of the automorphisms discovered so far (two leaves with
  // equal encodings compose to an automorphism). Path-halving find.
  int Find(int x) {
    while (orbit_[x] != x) x = orbit_[x] = orbit_[orbit_[x]];
    return x;
  }
  void Union(int a, int b) {
    a = Find(a);
    b = Find(b);
    if (a != b) orbit_[a] = b;
  }

  // The recursive individualization-refinement search. Consumes `c` and the
  // dirty worklists seeding its refinement (the root passes everything; a
  // branch passes just its individualized vertex).
  void Search(Coloring c, std::vector<int> dirty_v, std::vector<int> dirty_e,
              int depth) {
    ++nodes_;
    Refine(&c, std::move(dirty_v), std::move(dirty_e));
    // Group vertices into color cells (sorted by color value, which is
    // relabeling-invariant; original ids only break ties inside cells).
    std::vector<int> order(n_);
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](int a, int b) {
      return c.vc[a] != c.vc[b] ? c.vc[a] < c.vc[b] : a < b;
    });
    // Find the target cell: smallest non-twin cell, ties by color value
    // (scan order). Cells wholly made of twins are resolved as-is.
    int target_begin = -1, target_size = 0;
    for (int i = 0; i < n_;) {
      int j = i + 1;
      while (j < n_ && c.vc[order[j]] == c.vc[order[i]]) ++j;
      const int size = j - i;
      if (size > 1) {
        bool all_twins = true;
        for (int t = i + 1; t < j && all_twins; ++t) {
          all_twins = VerticesAreTwins(order[i], order[t]);
        }
        if (!all_twins &&
            (target_begin < 0 || size < target_size)) {
          target_begin = i;
          target_size = size;
        }
      }
      i = j;
    }
    if (target_begin < 0) {
      EmitLeaf(order);
      return;
    }
    if (nodes_ >= options_.max_nodes) fallback_ = true;
    // Branch over one representative per twin class of the target cell; twin
    // candidates generate identical subtrees. Under the fallback only the
    // first representative is explored (deterministic, not invariant).
    std::vector<int> reps;
    for (int t = target_begin; t < target_begin + target_size; ++t) {
      const int v = order[t];
      bool duplicate = false;
      for (int r : reps) {
        if (VerticesAreTwins(r, v)) {
          duplicate = true;
          break;
        }
      }
      if (!duplicate) reps.push_back(v);
    }
    // Root-level orbit pruning (McKay): if an already-explored root branch u
    // is in the same orbit as v under the automorphisms found so far, v's
    // subtree is the automorphic image of u's — same leaf encodings, nothing
    // new to find. Only sound at the root, where there is no individualized
    // prefix the automorphism would have to stabilize. This is what tames
    // vertex-transitive families: on a cycle the first branch discovers the
    // rotation, and the remaining n - 1 root branches collapse to orbit
    // lookups. Deeper levels prune by backjumping instead (EmitLeaf).
    std::vector<int> branched;
    for (size_t b = 0; b < reps.size(); ++b) {
      const int v = reps[b];
      if (depth == 0) {
        bool seen = false;
        for (const int u : branched) {
          if (Find(u) == Find(v)) {
            seen = true;
            break;
          }
        }
        if (seen) continue;
        branched.push_back(v);
      }
      Coloring child = c;
      const uint64_t old = child.vc[v];
      const uint64_t fresh = HashCombine(old, kIndivSalt);
      if (--child.vcount.at(old) == 0) child.vcount.erase(old);
      child.vcount[fresh] += 1;
      child.vc[v] = fresh;
      path_.push_back(v);
      Search(std::move(child), {v}, {}, depth + 1);
      path_.pop_back();
      if (fallback_) break;
      if (unwind_to_ >= 0) {
        // A leaf below proved the rest of the subtree at depth unwind_to_ + 1
        // automorphic to explored ground: nodes deeper than unwind_to_ return
        // at once, the node at unwind_to_ goes on with its next candidate.
        if (unwind_to_ < depth) return;
        unwind_to_ = -1;
      }
    }
  }

  // A discrete (or twin-resolved) leaf: derive the permutations, build the
  // canonical encoding, and keep it when lexicographically smaller than the
  // best seen. The first leaf is kept too, for automorphism detection.
  void EmitLeaf(const std::vector<int>& vertex_order) {
    std::vector<int> vperm(n_);
    for (int i = 0; i < n_; ++i) vperm[vertex_order[i]] = i;
    // Relabel every edge and sort members.
    std::vector<std::vector<uint32_t>> relabeled(m_);
    const auto& ev = flat_.edge_vertices();
    const auto& eo = flat_.edge_offsets();
    for (int e = 0; e < m_; ++e) {
      auto& members = relabeled[e];
      members.reserve(eo[e + 1] - eo[e]);
      for (int32_t i = eo[e]; i < eo[e + 1]; ++i) {
        members.push_back(static_cast<uint32_t>(vperm[ev[i]]));
      }
      std::sort(members.begin(), members.end());
    }
    // Canonical edge order: lexicographic on relabeled content (edge colors
    // are a refinement of content, so content ordering is invariant); ties
    // are parallel edges — interchangeable, broken by original id.
    std::vector<int> edge_order(m_);
    std::iota(edge_order.begin(), edge_order.end(), 0);
    std::sort(edge_order.begin(), edge_order.end(), [&](int a, int b) {
      return relabeled[a] != relabeled[b] ? relabeled[a] < relabeled[b]
                                          : a < b;
    });
    std::vector<uint32_t> encoding;
    encoding.reserve(2 + static_cast<size_t>(m_) + ev.size());
    encoding.push_back(static_cast<uint32_t>(n_));
    encoding.push_back(static_cast<uint32_t>(m_));
    for (int e : edge_order) {
      encoding.push_back(static_cast<uint32_t>(relabeled[e].size()));
      encoding.insert(encoding.end(), relabeled[e].begin(),
                      relabeled[e].end());
    }
    for (const Leaf* earlier : {&first_, &best_}) {
      if (earlier->set && encoding == earlier->encoding) {
        ApplyAutomorphism(*earlier, vperm);
        return;
      }
    }
    if (best_.set && encoding > best_.encoding) return;
    std::vector<int> eperm(m_);
    for (int i = 0; i < m_; ++i) eperm[edge_order[i]] = i;
    if (!first_.set) first_ = {true, encoding, vperm, eperm, path_};
    best_ = {true, std::move(encoding), std::move(vperm), std::move(eperm),
             path_};
  }

  // The current leaf (relabeling `vperm`) has the same encoding as `earlier`,
  // so gamma = inv(vperm) o earlier.vertex_perm is an automorphism of h that
  // maps the earlier leaf onto this one. Fold it into the orbit partition for
  // the root loop. Then, if gamma maps the earlier path onto the current one
  // up to and including the depth l where they part — it fixes the common
  // prefix and sends earlier.path[l] to path_[l] — the current depth-(l+1)
  // subtree is gamma's image of the earlier one. Refinement, the target-cell
  // rule and the twin test are label-invariant, so every leaf encoding in it
  // was already seen there (that subtree is finished: the earlier leaf comes
  // first in DFS order). Unwind to depth l. The first leaf in DFS order that
  // reaches the minimal encoding is never inside an abandoned subtree, so the
  // result is the one the unpruned search returns.
  void ApplyAutomorphism(const Leaf& earlier, const std::vector<int>& vperm) {
    std::vector<int> inv(n_);
    for (int v = 0; v < n_; ++v) inv[vperm[v]] = v;
    std::vector<int> gamma(n_);
    for (int v = 0; v < n_; ++v) {
      gamma[v] = inv[earlier.vertex_perm[v]];
      Union(v, gamma[v]);
    }
    const size_t depth = std::min(earlier.path.size(), path_.size());
    for (size_t l = 0; l < depth; ++l) {
      if (gamma[earlier.path[l]] != path_[l]) return;
      if (earlier.path[l] != path_[l]) {
        unwind_to_ = static_cast<int>(l);
        ++backjumps_;
        return;
      }
    }
  }

  const Hypergraph& h_;
  const FlatHypergraph& flat_;
  const CanonicalizeOptions& options_;
  const int n_;
  const int m_;
  Leaf first_;
  Leaf best_;
  // Vertices individualized on the way to the current node.
  std::vector<int> path_;
  // Depth the search is unwinding to after a backjump; -1 when not unwinding.
  int unwind_to_ = -1;
  long backjumps_ = 0;
  // Visit stamps for the worklist dedup in Refine (shared across the whole
  // search; the counter only moves forward).
  std::vector<uint64_t> stamp_v_;
  std::vector<uint64_t> stamp_e_;
  uint64_t stamp_ = 1;
  std::vector<int> orbit_;
  long nodes_ = 0;
  long rounds_ = 0;
  bool fallback_ = false;
};

}  // namespace

std::string InstanceKey::ToHex() const {
  static const char* digits = "0123456789abcdef";
  std::string out(32, '0');
  for (int i = 0; i < 16; ++i) {
    out[15 - i] = digits[(hi >> (4 * i)) & 0xf];
    out[31 - i] = digits[(lo >> (4 * i)) & 0xf];
  }
  return out;
}

CanonicalFormResult Canonicalize(const Hypergraph& h,
                                 const CanonicalizeOptions& options) {
  return CanonicalSearch(h, options).Run();
}

Hypergraph RelabeledHypergraph(const Hypergraph& h,
                               const std::vector<int>& vertex_perm,
                               const std::vector<int>& edge_perm) {
  const int n = h.num_vertices();
  const int m = h.num_edges();
  GHD_CHECK(static_cast<int>(vertex_perm.size()) == n);
  GHD_CHECK(static_cast<int>(edge_perm.size()) == m);
  std::vector<std::string> vertex_names(n);
  for (int v = 0; v < n; ++v) {
    GHD_CHECK(vertex_perm[v] >= 0 && vertex_perm[v] < n);
    vertex_names[vertex_perm[v]] = h.vertex_name(v);
  }
  std::vector<std::string> edge_names(m);
  std::vector<VertexSet> edges(m, VertexSet(n));
  for (int e = 0; e < m; ++e) {
    GHD_CHECK(edge_perm[e] >= 0 && edge_perm[e] < m);
    edge_names[edge_perm[e]] = h.edge_name(e);
    VertexSet mapped(n);
    h.edge(e).ForEach([&](int v) { mapped.Set(vertex_perm[v]); });
    edges[edge_perm[e]] = std::move(mapped);
  }
  return Hypergraph(std::move(vertex_names), std::move(edge_names),
                    std::move(edges));
}

}  // namespace ghd
