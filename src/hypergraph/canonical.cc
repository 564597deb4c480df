#include "hypergraph/canonical.h"

#include <algorithm>
#include <array>
#include <initializer_list>
#include <numeric>
#include <utility>

#include "hypergraph/cell_sizes.h"
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
// Callers sort first when the input is a multiset. The fold runs over
// `leading_zeros` zero values before `values`: xor with zero changes
// nothing, so they fold into one power of the multiplier, taken by
// squaring.
uint64_t HashValues(const uint64_t* values, size_t count, uint64_t seed,
                    size_t leading_zeros = 0) {
  uint64_t h = seed ^ (0xcbf29ce484222325ull + leading_zeros + count);
  uint64_t power = 0x100000001b3ull;
  for (size_t z = leading_zeros; z != 0; z >>= 1) {
    if (z & 1) h *= power;
    power *= power;
  }
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

// Lexicographic order on two id spans (a proper prefix first), ties broken
// by id: the order of std::vector's operator< plus the id tie-break.
template <typename It>
bool SpanLess(It a, It a_end, int a_id, It b, It b_end, int b_id) {
  const auto [pa, pb] = std::mismatch(a, a_end, b, b_end);
  if (pa != a_end && pb != b_end) return *pa < *pb;
  if (pa == a_end && pb == b_end) return a_id < b_id;
  return pa == a_end;
}

// One recoloring on the trail: the element (a vertex id, or ~e for edge e)
// and the color it had before.
struct Recolor {
  int32_t element;
  uint64_t old;
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
      : flat_(h.Flat()), options_(options),
        n_(h.num_vertices()), m_(h.num_edges()),
        vcells_(n_), ecells_(m_),
        stamp_v_(n_, 0), stamp_e_(m_, 0) {}

  CanonicalFormResult Run() {
    CanonicalFormResult result;
    InitialColors();
    TwinClasses();
    orbit_.resize(n_);
    std::iota(orbit_.begin(), orbit_.end(), 0);
    Search(/*depth=*/0);
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

  // The root's stable coloring, refined once more after individualizing
  // `individualized` when it is a vertex (StableColoring).
  RefinedColoring Stable(int individualized) {
    InitialColors();
    Refine();
    if (individualized >= 0) {
      Individualize(individualized);
      Refine();
    }
    return {vc_, ec_};
  }

 private:
  // Seed colors: vertex degree; edge arity plus (on small enough instances)
  // the sorted profile of pairwise intersection sizes. The profile walks the
  // vertex CSR: every edge met through a shared vertex is counted in a reused
  // array, and the m - |met| disjoint edges are the leading zeros of the
  // sorted profile, hashed without being written out. Cost is the sum over e
  // of the degrees of e's members. Every element starts dirty.
  void InitialColors() {
    vc_.resize(n_);
    ec_.resize(m_);
    const auto& vo = flat_.vertex_offsets();
    const auto& ve = flat_.vertex_edges();
    const auto& eo = flat_.edge_offsets();
    const auto& ev = flat_.edge_vertices();
    for (int v = 0; v < n_; ++v) {
      const long degree = vo[v + 1] - vo[v];
      vc_[v] = SplitMix64(kVertexSeed ^ static_cast<uint64_t>(degree));
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
        sorted.clear();
        for (const int f : met) {
          sorted.push_back(static_cast<uint64_t>(counts[f]));
          counts[f] = 0;
        }
        std::sort(sorted.begin(), sorted.end());
        h = HashCombine(h, HashValues(sorted.data(), sorted.size(), h,
                                      m_ - met.size()));
      }
      ec_[e] = h;
    }
    for (const uint64_t x : vc_) vcells_.Add(x, 1);
    for (const uint64_t x : ec_) ecells_.Add(x, 1);
    dirty_v_.resize(n_);
    dirty_e_.resize(m_);
    std::iota(dirty_v_.begin(), dirty_v_.end(), 0);
    std::iota(dirty_e_.begin(), dirty_e_.end(), 0);
  }

  // Two vertices are twins when their incidence lists are identical — every
  // automorphism-free search can order them arbitrarily, so a cell of
  // mutual twins never needs individualization. (Covers isolated vertices,
  // star leaves, and interchangeable pin vertices.) twin_[v] names v's twin
  // class by its smallest vertex id: vertices sorted by their vertex-CSR
  // lists (sorted, so equal sets are equal ranges), then by id.
  void TwinClasses() {
    const auto& vo = flat_.vertex_offsets();
    const auto& ve = flat_.vertex_edges();
    std::vector<int> by_list(n_);
    std::iota(by_list.begin(), by_list.end(), 0);
    auto same = [&](int a, int b) {
      return std::equal(ve.begin() + vo[a], ve.begin() + vo[a + 1],
                        ve.begin() + vo[b], ve.begin() + vo[b + 1]);
    };
    std::sort(by_list.begin(), by_list.end(), [&](int a, int b) {
      return SpanLess(ve.begin() + vo[a], ve.begin() + vo[a + 1], a,
                      ve.begin() + vo[b], ve.begin() + vo[b + 1], b);
    });
    twin_.resize(n_);
    for (int i = 0; i < n_; ++i) {
      const int v = by_list[i];
      twin_[v] = i > 0 && same(by_list[i - 1], v) ? twin_[by_list[i - 1]] : v;
    }
    twin_seen_.assign(n_, 0);
  }

  // Worklist 1-WL on the incidence structure with Hopcroft's "all but the
  // largest" rule: only elements adjacent to a cell that split last
  // half-round are rescored, and of a cell that splits, all parts but one
  // are re-dirtied. When the whole cell was rescored, its largest signature
  // group (ties: smallest signature) keeps the old color and stays clean —
  // its neighbors' counts into it are the old cell's counts minus the other
  // parts', which the re-dirtied parts already propagate. When only part of
  // the cell was rescored, the unrescored members keep the old color (their
  // signatures necessarily differ: every member of a just-created color is
  // dirty, so they have no neighbor in one) and every rescored group moves.
  // A path or chain therefore re-touches only the elements whose color
  // changes, not its whole interior cell every half-round, and re-refining
  // after individualizing one vertex costs work proportional to the region
  // the change wave reaches.
  //
  // Consumes `dirty_v_` / `dirty_e_`; every recoloring goes on the trail.
  // New colors are HashCombine(old color, signature): invariant under
  // relabeling, and cells only ever split, so termination is bounded by
  // n + m total splits (the round guard below only trips on a 64-bit color
  // collision, which makes the result wrong-but-deterministic — the same
  // failure class as an InstanceKey collision, and caught by
  // rehydration-time re-validation).
  void Refine() {
    const long max_half_rounds = 4L * (n_ + m_) + 8;
    long half_rounds = 0;
    while ((!dirty_v_.empty() || !dirty_e_.empty()) &&
           half_rounds++ < max_half_rounds) {
      ++rounds_;
      const bool vertex_side = !dirty_v_.empty();
      std::vector<int>& dirty = vertex_side ? dirty_v_ : dirty_e_;
      // Rescore the neighbors of the dirty elements on the opposite side.
      touched_.clear();
      if (vertex_side) {
        const auto& vo = flat_.vertex_offsets();
        const auto& ve = flat_.vertex_edges();
        for (int v : dirty) {
          for (int32_t i = vo[v]; i < vo[v + 1]; ++i) {
            const int e = ve[i];
            if (stamp_e_[e] != stamp_) {
              stamp_e_[e] = stamp_;
              touched_.push_back(e);
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
              touched_.push_back(v);
            }
          }
        }
      }
      dirty.clear();
      ++stamp_;
      // (old color, signature, element) triples of the rescored side, sorted
      // to group cells and candidate splits. Members of singleton cells
      // cannot split and are not scored.
      std::vector<uint64_t>& colors = vertex_side ? ec_ : vc_;
      CellSizes& cells = vertex_side ? ecells_ : vcells_;
      scored_.clear();
      for (const int x : touched_) {
        if (cells.Get(colors[x]) == 1) continue;
        neighbors_.clear();
        if (vertex_side) {
          const auto& eo = flat_.edge_offsets();
          const auto& ev = flat_.edge_vertices();
          for (int32_t i = eo[x]; i < eo[x + 1]; ++i) {
            neighbors_.push_back(vc_[ev[i]]);
          }
        } else {
          const auto& vo = flat_.vertex_offsets();
          const auto& ve = flat_.vertex_edges();
          for (int32_t i = vo[x]; i < vo[x + 1]; ++i) {
            neighbors_.push_back(ec_[ve[i]]);
          }
        }
        std::sort(neighbors_.begin(), neighbors_.end());
        const uint64_t sig =
            HashValues(neighbors_.data(), neighbors_.size(),
                       vertex_side ? kEdgeSeed : kVertexSeed);
        scored_.push_back({colors[x], sig, static_cast<uint64_t>(x)});
      }
      std::sort(scored_.begin(), scored_.end());
      std::vector<int>& split_out = vertex_side ? dirty_e_ : dirty_v_;
      for (size_t i = 0; i < scored_.size();) {
        size_t j = i;
        while (j < scored_.size() && scored_[j][0] == scored_[i][0]) ++j;
        const uint64_t old = scored_[i][0];
        const bool whole = static_cast<int>(j - i) == cells.Get(old);
        // Whole cell rescored into one signature group: nothing separated,
        // every member keeps its color.
        if (whole && scored_[j - 1][1] == scored_[i][1]) {
          i = j;
          continue;
        }
        size_t keep_begin = j, keep_size = 0;
        if (whole) {
          for (size_t g = i; g < j;) {
            size_t h = g;
            while (h < j && scored_[h][1] == scored_[g][1]) ++h;
            if (h - g > keep_size) {
              keep_begin = g;
              keep_size = h - g;
            }
            g = h;
          }
        }
        int moved = 0;
        for (size_t g = i; g < j;) {
          size_t h = g;
          while (h < j && scored_[h][1] == scored_[g][1]) ++h;
          if (g != keep_begin) {
            const uint64_t fresh = HashCombine(old, scored_[g][1]);
            for (size_t t = g; t < h; ++t) {
              const int x = static_cast<int>(scored_[t][2]);
              trail_.push_back({vertex_side ? ~x : x, colors[x]});
              colors[x] = fresh;
              split_out.push_back(x);
            }
            cells.Add(fresh, static_cast<int>(h - g));
            moved += static_cast<int>(h - g);
          }
          g = h;
        }
        cells.Add(old, -moved);
        i = j;
      }
    }
  }

  // Splits v off its cell onto a salted color and makes it the only dirty
  // element, on the trail like any refinement step.
  void Individualize(int v) {
    const uint64_t old = vc_[v];
    const uint64_t fresh = HashCombine(old, kIndivSalt);
    trail_.push_back({v, old});
    vcells_.Add(old, -1);
    vcells_.Add(fresh, 1);
    vc_[v] = fresh;
    dirty_v_.assign(1, v);
    dirty_e_.clear();
  }

  // Rolls the coloring back to the trail length `mark`.
  void Undo(size_t mark) {
    while (trail_.size() > mark) {
      const Recolor r = trail_.back();
      trail_.pop_back();
      const bool edge = r.element < 0;
      const int x = edge ? ~r.element : r.element;
      std::vector<uint64_t>& colors = edge ? ec_ : vc_;
      CellSizes& cells = edge ? ecells_ : vcells_;
      cells.Add(colors[x], -1);
      cells.Add(r.old, 1);
      colors[x] = r.old;
    }
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

  // The recursive individualization-refinement search over the one coloring
  // it refines in place: each node refines from the dirty elements its
  // parent left (the root: everything; a branch: its individualized
  // vertex), and the parent rolls the trail back after each branch.
  void Search(int depth) {
    ++nodes_;
    Refine();
    // The vertices of non-singleton cells, grouped by color (sorted by color
    // value, which is relabeling-invariant; original ids only break ties
    // inside cells).
    by_color_.clear();
    for (int v = 0; v < n_; ++v) {
      if (vcells_.Get(vc_[v]) > 1) by_color_.push_back({vc_[v], v});
    }
    std::sort(by_color_.begin(), by_color_.end());
    // Find the target cell: smallest non-twin cell, ties by color value
    // (scan order). Cells wholly made of twins are resolved as-is.
    size_t target_begin = 0, target_size = 0;
    for (size_t i = 0; i < by_color_.size();) {
      const int first = by_color_[i].second;
      bool all_twins = true;
      size_t j = i + 1;
      for (; j < by_color_.size() && by_color_[j].first == by_color_[i].first;
           ++j) {
        all_twins = all_twins && twin_[by_color_[j].second] == twin_[first];
      }
      if (!all_twins && (target_size == 0 || j - i < target_size)) {
        target_begin = i;
        target_size = j - i;
      }
      i = j;
    }
    if (target_size == 0) {
      EmitLeaf();
      return;
    }
    if (nodes_ >= options_.max_nodes) fallback_ = true;
    // Branch over one representative per twin class of the target cell; twin
    // candidates generate identical subtrees. Under the fallback only the
    // first representative is explored (deterministic, not invariant).
    std::vector<int> reps;
    ++twin_stamp_;
    for (size_t t = target_begin; t < target_begin + target_size; ++t) {
      const int v = by_color_[t].second;
      if (twin_seen_[twin_[v]] != twin_stamp_) {
        twin_seen_[twin_[v]] = twin_stamp_;
        reps.push_back(v);
      }
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
    for (const int v : reps) {
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
      const size_t mark = trail_.size();
      Individualize(v);
      path_.push_back(v);
      Search(depth + 1);
      path_.pop_back();
      Undo(mark);
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
  void EmitLeaf() {
    by_color_.clear();
    for (int v = 0; v < n_; ++v) by_color_.push_back({vc_[v], v});
    std::sort(by_color_.begin(), by_color_.end());
    vperm_.resize(n_);
    for (int i = 0; i < n_; ++i) vperm_[by_color_[i].second] = i;
    // Relabel every edge in place on the edge CSR layout and sort members.
    const auto& ev = flat_.edge_vertices();
    const auto& eo = flat_.edge_offsets();
    relabeled_.resize(ev.size());
    for (size_t i = 0; i < ev.size(); ++i) {
      relabeled_[i] = static_cast<uint32_t>(vperm_[ev[i]]);
    }
    for (int e = 0; e < m_; ++e) {
      std::sort(relabeled_.begin() + eo[e], relabeled_.begin() + eo[e + 1]);
    }
    // Canonical edge order: lexicographic on relabeled content (edge colors
    // are a refinement of content, so content ordering is invariant); ties
    // are parallel edges — interchangeable, broken by original id.
    edge_order_.resize(m_);
    std::iota(edge_order_.begin(), edge_order_.end(), 0);
    const uint32_t* rel = relabeled_.data();
    std::sort(edge_order_.begin(), edge_order_.end(), [&](int a, int b) {
      return SpanLess(rel + eo[a], rel + eo[a + 1], a, rel + eo[b],
                      rel + eo[b + 1], b);
    });
    encoding_.clear();
    encoding_.reserve(2 + static_cast<size_t>(m_) + ev.size());
    encoding_.push_back(static_cast<uint32_t>(n_));
    encoding_.push_back(static_cast<uint32_t>(m_));
    for (const int e : edge_order_) {
      encoding_.push_back(static_cast<uint32_t>(eo[e + 1] - eo[e]));
      encoding_.insert(encoding_.end(), rel + eo[e], rel + eo[e + 1]);
    }
    for (const Leaf* earlier : {&first_, &best_}) {
      if (earlier->set && encoding_ == earlier->encoding) {
        ApplyAutomorphism(*earlier);
        return;
      }
    }
    if (best_.set && encoding_ > best_.encoding) return;
    eperm_.resize(m_);
    for (int i = 0; i < m_; ++i) eperm_[edge_order_[i]] = i;
    if (!first_.set) Keep(&first_);
    Keep(&best_);
  }

  void Keep(Leaf* leaf) const {
    leaf->set = true;
    leaf->encoding = encoding_;
    leaf->vertex_perm = vperm_;
    leaf->edge_perm = eperm_;
    leaf->path = path_;
  }

  // The current leaf (relabeling `vperm_`) has the same encoding as
  // `earlier`, so gamma = inv(vperm_) o earlier.vertex_perm is an
  // automorphism of h that maps the earlier leaf onto this one. Fold it into
  // the orbit partition for the root loop. Then, if gamma maps the earlier
  // path onto the current one up to and including the depth l where they
  // part — it fixes the common prefix and sends earlier.path[l] to path_[l]
  // — the current depth-(l+1) subtree is gamma's image of the earlier one.
  // Refinement, the target-cell rule and the twin test are label-invariant,
  // so every leaf encoding in it was already seen there (that subtree is
  // finished: the earlier leaf comes first in DFS order). Unwind to depth l.
  // The first leaf in DFS order that reaches the minimal encoding is never
  // inside an abandoned subtree, so the result is the one the unpruned
  // search returns.
  void ApplyAutomorphism(const Leaf& earlier) {
    std::vector<int> inv(n_);
    for (int v = 0; v < n_; ++v) inv[vperm_[v]] = v;
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

  const FlatHypergraph& flat_;
  const CanonicalizeOptions& options_;
  const int n_;
  const int m_;
  // The coloring the search refines in place, its cell sizes, and the trail
  // of recolorings that Undo rolls back.
  std::vector<uint64_t> vc_;
  std::vector<uint64_t> ec_;
  CellSizes vcells_;
  CellSizes ecells_;
  std::vector<Recolor> trail_;
  // The just-split elements the next Refine starts from.
  std::vector<int> dirty_v_;
  std::vector<int> dirty_e_;
  // Twin class per vertex, and the stamps that pick one representative per
  // class from a target cell.
  std::vector<int> twin_;
  std::vector<long> twin_seen_;
  long twin_stamp_ = 0;
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
  // Scratch reused across nodes and leaves.
  std::vector<int> touched_;
  std::vector<uint64_t> neighbors_;
  std::vector<std::array<uint64_t, 3>> scored_;
  std::vector<std::pair<uint64_t, int>> by_color_;
  std::vector<int> vperm_;
  std::vector<int> eperm_;
  std::vector<uint32_t> relabeled_;
  std::vector<int> edge_order_;
  std::vector<uint32_t> encoding_;
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

RefinedColoring StableColoring(const Hypergraph& h, int individualized) {
  const CanonicalizeOptions options;
  return CanonicalSearch(h, options).Stable(individualized);
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
