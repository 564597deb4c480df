// Canonical fingerprinting: isomorphism-differential tests (random
// relabelings keep the key), near-miss pairs (same degree profiles, distinct
// keys), and the interaction with subsumed-edge reduction and witness
// rehydration.
//
// The library search is also compared with a reference version kept only
// here: the search before automorphism backjumping, which prunes by orbits at
// the root alone, scores the intersection profile on the edges' dense vertex
// sets and copies its coloring into every branch. On data/*.hg, on the
// repeat_batch benchmark catalogue under relabelings and on random
// instances, wherever the reference finishes within its node budget, the
// library must return the same key, vertex and edge permutations and
// canonical flag. Bridges, disjoint unions and hypercubes, which the
// reference cannot all finish, must canonicalize within the default budget
// in polynomially many nodes.
//
// The reference refines with Hopcroft's "all but the largest" rule, as the
// library does. Its refinement can also run by the earlier rule, which moves
// every member of a wholly rescored cell that splits to a fresh color and
// rescores from all of them: the two rules must reach the same stable
// partition, at the root and after individualizing each vertex of the
// target cell.
#include <algorithm>
#include <array>
#include <filesystem>
#include <map>
#include <numeric>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "cache/cached_solver.h"
#include "gen/circuits.h"
#include "gen/generators.h"
#include "gen/random_hypergraphs.h"
#include "gtest/gtest.h"
#include "htd/det_k_decomp.h"
#include "hypergraph/canonical.h"
#include "hypergraph/cell_sizes.h"
#include "hypergraph/flat_hypergraph.h"
#include "hypergraph/hg_io.h"
#include "hypergraph/hypergraph_builder.h"
#include "hypergraph/reduce.h"
#include "test_instances.h"
#include "util/check.h"
#include "util/hash_mix.h"
#include "util/rng.h"

namespace ghd {
namespace {

// ---- Reference: the individualization-refinement search without
// backjumping, verbatim but for its comments, its counters and the choice
// of refinement rule.
namespace ref {

// How Refine splits a wholly rescored cell: every signature group to a fresh
// color, each re-dirtied (the earlier rule, the oracle for the partition),
// or all but the largest group (ties: smallest signature), which keeps the
// old color and stays clean (the library's rule; the search uses it).
enum class SplitRule { kAllParts, kAllButLargest };

constexpr uint64_t kVertexSeed = 0x633d5c0744964b1dull;
constexpr uint64_t kEdgeSeed = 0x2b1f8e7a94d3c5f1ull;
constexpr uint64_t kIndivSalt = 0x5bf03635d1a4e02bull;
constexpr uint64_t kKeySeedHi = 0x8f14e45fceea167aull;
constexpr uint64_t kKeySeedLo = 0x452821e638d01377ull;
constexpr uint64_t kNoncanonicalMark = 0xdeadbeefcafef00dull;

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

struct Coloring {
  std::vector<uint64_t> vc;
  std::vector<uint64_t> ec;
  std::unordered_map<uint64_t, int> vcount;
  std::unordered_map<uint64_t, int> ecount;
};

struct BestLeaf {
  bool set = false;
  std::vector<uint32_t> encoding;
  std::vector<int> vertex_perm;
  std::vector<int> edge_perm;
};

class RefCanonicalSearch {
 public:
  RefCanonicalSearch(const Hypergraph& h, const CanonicalizeOptions& options,
                     SplitRule rule = SplitRule::kAllButLargest)
      : h_(h), flat_(h.Flat()), options_(options), rule_(rule),
        n_(h.num_vertices()), m_(h.num_edges()),
        stamp_v_(h.num_vertices(), 0), stamp_e_(h.num_edges(), 0) {}

  // As the library's StableColoring: the root's stable coloring (refined
  // once per search object), refined again after individualizing
  // `individualized` when it is a vertex.
  RefinedColoring Stable(int individualized) {
    if (!root_.has_value()) {
      root_.emplace();
      InitialColors(&*root_);
      std::vector<int> all_v(n_), all_e(m_);
      std::iota(all_v.begin(), all_v.end(), 0);
      std::iota(all_e.begin(), all_e.end(), 0);
      Refine(&*root_, std::move(all_v), std::move(all_e));
    }
    Coloring c = *root_;
    if (individualized >= 0) {
      const int v = individualized;
      const uint64_t old = c.vc[v];
      const uint64_t fresh = HashCombine(old, kIndivSalt);
      if (--c.vcount.at(old) == 0) c.vcount.erase(old);
      c.vcount[fresh] += 1;
      c.vc[v] = fresh;
      Refine(&c, {v}, {});
    }
    return {c.vc, c.ec};
  }

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
    uint64_t seed_hi = kKeySeedHi;
    uint64_t seed_lo = kKeySeedLo;
    if (fallback_) {
      seed_hi = HashCombine(seed_hi, kNoncanonicalMark);
      seed_lo = HashCombine(seed_lo, kNoncanonicalMark);
    }
    result.key.hi =
        HashInts(best_.encoding.data(), best_.encoding.size(), seed_hi);
    result.key.lo =
        HashInts(best_.encoding.data(), best_.encoding.size(), seed_lo);
    return result;
  }

 private:
  void InitialColors(Coloring* c) {
    c->vc.resize(n_);
    c->ec.resize(m_);
    for (int v = 0; v < n_; ++v) {
      const long degree =
          flat_.vertex_offsets()[v + 1] - flat_.vertex_offsets()[v];
      c->vc[v] = SplitMix64(kVertexSeed ^ static_cast<uint64_t>(degree));
    }
    const bool profile = m_ > 0 && m_ <= kMaxProfileEdges;
    std::vector<uint64_t> sorted(m_);
    for (int e = 0; e < m_; ++e) {
      const long arity = flat_.edge_offsets()[e + 1] - flat_.edge_offsets()[e];
      uint64_t h = SplitMix64(kEdgeSeed ^ static_cast<uint64_t>(arity));
      if (profile) {
        for (int f = 0; f < m_; ++f) {
          sorted[f] =
              static_cast<uint64_t>(h_.edge(e).IntersectCount(h_.edge(f)));
        }
        std::sort(sorted.begin(), sorted.end());
        h = HashCombine(h, HashValues(sorted.data(), sorted.size(), h));
      }
      c->ec[e] = h;
    }
    for (const uint64_t x : c->vc) ++c->vcount[x];
    for (const uint64_t x : c->ec) ++c->ecount[x];
  }

  void Refine(Coloring* c, std::vector<int> dirty_v, std::vector<int> dirty_e) {
    std::vector<uint64_t> neighbors;
    std::vector<std::array<uint64_t, 3>> scored;
    std::vector<int> touched;
    const long max_half_rounds = 4L * (n_ + m_) + 8;
    long half_rounds = 0;
    while ((!dirty_v.empty() || !dirty_e.empty()) &&
           half_rounds++ < max_half_rounds) {
      ++rounds_;
      const bool vertex_side = !dirty_v.empty();
      std::vector<int>& dirty = vertex_side ? dirty_v : dirty_e;
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
        if (static_cast<int>(j - i) == cell_size &&
            scored[j - 1][1] == scored[i][1]) {
          i = j;
          continue;
        }
        size_t keep = j, keep_size = 0;
        if (rule_ == SplitRule::kAllButLargest &&
            static_cast<int>(j - i) == cell_size) {
          for (size_t g = i; g < j;) {
            size_t h = g;
            while (h < j && scored[h][1] == scored[g][1]) ++h;
            if (h - g > keep_size) {
              keep = g;
              keep_size = h - g;
            }
            g = h;
          }
        }
        int moved = 0;
        for (size_t g = i; g < j;) {
          size_t h = g;
          while (h < j && scored[h][1] == scored[g][1]) ++h;
          if (g == keep) {
            g = h;
            continue;
          }
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

  bool VerticesAreTwins(int a, int b) const {
    const std::vector<int32_t>& vo = flat_.vertex_offsets();
    const std::vector<int32_t>& ve = flat_.vertex_edges();
    return std::equal(ve.begin() + vo[a], ve.begin() + vo[a + 1],
                      ve.begin() + vo[b], ve.begin() + vo[b + 1]);
  }

  int Find(int x) {
    while (orbit_[x] != x) x = orbit_[x] = orbit_[orbit_[x]];
    return x;
  }
  void Union(int a, int b) {
    a = Find(a);
    b = Find(b);
    if (a != b) orbit_[a] = b;
  }

  void Search(Coloring c, std::vector<int> dirty_v, std::vector<int> dirty_e,
              int depth) {
    ++nodes_;
    Refine(&c, std::move(dirty_v), std::move(dirty_e));
    std::vector<int> order(n_);
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](int a, int b) {
      return c.vc[a] != c.vc[b] ? c.vc[a] < c.vc[b] : a < b;
    });
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
      Search(std::move(child), {v}, {}, depth + 1);
      if (fallback_) break;
    }
  }

  void EmitLeaf(const std::vector<int>& vertex_order) {
    std::vector<int> vperm(n_);
    for (int i = 0; i < n_; ++i) vperm[vertex_order[i]] = i;
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
    if (best_.set && encoding == best_.encoding) {
      std::vector<int> inv(n_);
      for (int v = 0; v < n_; ++v) inv[vperm[v]] = v;
      for (int v = 0; v < n_; ++v) Union(v, inv[best_.vertex_perm[v]]);
      return;
    }
    if (best_.set && encoding > best_.encoding) return;
    best_.set = true;
    best_.encoding = std::move(encoding);
    best_.vertex_perm = std::move(vperm);
    best_.edge_perm.assign(m_, 0);
    for (int i = 0; i < m_; ++i) best_.edge_perm[edge_order[i]] = i;
  }

  const Hypergraph& h_;
  const FlatHypergraph& flat_;
  const CanonicalizeOptions& options_;
  const SplitRule rule_;
  std::optional<Coloring> root_;
  const int n_;
  const int m_;
  BestLeaf best_;
  std::vector<uint64_t> stamp_v_;
  std::vector<uint64_t> stamp_e_;
  uint64_t stamp_ = 1;
  std::vector<int> orbit_;
  long nodes_ = 0;
  long rounds_ = 0;
  bool fallback_ = false;
};

CanonicalFormResult Canonicalize(const Hypergraph& h) {
  const CanonicalizeOptions options;
  return RefCanonicalSearch(h, options).Run();
}

}  // namespace ref

// Canonicalizes h and a random relabeling of h and asserts both agree on the
// key; returns the key.
InstanceKey ExpectInvariantKey(const Hypergraph& h, uint64_t seed) {
  const CanonicalFormResult base = Canonicalize(h);
  EXPECT_TRUE(base.canonical);
  Rng rng(seed);
  const Hypergraph scrambled = RelabeledHypergraph(
      h, RandomPerm(h.num_vertices(), &rng), RandomPerm(h.num_edges(), &rng));
  const CanonicalFormResult other = Canonicalize(scrambled);
  EXPECT_TRUE(other.canonical);
  EXPECT_EQ(base.key, other.key)
      << "key not invariant under relabeling (seed " << seed << ")";
  return base.key;
}

TEST(CanonicalTest, KeyInvariantAcrossFamilies) {
  const Hypergraph families[] = {
      Grid2dHypergraph(3, 4),       CycleHypergraph(9),
      TriangleStripHypergraph(5),   StarHypergraph(6, 3),
      WindowPathHypergraph(20, 4, 2), CliqueHypergraph(5),
      HypercubeHypergraph(3),
  };
  uint64_t seed = 1;
  for (const Hypergraph& h : families) {
    for (int rep = 0; rep < 5; ++rep) ExpectInvariantKey(h, seed++);
  }
}

TEST(CanonicalTest, KeyInvariantOnRandomInstances) {
  for (uint64_t seed = 0; seed < 10; ++seed) {
    ExpectInvariantKey(RandomUniformHypergraph(14, 10, 3, seed), 100 + seed);
    ExpectInvariantKey(
        RandomBoundedIntersectionHypergraph(16, 9, 4, 1, seed), 200 + seed);
  }
}

TEST(CanonicalTest, RelabeledHypergraphRoundTrip) {
  const Hypergraph h = Grid2dHypergraph(3, 3);
  Rng rng(7);
  const std::vector<int> vperm = RandomPerm(h.num_vertices(), &rng);
  const std::vector<int> eperm = RandomPerm(h.num_edges(), &rng);
  const Hypergraph g = RelabeledHypergraph(h, vperm, eperm);
  ASSERT_EQ(g.num_vertices(), h.num_vertices());
  ASSERT_EQ(g.num_edges(), h.num_edges());
  for (int e = 0; e < h.num_edges(); ++e) {
    // Edge e moved to eperm[e] and carries its name; members mapped by vperm.
    EXPECT_EQ(g.edge_name(eperm[e]), h.edge_name(e));
    VertexSet expected(h.num_vertices());
    h.edge(e).ForEach([&](int v) { expected.Set(vperm[v]); });
    EXPECT_EQ(g.edge(eperm[e]), expected);
  }
}

// C6 vs two disjoint C3s: same vertex count, edge count, and degree/arity
// profiles, and plain 1-WL refinement cannot split them apart on graphs of
// this kind — telling them apart exercises the intersection profile and the
// individualization search.
TEST(CanonicalTest, DistinguishesC6FromTwoTriangles) {
  HypergraphBuilder b;
  for (int i = 0; i < 3; ++i) {
    b.AddEdge("a" + std::to_string(i),
              {"x" + std::to_string(i), "x" + std::to_string((i + 1) % 3)});
    b.AddEdge("b" + std::to_string(i),
              {"y" + std::to_string(i), "y" + std::to_string((i + 1) % 3)});
  }
  const Hypergraph two_triangles = std::move(b).Build();
  const Hypergraph c6 = CycleHypergraph(6);
  ASSERT_EQ(c6.num_vertices(), two_triangles.num_vertices());
  ASSERT_EQ(c6.num_edges(), two_triangles.num_edges());
  EXPECT_NE(Canonicalize(c6).key, Canonicalize(two_triangles).key);
}

// Petersen vs C5 x K2 (the pentagonal prism): both 3-regular on 10 vertices
// with 15 edges — a classic near-miss pair for degree-based invariants.
TEST(CanonicalTest, DistinguishesPetersenFromPrism) {
  const Graph petersen = PetersenGraph();
  HypergraphBuilder pb;
  for (int v = 0; v < petersen.num_vertices(); ++v) {
    petersen.Neighbors(v).ForEach([&](int u) {
      if (u > v) {
        pb.AddEdge("e" + std::to_string(v) + "_" + std::to_string(u),
                   {"v" + std::to_string(v), "v" + std::to_string(u)});
      }
    });
  }
  const Hypergraph petersen_h = std::move(pb).Build();

  HypergraphBuilder qb;
  auto name = [](int ring, int i) {
    return (ring == 0 ? "o" : "i") + std::to_string(i);
  };
  for (int i = 0; i < 5; ++i) {
    qb.AddEdge("o" + std::to_string(i), {name(0, i), name(0, (i + 1) % 5)});
    qb.AddEdge("i" + std::to_string(i), {name(1, i), name(1, (i + 1) % 5)});
    qb.AddEdge("s" + std::to_string(i), {name(0, i), name(1, i)});
  }
  const Hypergraph prism_h = std::move(qb).Build();
  ASSERT_EQ(petersen_h.num_vertices(), prism_h.num_vertices());
  ASSERT_EQ(petersen_h.num_edges(), prism_h.num_edges());
  EXPECT_NE(Canonicalize(petersen_h).key, Canonicalize(prism_h).key);
}

TEST(CanonicalTest, ParallelEdgesAndIsolatedVerticesAreHandled) {
  HypergraphBuilder b;
  b.AddEdge("e1", {"a", "b"});
  b.AddEdge("e2", {"a", "b"});
  b.AddEdge("e3", {"b", "c"});
  b.AddVertex("isolated1");
  b.AddVertex("isolated2");
  const Hypergraph h = std::move(b).Build();
  ExpectInvariantKey(h, 42);
}

TEST(CanonicalTest, NodeBudgetFallbackIsDeterministic) {
  const Hypergraph h = CycleHypergraph(24);
  CanonicalizeOptions tight;
  tight.max_nodes = 2;
  const CanonicalFormResult a = Canonicalize(h, tight);
  const CanonicalFormResult b = Canonicalize(h, tight);
  EXPECT_FALSE(a.canonical);
  EXPECT_EQ(a.key, b.key) << "fallback keys must be deterministic";
  // The truncated key must never collide with the canonical key: exact-repeat
  // matching only.
  const CanonicalFormResult full = Canonicalize(h);
  EXPECT_TRUE(full.canonical);
  EXPECT_NE(a.key, full.key);
}

TEST(CanonicalTest, PermutationsAreValid) {
  const Hypergraph h = TriangleStripHypergraph(4);
  const CanonicalFormResult r = Canonicalize(h);
  std::vector<int> vseen(h.num_vertices(), 0);
  for (int v : r.vertex_perm) {
    ASSERT_GE(v, 0);
    ASSERT_LT(v, h.num_vertices());
    ++vseen[v];
  }
  EXPECT_TRUE(std::all_of(vseen.begin(), vseen.end(),
                          [](int c) { return c == 1; }));
  std::vector<int> eseen(h.num_edges(), 0);
  for (int e : r.edge_perm) {
    ASSERT_GE(e, 0);
    ASSERT_LT(e, h.num_edges());
    ++eseen[e];
  }
  EXPECT_TRUE(std::all_of(eseen.begin(), eseen.end(),
                          [](int c) { return c == 1; }));
}

TEST(CanonicalTest, CanonicalInstanceIsLabelIndependent) {
  // The canonical relabeling of any two isomorphic instances is the *same*
  // hypergraph up to names — the property that makes cold cache entries
  // byte-identical across re-asks.
  const Hypergraph h = Grid2dHypergraph(3, 3);
  Rng rng(11);
  const Hypergraph g = RelabeledHypergraph(
      h, RandomPerm(h.num_vertices(), &rng), RandomPerm(h.num_edges(), &rng));
  const Hypergraph ch = CanonicalInstance(PrepareInstance(h));
  const Hypergraph cg = CanonicalInstance(PrepareInstance(g));
  ASSERT_EQ(ch.num_edges(), cg.num_edges());
  for (int e = 0; e < ch.num_edges(); ++e) {
    EXPECT_EQ(ch.edge(e), cg.edge(e)) << "edge " << e;
  }
}

// --- reduction + rehydration -----------------------------------------------

TEST(CanonicalTest, ReductionPreservesVerdictsOnCorpus) {
  const char* corpus[] = {"triangle.hg", "grid3x3.hg", "acyclic_star.hg",
                         "bridge_3.hg", "example.hg"};
  for (const char* file : corpus) {
    Result<Hypergraph> parsed =
        LoadHg(std::string(GHD_DATA_DIR) + "/" + file);
    ASSERT_TRUE(parsed.ok()) << file;
    const Hypergraph& h = parsed.value();
    const ReducedHypergraph r = RemoveSubsumedEdgesMapped(h);
    const HypertreeWidthResult orig = HypertreeWidth(h);
    const HypertreeWidthResult red = HypertreeWidth(r.reduced);
    ASSERT_TRUE(orig.exact && red.exact) << file;
    EXPECT_EQ(orig.width, red.width)
        << "reduction changed hw on " << file;
  }
}

TEST(CanonicalTest, MappedReductionAgreesWithUnmapped) {
  for (uint64_t seed = 0; seed < 6; ++seed) {
    const Hypergraph h = RandomUniformHypergraph(12, 9, 3, seed);
    const ReducedHypergraph r = RemoveSubsumedEdgesMapped(h);
    const Hypergraph plain = RemoveSubsumedEdges(h);
    ASSERT_EQ(r.reduced.num_edges(), plain.num_edges());
    ASSERT_EQ(static_cast<int>(r.kept_edges.size()), r.reduced.num_edges());
    for (int e = 0; e < r.reduced.num_edges(); ++e) {
      EXPECT_EQ(r.reduced.edge(e), h.edge(r.kept_edges[e]));
    }
    // Every original edge maps to a surviving superset.
    for (int e = 0; e < h.num_edges(); ++e) {
      const int s = r.superset_of[e];
      ASSERT_GE(s, 0);
      ASSERT_LT(s, r.reduced.num_edges());
      EXPECT_TRUE(h.edge(e).IsSubsetOf(r.reduced.edge(s)));
    }
  }
}

TEST(CanonicalTest, RehydratedWitnessValidatesOnScrambledInstance) {
  Rng rng(3);
  const Hypergraph base = TriangleStripHypergraph(4);
  for (int rep = 0; rep < 4; ++rep) {
    const Hypergraph ask = RelabeledHypergraph(
        base, RandomPerm(base.num_vertices(), &rng),
        RandomPerm(base.num_edges(), &rng));
    const PreparedInstance p = PrepareInstance(ask);
    // Solve on the canonical instance, store flat, rehydrate onto `ask`.
    const Hypergraph canon_h = CanonicalInstance(p);
    const KDeciderResult solved = HypertreeWidthAtMost(canon_h, 2);
    ASSERT_TRUE(solved.decided && solved.exists);
    const FlatDecomposition flat = FlattenDecomposition(solved.decomposition);
    GeneralizedHypertreeDecomposition rehydrated;
    ASSERT_TRUE(RehydrateWitness(p, flat, &rehydrated));
    EXPECT_TRUE(rehydrated.Validate(ask).ok());
    EXPECT_LE(rehydrated.Width(), 2);
  }
}

// --- differential against the reference search ---------------------------

// Canonicalizes h with both searches. When the reference finishes within its
// budget, asserts the library returns the same key, permutations and flag,
// and returns true; returns false (asserting nothing) otherwise.
bool ExpectMatchesReference(const Hypergraph& h, const std::string& what) {
  const CanonicalFormResult want = ref::Canonicalize(h);
  if (!want.canonical) return false;
  const CanonicalFormResult got = Canonicalize(h);
  EXPECT_TRUE(got.canonical) << what;
  EXPECT_EQ(got.key, want.key) << what;
  EXPECT_EQ(got.vertex_perm, want.vertex_perm) << what;
  EXPECT_EQ(got.edge_perm, want.edge_perm) << what;
  return true;
}

// h and `relabelings` seeded relabelings of it; returns how many of them the
// reference finished.
int ExpectMatchesReferenceRelabeled(const Hypergraph& h,
                                    const std::string& what, int relabelings,
                                    uint64_t seed) {
  int compared = ExpectMatchesReference(h, what) ? 1 : 0;
  Rng rng(seed);
  for (int r = 0; r < relabelings; ++r) {
    const Hypergraph g = RelabeledHypergraph(
        h, RandomPerm(h.num_vertices(), &rng), RandomPerm(h.num_edges(), &rng));
    compared += ExpectMatchesReference(
        g, what + " relabeling " + std::to_string(r)) ? 1 : 0;
  }
  return compared;
}

TEST(CanonicalTest, MatchesReferenceOnDataFiles) {
  int files = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(GHD_DATA_DIR)) {
    if (entry.path().extension() != ".hg") continue;
    Result<Hypergraph> parsed = LoadHg(entry.path().string());
    ASSERT_TRUE(parsed.ok()) << entry.path();
    const std::string name = entry.path().filename().string();
    EXPECT_EQ(ExpectMatchesReferenceRelabeled(parsed.value(), name, 3, 5), 4)
        << name;
    ++files;
  }
  EXPECT_GE(files, 10);
}

TEST(CanonicalTest, MatchesReferenceOnRepeatBatchCatalogue) {
  const auto catalogue = RepeatBatchCatalogue();
  ASSERT_EQ(catalogue.size(), 89u);
  uint64_t seed = 1000;
  for (const auto& [name, h] : catalogue) {
    const int compared = ExpectMatchesReferenceRelabeled(h, name, 3, seed++);
    // Only the bridges of 12 or more diamonds (2^14 - 1 nodes and up) outrun
    // the reference's budget; the library must finish them (see below).
    if (name.rfind("bridge", 0) == 0 && std::stoi(name.substr(6)) >= 12) {
      EXPECT_EQ(compared, 0) << name;
    } else {
      EXPECT_EQ(compared, 4) << name;
    }
  }
}

TEST(CanonicalTest, MatchesReferenceOnRandomInstances) {
  int compared = 0;
  for (uint64_t seed = 0; seed < 40; ++seed) {
    const int n = 8 + static_cast<int>(seed % 5) * 6;
    const int m = 6 + static_cast<int>(seed % 7) * 4;
    compared += ExpectMatchesReferenceRelabeled(
        RandomUniformHypergraph(n, m, 2 + static_cast<int>(seed % 3), seed),
        "uniform seed " + std::to_string(seed), 2, 300 + seed);
    compared += ExpectMatchesReferenceRelabeled(
        RandomBoundedIntersectionHypergraph(n + 4, m / 2 + 3, 3, 1, seed),
        "bounded seed " + std::to_string(seed), 2, 400 + seed);
  }
  EXPECT_EQ(compared, 240);
}

// --- refinement rule ---------------------------------------------------------

// Colors renumbered by first occurrence: equal vectors, equal partitions.
std::vector<int> Blocks(const std::vector<uint64_t>& colors) {
  std::unordered_map<uint64_t, int> block;
  std::vector<int> out;
  out.reserve(colors.size());
  for (const uint64_t c : colors) {
    out.push_back(
        block.emplace(c, static_cast<int>(block.size())).first->second);
  }
  return out;
}

void ExpectSamePartition(const RefinedColoring& got,
                         const RefinedColoring& want,
                         const std::string& what) {
  EXPECT_EQ(Blocks(got.vertex_colors), Blocks(want.vertex_colors)) << what;
  EXPECT_EQ(Blocks(got.edge_colors), Blocks(want.edge_colors)) << what;
}

// The target cell by the search's rule: the smallest vertex cell not wholly
// made of twins, ties by color value. Empty when there is none.
std::vector<int> TargetCell(const Hypergraph& h,
                            const std::vector<uint64_t>& colors) {
  std::map<uint64_t, std::vector<int>> cells;
  for (int v = 0; v < h.num_vertices(); ++v) cells[colors[v]].push_back(v);
  const auto& vo = h.Flat().vertex_offsets();
  const auto& ve = h.Flat().vertex_edges();
  std::vector<int> target;
  for (const auto& [color, cell] : cells) {
    if (cell.size() < 2 || (!target.empty() && cell.size() >= target.size())) {
      continue;
    }
    const bool all_twins =
        std::all_of(cell.begin(), cell.end(), [&](int v) {
          return std::equal(ve.begin() + vo[v], ve.begin() + vo[v + 1],
                            ve.begin() + vo[cell[0]],
                            ve.begin() + vo[cell[0] + 1]);
        });
    if (!all_twins) target = cell;
  }
  return target;
}

// Asserts that the library's refinement and the reference's all-parts rule
// reach the same partitions on h, at the root and after individualizing each
// vertex of the target cell; returns how many vertices were individualized.
int ExpectRuleKeepsPartitions(const Hypergraph& h, const std::string& what) {
  const CanonicalizeOptions options;
  ref::RefCanonicalSearch oracle(h, options, ref::SplitRule::kAllParts);
  const RefinedColoring root = StableColoring(h);
  ExpectSamePartition(root, oracle.Stable(-1), what + " root");
  const std::vector<int> target = TargetCell(h, root.vertex_colors);
  for (const int v : target) {
    ExpectSamePartition(StableColoring(h, v), oracle.Stable(v),
                        what + " after individualizing " + std::to_string(v));
  }
  return static_cast<int>(target.size());
}

// h and `relabelings` seeded relabelings of it; returns the vertices
// individualized across all of them.
int ExpectRuleKeepsPartitionsRelabeled(const Hypergraph& h,
                                       const std::string& what,
                                       int relabelings, uint64_t seed) {
  int individualized = ExpectRuleKeepsPartitions(h, what);
  Rng rng(seed);
  for (int r = 0; r < relabelings; ++r) {
    const Hypergraph g = RelabeledHypergraph(
        h, RandomPerm(h.num_vertices(), &rng), RandomPerm(h.num_edges(), &rng));
    individualized += ExpectRuleKeepsPartitions(
        g, what + " relabeling " + std::to_string(r));
  }
  return individualized;
}

TEST(CanonicalTest, RefinementRuleKeepsPartitionsOnDataFiles) {
  int individualized = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(GHD_DATA_DIR)) {
    if (entry.path().extension() != ".hg") continue;
    Result<Hypergraph> parsed = LoadHg(entry.path().string());
    ASSERT_TRUE(parsed.ok()) << entry.path();
    individualized += ExpectRuleKeepsPartitionsRelabeled(
        parsed.value(), entry.path().filename().string(), 3, 15);
  }
  EXPECT_GT(individualized, 0);
}

TEST(CanonicalTest, RefinementRuleKeepsPartitionsOnRepeatBatchCatalogue) {
  const auto catalogue = RepeatBatchCatalogue();
  ASSERT_EQ(catalogue.size(), 89u);
  int individualized = 0;
  uint64_t seed = 2000;
  for (const auto& [name, h] : catalogue) {
    individualized += ExpectRuleKeepsPartitionsRelabeled(h, name, 2, seed++);
  }
  EXPECT_GT(individualized, 1000);
}

TEST(CanonicalTest, RefinementRuleKeepsPartitionsOnRandomInstances) {
  int individualized = 0;
  for (uint64_t seed = 0; seed < 40; ++seed) {
    const int n = 8 + static_cast<int>(seed % 5) * 6;
    const int m = 6 + static_cast<int>(seed % 7) * 4;
    individualized += ExpectRuleKeepsPartitionsRelabeled(
        RandomUniformHypergraph(n, m, 2 + static_cast<int>(seed % 3), seed),
        "uniform seed " + std::to_string(seed), 2, 500 + seed);
    individualized += ExpectRuleKeepsPartitionsRelabeled(
        RandomBoundedIntersectionHypergraph(n + 4, m / 2 + 3, 3, 1, seed),
        "bounded seed " + std::to_string(seed), 2, 600 + seed);
  }
  EXPECT_GT(individualized, 0);
}

// --- cell sizes ---------------------------------------------------------------

// The search's flat count table against a map, on colors whose low bits
// collide in a few home slots: long probe runs, inserts and erases inside
// them, and runs that wrap past the last slot.
TEST(CanonicalTest, CellSizesMatchAMapUnderCollidingColors) {
  constexpr int kElements = 20;  // 64 slots
  std::vector<uint64_t> pool;
  for (uint64_t r = 0; r < 40; ++r) pool.push_back((r << 6) | (60 + r % 3));
  Rng rng(17);
  CellSizes table(kElements);
  std::unordered_map<uint64_t, int> model;
  int live = 0;
  for (int step = 0; step < 20000; ++step) {
    const uint64_t color = pool[rng.UniformInt(static_cast<int>(pool.size()))];
    int& size = model[color];
    if (size > 0 && rng.Bernoulli(0.5)) {
      table.Add(color, -1);
      if (--size == 0) --live;
    } else if (size > 0 || live < kElements) {
      const int delta = 1 + rng.UniformInt(3);
      table.Add(color, delta);
      if (size == 0) ++live;
      size += delta;
    }
    for (const uint64_t c : pool) {
      const auto it = model.find(c);
      ASSERT_EQ(table.Get(c), it == model.end() ? 0 : it->second)
          << "step " << step;
    }
  }
}

// --- automorphism backjumping ----------------------------------------------

// Each bridge diamond has a swap automorphism; without backjumping below the
// root every diamond doubles the search tree (2^(k+2) - 1 nodes).
TEST(CanonicalTest, BridgesAreCanonicalInPolynomialNodes) {
  for (int k = 4; k <= 24; ++k) {
    const Hypergraph h = BridgeHypergraph(k);
    const CanonicalFormResult r = Canonicalize(h);
    EXPECT_TRUE(r.canonical) << "bridge" << k;
    EXPECT_GT(r.backjumps, 0) << "bridge" << k;
    EXPECT_LE(r.nodes_explored, 2L * k * k) << "bridge" << k;
    ExpectInvariantKey(h, 500 + k);
    ExpectInvariantKey(h, 600 + k);
  }
  EXPECT_LE(Canonicalize(BridgeHypergraph(24)).nodes_explored, 1000);
}

Hypergraph DisjointUnion(const std::vector<Hypergraph>& parts) {
  HypergraphBuilder b;
  for (size_t p = 0; p < parts.size(); ++p) {
    const Hypergraph& h = parts[p];
    const std::string prefix = "p" + std::to_string(p) + "_";
    for (int v = 0; v < h.num_vertices(); ++v) {
      b.AddVertex(prefix + h.vertex_name(v));
    }
    for (int e = 0; e < h.num_edges(); ++e) {
      std::vector<std::string> members;
      h.edge(e).ForEach(
          [&](int v) { members.push_back(prefix + h.vertex_name(v)); });
      b.AddEdge(prefix + h.edge_name(e), members);
    }
  }
  return std::move(b).Build();
}

TEST(CanonicalTest, UnionsAndHypercubesAreCanonical) {
  const Hypergraph cases[] = {
      DisjointUnion({BridgeHypergraph(6), BridgeHypergraph(6)}),
      DisjointUnion({BridgeHypergraph(10), CycleHypergraph(12)}),
      DisjointUnion({CycleHypergraph(9), CycleHypergraph(9),
                     BridgeHypergraph(5)}),
      DisjointUnion({BridgeHypergraph(4), BridgeHypergraph(4),
                     BridgeHypergraph(4)}),
      DisjointUnion({BridgeHypergraph(16), BridgeHypergraph(8)}),
      HypercubeHypergraph(3),
      HypercubeHypergraph(4),
      HypercubeHypergraph(5),
  };
  uint64_t seed = 700;
  for (const Hypergraph& h : cases) {
    const CanonicalFormResult r = Canonicalize(h);
    EXPECT_TRUE(r.canonical) << "case " << seed;
    EXPECT_LE(r.nodes_explored, 1000) << "case " << seed;
    ExpectInvariantKey(h, seed++);
    ExpectInvariantKey(h, seed++);
    ExpectMatchesReference(h, "case " + std::to_string(seed));
  }
}

// Cycle unions: every vertex has degree 2 and every edge arity 2, so
// refinement cannot tell a C12 from two C6s, and the root cell mixes vertices
// no automorphism relates. The first leaf is then often not the best one, and
// a leaf that matches the first leaf but not the best only unwinds through the
// first-leaf comparison. Without it these 40 asks take 39410 nodes instead of
// 32506.
TEST(CanonicalTest, LeavesMatchingTheFirstLeafUnwind) {
  const Hypergraph unions[] = {
      DisjointUnion({CycleHypergraph(12), CycleHypergraph(6),
                     CycleHypergraph(6)}),
      DisjointUnion({CycleHypergraph(5), CycleHypergraph(5),
                     CycleHypergraph(10)}),
  };
  long nodes = 0;
  for (const Hypergraph& h : unions) {
    Rng rng(9);
    for (int r = 0; r < 20; ++r) {
      const Hypergraph g =
          r == 0 ? h
                 : RelabeledHypergraph(h, RandomPerm(h.num_vertices(), &rng),
                                       RandomPerm(h.num_edges(), &rng));
      const CanonicalFormResult c = Canonicalize(g);
      EXPECT_TRUE(c.canonical) << "relabeling " << r;
      nodes += c.nodes_explored;
    }
  }
  EXPECT_LE(nodes, 35000);
}

}  // namespace
}  // namespace ghd
