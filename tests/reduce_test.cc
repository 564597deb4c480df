#include <filesystem>
#include <string>
#include <vector>

#include "core/ghw_exact.h"
#include "gen/random_hypergraphs.h"
#include "gtest/gtest.h"
#include "htd/det_k_decomp.h"
#include "hypergraph/hg_io.h"
#include "hypergraph/hypergraph_builder.h"
#include "hypergraph/reduce.h"
#include "test_instances.h"
#include "util/rng.h"

namespace ghd {
namespace {

TEST(ReduceTest, RemovesContainedEdges) {
  HypergraphBuilder b;
  b.AddEdge("big", {"a", "b", "c"});
  b.AddEdge("inside", {"a", "b"});
  b.AddEdge("other", {"c", "d"});
  Hypergraph h = std::move(b).Build();
  EXPECT_EQ(CountSubsumedEdges(h), 1);
  Hypergraph reduced = RemoveSubsumedEdges(h);
  EXPECT_EQ(reduced.num_edges(), 2);
  EXPECT_EQ(reduced.edge_name(0), "big");
  EXPECT_EQ(reduced.edge_name(1), "other");
  EXPECT_EQ(reduced.num_vertices(), h.num_vertices());
}

TEST(ReduceTest, KeepsOneOfDuplicates) {
  HypergraphBuilder b;
  b.AddEdge("first", {"a", "b"});
  b.AddEdge("second", {"a", "b"});
  b.AddEdge("third", {"a", "b"});
  Hypergraph reduced = RemoveSubsumedEdges(std::move(b).Build());
  ASSERT_EQ(reduced.num_edges(), 1);
  EXPECT_EQ(reduced.edge_name(0), "first");
}

TEST(ReduceTest, ChainOfContainments) {
  HypergraphBuilder b;
  b.AddEdge("s", {"a"});
  b.AddEdge("m", {"a", "b"});
  b.AddEdge("l", {"a", "b", "c"});
  Hypergraph reduced = RemoveSubsumedEdges(std::move(b).Build());
  ASSERT_EQ(reduced.num_edges(), 1);
  EXPECT_EQ(reduced.edge_name(0), "l");
}

TEST(ReduceTest, NoOpOnAntichains) {
  Hypergraph h = RandomUniformHypergraph(12, 8, 3, 3);
  // Uniform same-size edges can only subsume by duplication.
  const int dupes = CountSubsumedEdges(h);
  Hypergraph reduced = RemoveSubsumedEdges(h);
  EXPECT_EQ(reduced.num_edges(), h.num_edges() - dupes);
}

TEST(ReduceTest, GhwIsInvariant) {
  for (uint64_t seed = 0; seed < 8; ++seed) {
    // Mix arities so containments actually occur.
    HypergraphBuilder b;
    Hypergraph base = RandomUniformHypergraph(10, 6, 3, seed);
    for (int e = 0; e < base.num_edges(); ++e) {
      std::vector<std::string> names;
      base.edge(e).ForEach(
          [&](int v) { names.push_back(base.vertex_name(v)); });
      b.AddEdge("e" + std::to_string(e), names);
      // Add a sub-edge of every other edge.
      if (e % 2 == 0 && names.size() >= 2) {
        b.AddEdge("sub" + std::to_string(e), {names[0], names[1]});
      }
    }
    Hypergraph h = std::move(b).Build();
    Hypergraph reduced = RemoveSubsumedEdges(h);
    ASSERT_LT(reduced.num_edges(), h.num_edges()) << seed;
    ExactGhwResult full = ExactGhw(h);
    ExactGhwResult red = ExactGhw(reduced);
    ASSERT_TRUE(full.exact && red.exact) << seed;
    EXPECT_EQ(full.upper_bound, red.upper_bound) << seed;
  }
}

TEST(ReduceTest, HwIsInvariant) {
  HypergraphBuilder b;
  b.AddEdge("t1", {"a", "b", "p"});
  b.AddEdge("t2", {"b", "c", "q"});
  b.AddEdge("t3", {"c", "a", "r"});
  b.AddEdge("sub", {"a", "b"});
  Hypergraph h = std::move(b).Build();
  HypertreeWidthResult full = HypertreeWidth(h);
  HypertreeWidthResult red = HypertreeWidth(RemoveSubsumedEdges(h));
  ASSERT_TRUE(full.exact && red.exact);
  EXPECT_EQ(full.width, red.width);
}

// ---- Reference: the pairwise sweep over all m^2 edge pairs that the vertex
// CSR scan replaced, verbatim.
std::vector<char> PairwiseSubsumedFlags(const Hypergraph& h) {
  const int m = h.num_edges();
  std::vector<char> subsumed(m, 0);
  for (int e = 0; e < m; ++e) {
    for (int f = 0; f < m && !subsumed[e]; ++f) {
      if (e == f || subsumed[f]) continue;
      if (h.edge(e).IsSubsetOf(h.edge(f))) {
        // Duplicates: keep the lower id.
        if (h.edge(e) == h.edge(f) && e < f) continue;
        subsumed[e] = 1;
      }
    }
  }
  return subsumed;
}

// Asserts that RemoveSubsumedEdgesMapped and CountSubsumedEdges agree with
// the pairwise sweep on h: the same kept edges, the same superset_of (the
// first surviving superset in id order) and the same count. Returns the
// number of dropped edges.
int ExpectMatchesPairwiseSweep(const Hypergraph& h, const std::string& what) {
  const std::vector<char> subsumed = PairwiseSubsumedFlags(h);
  const int m = h.num_edges();
  std::vector<int> kept, reduced_id(m, -1);
  for (int e = 0; e < m; ++e) {
    if (subsumed[e]) continue;
    reduced_id[e] = static_cast<int>(kept.size());
    kept.push_back(e);
  }
  std::vector<int> superset_of(m, -1);
  for (int e = 0; e < m; ++e) {
    if (!subsumed[e]) {
      superset_of[e] = reduced_id[e];
      continue;
    }
    for (int f = 0; f < m; ++f) {
      if (!subsumed[f] && h.edge(e).IsSubsetOf(h.edge(f))) {
        superset_of[e] = reduced_id[f];
        break;
      }
    }
  }
  const ReducedHypergraph r = RemoveSubsumedEdgesMapped(h);
  EXPECT_EQ(r.kept_edges, kept) << what;
  EXPECT_EQ(r.superset_of, superset_of) << what;
  const int dropped = m - static_cast<int>(kept.size());
  EXPECT_EQ(CountSubsumedEdges(h), dropped) << what;
  EXPECT_EQ(r.reduced.num_edges(), static_cast<int>(kept.size())) << what;
  return dropped;
}

// h and `relabelings` seeded relabelings of it; returns the dropped edges
// summed over all of them.
int ExpectMatchesPairwiseSweepRelabeled(const Hypergraph& h,
                                        const std::string& what,
                                        int relabelings, uint64_t seed) {
  int dropped = ExpectMatchesPairwiseSweep(h, what);
  Rng rng(seed);
  for (int r = 0; r < relabelings; ++r) {
    dropped += ExpectMatchesPairwiseSweep(
        RandomRelabeling(h, &rng), what + " relabeling " + std::to_string(r));
  }
  return dropped;
}

// `m` random edges of arity 0..max_arity over n vertices, then copies of
// some of them, subsets of others and an extra empty edge, all shuffled in:
// duplicates, containments, empty edges and a superset that comes after its
// subsets all occur.
Hypergraph RandomSubsumptionHypergraph(int n, int m, int max_arity,
                                       uint64_t seed) {
  Rng rng(seed);
  std::vector<VertexSet> edges;
  for (int e = 0; e < m; ++e) {
    VertexSet edge(n);
    const int arity = rng.UniformInt(max_arity + 1);
    for (int i = 0; i < arity; ++i) edge.Set(rng.UniformInt(n));
    edges.push_back(edge);
    if (rng.Bernoulli(0.3)) edges.push_back(edge);
    if (rng.Bernoulli(0.3)) {
      VertexSet sub(n);
      edge.ForEach([&](int v) {
        if (rng.Bernoulli(0.5)) sub.Set(v);
      });
      edges.push_back(sub);
    }
  }
  edges.push_back(VertexSet(n));
  const std::vector<int> order =
      RandomPerm(static_cast<int>(edges.size()), &rng);
  std::vector<VertexSet> shuffled(edges.size(), VertexSet(n));
  std::vector<std::string> vertex_names, edge_names;
  for (size_t i = 0; i < edges.size(); ++i) {
    shuffled[order[i]] = edges[i];
    edge_names.push_back("e" + std::to_string(i));
  }
  for (int v = 0; v < n; ++v) vertex_names.push_back("v" + std::to_string(v));
  return Hypergraph(std::move(vertex_names), std::move(edge_names),
                    std::move(shuffled));
}

TEST(ReduceTest, MatchesPairwiseSweepOnDataFiles) {
  int files = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(GHD_DATA_DIR)) {
    if (entry.path().extension() != ".hg") continue;
    Result<Hypergraph> parsed = LoadHg(entry.path().string());
    ASSERT_TRUE(parsed.ok()) << entry.path();
    ExpectMatchesPairwiseSweepRelabeled(
        parsed.value(), entry.path().filename().string(), 3, 7);
    ++files;
  }
  EXPECT_GE(files, 10);
}

TEST(ReduceTest, MatchesPairwiseSweepOnRepeatBatchCatalogue) {
  const auto catalogue = RepeatBatchCatalogue();
  ASSERT_EQ(catalogue.size(), 89u);
  uint64_t seed = 3000;
  for (const auto& [name, h] : catalogue) {
    ExpectMatchesPairwiseSweepRelabeled(h, name, 2, seed++);
  }
}

TEST(ReduceTest, MatchesPairwiseSweepOnRandomInstances) {
  int dropped = 0;
  for (uint64_t seed = 0; seed < 60; ++seed) {
    const int n = 4 + static_cast<int>(seed % 6) * 12;
    const int m = 5 + static_cast<int>(seed % 7) * 9;
    const int max_arity = 1 + static_cast<int>(seed % 5);
    dropped += ExpectMatchesPairwiseSweepRelabeled(
        RandomSubsumptionHypergraph(n, m, max_arity, seed),
        "seed " + std::to_string(seed), 3, 800 + seed);
  }
  EXPECT_GT(dropped, 1000);
}

}  // namespace
}  // namespace ghd
