// FlatHypergraph + kernels: the CSR / bitset-matrix view and the batched
// word-parallel kernels must return bit-identical results to the scalar
// VertexSet paths they replaced — under both dispatches, and across the
// inline/heap word-boundary universes (63/64/65 and 127/128/129, around
// VertexSet::kInlineCapacity).
#include <cstdint>
#include <cstdlib>
#include <random>
#include <vector>

#include "gen/random_hypergraphs.h"
#include "gtest/gtest.h"
#include "hypergraph/flat_hypergraph.h"
#include "hypergraph/hypergraph.h"
#include "hypergraph/kernels.h"
#include "util/bitset.h"

namespace ghd {
namespace {

// The universes every differential test sweeps: both sides of the one-word,
// inline-capacity, and heap boundaries, plus a multi-lane size.
const int kUniverses[] = {63, 64, 65, 127, 128, 129, 257};

// Runs `fn` under the hardware dispatch and then the forced-scalar override,
// restoring the default afterwards. On a machine without AVX2 both legs run
// the portable path — the differential checks still hold, they just compare
// scalar against scalar.
template <typename Fn>
void ForEachDispatch(Fn fn) {
  kernels::ForceScalarKernels(false);
  fn(kernels::KernelDispatchName(kernels::SelectedDispatch()));
  kernels::ForceScalarKernels(true);
  fn("forced-scalar");
  kernels::ForceScalarKernels(false);
}

VertexSet RandomSet(int universe, double density, std::mt19937_64* rng) {
  VertexSet s(universe);
  std::bernoulli_distribution coin(density);
  for (int v = 0; v < universe; ++v) {
    if (coin(*rng)) s.Set(v);
  }
  return s;
}

// Reference per-vertex incidence, built from the per-edge vertex sets: the
// ids of the edges containing each vertex, ascending.
std::vector<std::vector<int>> ReferenceIncidence(const Hypergraph& h) {
  std::vector<std::vector<int>> incidence(h.num_vertices());
  for (int e = 0; e < h.num_edges(); ++e) {
    h.edge(e).ForEach([&](int v) { incidence[v].push_back(e); });
  }
  return incidence;
}

// Scalar reference for FlatSplitComponents: the pointer-chasing BFS the
// k-decider ran before the CSR port (seed = unseen.First(), edges adjacent
// when they share a vertex outside chi, an edge inside chi stays a
// singleton), over incidence lists rebuilt from the per-edge vertex sets.
std::vector<VertexSet> ReferenceSplit(const Hypergraph& h,
                                      const VertexSet& edges_left,
                                      const VertexSet& chi) {
  const std::vector<std::vector<int>> incidence = ReferenceIncidence(h);
  VertexSet unseen = edges_left;
  std::vector<VertexSet> parts;
  while (unseen.Any()) {
    const int seed = unseen.First();
    VertexSet part(h.num_edges());
    part.Set(seed);
    unseen.Reset(seed);
    std::vector<int> stack{seed};
    while (!stack.empty()) {
      const int e = stack.back();
      stack.pop_back();
      h.edge(e).ForEach([&](int v) {
        if (chi.Test(v)) return;
        for (int f : incidence[v]) {
          if (unseen.Test(f)) {
            unseen.Reset(f);
            part.Set(f);
            stack.push_back(f);
          }
        }
      });
    }
    parts.push_back(std::move(part));
  }
  return parts;
}

TEST(FlatHypergraphTest, CsrMirrorsTheHypergraph) {
  for (int n : kUniverses) {
    const Hypergraph h = RandomUniformHypergraph(n, n / 2 + 3, 4, 7 + n);
    const FlatHypergraph& flat = h.Flat();
    ASSERT_EQ(flat.num_vertices(), h.num_vertices());
    ASSERT_EQ(flat.num_edges(), h.num_edges());
    ASSERT_EQ(flat.edge_offsets().size(),
              static_cast<size_t>(h.num_edges()) + 1);
    ASSERT_EQ(flat.vertex_offsets().size(),
              static_cast<size_t>(h.num_vertices()) + 1);
    for (int e = 0; e < h.num_edges(); ++e) {
      std::vector<int32_t> want;
      h.edge(e).ForEach([&](int v) { want.push_back(v); });
      const std::vector<int32_t> got(
          flat.edge_vertices().begin() + flat.edge_offsets()[e],
          flat.edge_vertices().begin() + flat.edge_offsets()[e + 1]);
      EXPECT_EQ(got, want) << "edge " << e << " universe " << n;
      EXPECT_EQ(flat.edge_bits().RowAsVertexSet(e), h.edge(e));
    }
    const std::vector<std::vector<int>> incidence = ReferenceIncidence(h);
    for (int v = 0; v < h.num_vertices(); ++v) {
      const std::vector<int>& want = incidence[v];
      const std::vector<int32_t> got(
          flat.vertex_edges().begin() + flat.vertex_offsets()[v],
          flat.vertex_edges().begin() + flat.vertex_offsets()[v + 1]);
      ASSERT_EQ(got.size(), want.size());
      for (size_t i = 0; i < want.size(); ++i) EXPECT_EQ(got[i], want[i]);
      VertexSet want_bits(h.num_edges());
      for (int e : want) want_bits.Set(e);
      EXPECT_EQ(flat.incidence_bits().RowAsVertexSet(v), want_bits);
    }
  }
}

TEST(FlatHypergraphTest, RowsArePaddedToWholeLanesWithZeroTails) {
  for (int n : kUniverses) {
    const Hypergraph h = RandomUniformHypergraph(n, 9, 3, 11 + n);
    const BitMatrix& m = h.Flat().edge_bits();
    EXPECT_EQ(m.stride_words() % 4, 0);
    EXPECT_GE(m.stride_words(), m.logical_words());
    for (int r = 0; r < m.rows(); ++r) {
      const uint64_t* row = m.row(r);
      for (int w = m.logical_words(); w < m.stride_words(); ++w) {
        EXPECT_EQ(row[w], 0u) << "padding word " << w << " of row " << r;
      }
    }
  }
}

TEST(FlatHypergraphTest, RawWordKernelsMatchScalarSemantics) {
  std::mt19937_64 rng(13);
  ForEachDispatch([&](const char* mode) {
    for (int words = 1; words <= 9; ++words) {
      std::vector<uint64_t> a(words), b(words);
      for (auto& w : a) w = rng();
      for (auto& w : b) w = rng();
      std::vector<uint64_t> dst = a;
      kernels::OrInto(dst.data(), b.data(), words);
      for (int i = 0; i < words; ++i) EXPECT_EQ(dst[i], a[i] | b[i]) << mode;
      dst = a;
      kernels::AndAssign(dst.data(), b.data(), words);
      for (int i = 0; i < words; ++i) EXPECT_EQ(dst[i], a[i] & b[i]) << mode;
      dst = a;
      kernels::AndNotAssign(dst.data(), b.data(), words);
      for (int i = 0; i < words; ++i) EXPECT_EQ(dst[i], a[i] & ~b[i]) << mode;
      kernels::AndInto(dst.data(), a.data(), b.data(), words);
      int expect_pop = 0;
      for (int i = 0; i < words; ++i) {
        EXPECT_EQ(dst[i], a[i] & b[i]) << mode;
        expect_pop += __builtin_popcountll(a[i] & b[i]);
      }
      EXPECT_EQ(kernels::AndPopcount(a.data(), b.data(), words), expect_pop);
      EXPECT_TRUE(kernels::IsSubset(dst.data(), a.data(), words)) << mode;
      EXPECT_EQ(kernels::IsSubset(a.data(), dst.data(), words),
                kernels::Equal(a.data(), dst.data(), words))
          << mode;
      EXPECT_FALSE(kernels::IsEmpty(a.data(), words));
    }
  });
}

TEST(FlatHypergraphTest, UnionRowsMatchesPerRowUnion) {
  std::mt19937_64 rng(29);
  for (int n : kUniverses) {
    BitMatrix m(17, n);
    std::vector<VertexSet> rows;
    for (int r = 0; r < m.rows(); ++r) {
      rows.push_back(RandomSet(n, 0.2, &rng));
      m.SetRow(r, rows.back());
    }
    // Empty, full, and random selectors all agree with the VertexSet loop.
    const VertexSet selectors[] = {VertexSet(m.rows()),
                                   VertexSet::Full(m.rows()),
                                   RandomSet(m.rows(), 0.4, &rng)};
    ForEachDispatch([&](const char* mode) {
      for (const VertexSet& sel : selectors) {
        VertexSet want(n);
        sel.ForEach([&](int r) { want |= rows[r]; });
        EXPECT_EQ(kernels::UnionRows(m, sel), want)
            << mode << " universe " << n;
      }
    });
  }
}

TEST(FlatHypergraphTest, AndPopcountRowsMatchesIntersectCount) {
  std::mt19937_64 rng(31);
  for (int n : kUniverses) {
    BitMatrix m(23, n);
    std::vector<VertexSet> rows;
    std::vector<int32_t> ids;
    for (int r = 0; r < m.rows(); ++r) {
      rows.push_back(RandomSet(n, 0.3, &rng));
      m.SetRow(r, rows.back());
      ids.push_back(r);
    }
    // Probes include the empty and full separators plus a random one.
    const VertexSet probes[] = {VertexSet(n), VertexSet::Full(n),
                                RandomSet(n, 0.5, &rng)};
    ForEachDispatch([&](const char* mode) {
      for (const VertexSet& probe : probes) {
        // Odd batch size exercises the paired-row remainder too.
        for (int count : {1, 2, 7, m.rows()}) {
          std::vector<int> out(count, -1);
          kernels::AndPopcountRows(probe.word_data(), m, ids.data(), count,
                                   out.data());
          for (int i = 0; i < count; ++i) {
            EXPECT_EQ(out[i], probe.IntersectCount(rows[i]))
                << mode << " universe " << n << " row " << i;
          }
        }
      }
    });
  }
}

TEST(FlatHypergraphTest, FlatQueriesMatchBruteForce) {
  std::mt19937_64 rng(37);
  for (int n : kUniverses) {
    const Hypergraph h = RandomUniformHypergraph(n, n / 2 + 5, 4, 17 + n);
    const FlatHypergraph& flat = h.Flat();
    ForEachDispatch([&](const char* mode) {
      const VertexSet vs = RandomSet(n, 0.15, &rng);
      VertexSet want_edges(h.num_edges());
      std::vector<int> all_edges;
      VertexSet all_edges_set(h.num_edges());
      VertexSet want_union(n);
      for (int e = 0; e < h.num_edges(); ++e) {
        if (h.edge(e).Intersects(vs)) want_edges.Set(e);
        all_edges.push_back(e);
        all_edges_set.Set(e);
        want_union |= h.edge(e);
      }
      EXPECT_EQ(kernels::FlatEdgesIntersecting(flat, vs), want_edges)
          << mode << " universe " << n;
      EXPECT_EQ(kernels::FlatUnionOfEdges(flat, all_edges), want_union)
          << mode << " universe " << n;
      EXPECT_EQ(kernels::FlatVerticesOf(flat, all_edges_set), want_union)
          << mode << " universe " << n;
      EXPECT_EQ(kernels::FlatVerticesOf(flat, VertexSet(h.num_edges())),
                VertexSet(n))
          << mode << " universe " << n;
    });
  }
}

TEST(FlatHypergraphTest, SplitComponentsMatchesScalarReference) {
  std::mt19937_64 rng(41);
  for (int n : kUniverses) {
    const Hypergraph h = RandomUniformHypergraph(n, n / 2 + 5, 3, 23 + n);
    const FlatHypergraph& flat = h.Flat();
    // Separators: empty (one component per connected part), full (every
    // remaining edge a singleton), and random ones of growing density.
    std::vector<VertexSet> chis = {VertexSet(n), VertexSet::Full(n)};
    for (double density : {0.1, 0.3, 0.6}) {
      chis.push_back(RandomSet(n, density, &rng));
    }
    std::vector<VertexSet> lefts = {VertexSet::Full(h.num_edges()),
                                    RandomSet(h.num_edges(), 0.7, &rng),
                                    VertexSet(h.num_edges())};
    ForEachDispatch([&](const char* mode) {
      for (const VertexSet& chi : chis) {
        for (const VertexSet& left : lefts) {
          const std::vector<VertexSet> want = ReferenceSplit(h, left, chi);
          const std::vector<VertexSet> got =
              kernels::FlatSplitComponents(flat, left, chi);
          ASSERT_EQ(got.size(), want.size()) << mode << " universe " << n;
          for (size_t i = 0; i < want.size(); ++i) {
            EXPECT_EQ(got[i], want[i])
                << mode << " universe " << n << " component " << i;
          }
        }
      }
    });
  }
}

TEST(FlatHypergraphTest, ForceScalarKernelsFlipsAndRestoresDispatch) {
  const kernels::KernelDispatch hw = kernels::HardwareDispatch();
  kernels::ForceScalarKernels(true);
  EXPECT_EQ(kernels::SelectedDispatch(), kernels::KernelDispatch::kScalar);
  kernels::ForceScalarKernels(false);
  // Unpinning returns to the detected dispatch (still scalar if the
  // environment forces it or the hardware lacks AVX2).
  if (std::getenv("GHD_FORCE_SCALAR") == nullptr) {
    EXPECT_EQ(kernels::SelectedDispatch(), hw);
  } else {
    EXPECT_EQ(kernels::SelectedDispatch(), kernels::KernelDispatch::kScalar);
  }
}

}  // namespace
}  // namespace ghd
