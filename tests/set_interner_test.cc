// SetInterner: dedup and round-trip semantics.
#include <vector>

#include "gtest/gtest.h"
#include "util/bitset.h"
#include "util/rng.h"
#include "util/set_interner.h"

namespace ghd {
namespace {

VertexSet MakeSet(int n, uint64_t seed) {
  Rng rng(seed);
  VertexSet s(n);
  const int count = 1 + rng.UniformInt(n / 2 + 1);
  for (int i = 0; i < count; ++i) s.Set(rng.UniformInt(n));
  return s;
}

TEST(SetInternerTest, EqualSetsGetEqualIds) {
  SetInterner interner;
  for (int n : {40, 128, 300}) {
    const VertexSet a = MakeSet(n, n);
    const VertexSet b = a;  // equal by value, distinct object
    bool inserted_a = false, inserted_b = true;
    const uint32_t id_a = interner.Intern(a, &inserted_a);
    const uint32_t id_b = interner.Intern(b, &inserted_b);
    EXPECT_TRUE(inserted_a);
    EXPECT_FALSE(inserted_b);
    EXPECT_EQ(id_a, id_b);
  }
  EXPECT_EQ(interner.Size(), 3u);
}

TEST(SetInternerTest, DistinctSetsGetDistinctIds) {
  SetInterner interner;
  std::vector<uint32_t> ids;
  std::vector<VertexSet> sets;
  for (uint64_t seed = 0; seed < 200; ++seed) {
    VertexSet s = MakeSet(150, seed);
    bool duplicate = false;
    for (const VertexSet& prev : sets) duplicate |= (prev == s);
    if (duplicate) continue;
    sets.push_back(std::move(s));
    ids.push_back(interner.Intern(sets.back()));
  }
  for (size_t i = 0; i < ids.size(); ++i) {
    for (size_t j = i + 1; j < ids.size(); ++j) {
      EXPECT_NE(ids[i], ids[j]);
    }
  }
  EXPECT_EQ(interner.Size(), sets.size());
}

TEST(SetInternerTest, ResolveAndHashOfRoundTrip) {
  SetInterner interner;
  std::vector<std::pair<uint32_t, VertexSet>> entries;
  for (uint64_t seed = 0; seed < 100; ++seed) {
    VertexSet s = MakeSet(200, seed * 31 + 1);
    const uint32_t id = interner.Intern(s);
    entries.emplace_back(id, std::move(s));
  }
  for (const auto& [id, s] : entries) {
    const VertexSet& canonical = interner.Resolve(id);
    EXPECT_EQ(canonical, s);
    EXPECT_EQ(interner.HashOf(id), s.Hash());
    // Resolve must be stable: the same id always names the same storage.
    EXPECT_EQ(&interner.Resolve(id), &canonical);
  }
}

}  // namespace
}  // namespace ghd
