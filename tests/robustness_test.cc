// Robustness and algebraic-law tests: .hg and .trace parser fuzzing by
// truncation and mutation (must never crash — only parse or fail cleanly),
// malformed trace lines (each a parse error, never misread), relational
// algebra laws on random relations, and a reference-model check of VertexSet
// against std::set.
#include <algorithm>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "csp/relation.h"
#include "gen/random_hypergraphs.h"
#include "gen/workload_trace.h"
#include "gtest/gtest.h"
#include "hypergraph/hg_io.h"
#include "util/bitset.h"
#include "util/rng.h"

namespace ghd {
namespace {

TEST(ParserRobustnessTest, HgTruncationsNeverCrash) {
  const std::string valid =
      "edge_a(x1,x2,x3),\n% comment\nedge_b(x2,x4),\nedge_c(x4,x5).\n";
  for (size_t cut = 0; cut <= valid.size(); ++cut) {
    Result<Hypergraph> r = ParseHg(valid.substr(0, cut));
    if (r.ok()) {
      EXPECT_GE(r.value().num_edges(), 1);
    }
  }
}

TEST(ParserRobustnessTest, HgRandomMutationsNeverCrash) {
  const std::string valid = "e1(a,b,c),\ne2(c,d),\ne3(d,e).\n";
  Rng rng(42);
  const std::string noise = "(),.%abc123_ \n";
  for (int trial = 0; trial < 300; ++trial) {
    std::string mutated = valid;
    const int edits = 1 + rng.UniformInt(4);
    for (int e = 0; e < edits; ++e) {
      const size_t pos = rng.UniformInt(static_cast<int>(mutated.size()));
      mutated[pos] = noise[rng.UniformInt(static_cast<int>(noise.size()))];
    }
    Result<Hypergraph> r = ParseHg(mutated);  // must not crash
    if (r.ok()) {
      EXPECT_GE(r.value().num_edges(), 1);
    }
  }
}

// A valid trace, the smallest that exercises every line kind.
const char kMiniTrace[] =
    "ghdtrace 1\n"
    "k 2\n"
    "base-begin\n"
    "e0(a,b),\ne1(b,c),\ne2(c,a).\n"
    "base-end\n"
    "remove e1\n"
    "decide\n"
    "batch 2\n"
    "insert e1 b c\n"
    "remove e0\n"
    "decide 3\n";

TEST(TraceParserTest, ParsesTheMiniTrace) {
  Result<WorkloadTrace> r = ParseTrace(kMiniTrace);
  ASSERT_TRUE(r.ok()) << r.status().message();
  const WorkloadTrace& t = r.value();
  EXPECT_EQ(t.default_k, 2);
  EXPECT_EQ(t.base.num_edges(), 3);
  ASSERT_EQ(t.events.size(), 4u);
  EXPECT_EQ(t.events[2].mutations.size(), 2u);
  EXPECT_EQ(t.events[3].k, 3);
}

// Each case replaces one line of the mini trace and must be refused. An
// integer counts only when the whole token is a number in range, so "2abc"
// is not 2 and an overflowing count is not some wrapped value.
TEST(TraceParserTest, BadLinesAreParseErrors) {
  struct Case {
    const char* replace;
    const char* with;
  };
  const Case cases[] = {
      {"ghdtrace 1\n", "ghdtrace 2\n"},
      {"k 2\n", "k 1x\n"},
      {"k 2\n", "k 0\n"},
      {"k 2\n", "k -3\n"},
      {"k 2\n", "k +2\n"},
      {"k 2\n", "k 99999999999999999999\n"},
      {"base-begin\n", "base-start\n"},
      {"base-end\n", ""},
      {"e0(a,b),", "e0(a,b"},
      {"remove e1\n", "remove\n"},
      {"remove e1\n", "remove e1 e2\n"},
      {"remove e1\n", "rename e1\n"},
      {"insert e1 b c\n", "insert e1\n"},
      {"decide\n", "decide 2abc\n"},
      {"decide\n", "decide 0\n"},
      {"decide\n", "decide 2 3\n"},
      {"decide\n", "decide 4294967298\n"},
      {"batch 2\n", "batch\n"},
      {"batch 2\n", "batch 2x\n"},
      {"batch 2\n", "batch 0\n"},
      {"batch 2\n", "batch 3\n"},
      {"batch 2\n", "batch 2147483648\n"},
      {"batch 2\n", "batch 1e3\n"},
  };
  for (const Case& c : cases) {
    std::string text = kMiniTrace;
    const size_t at = text.find(c.replace);
    ASSERT_NE(at, std::string::npos) << c.replace;
    text.replace(at, std::string(c.replace).size(), c.with);
    Result<WorkloadTrace> r = ParseTrace(text);
    ASSERT_FALSE(r.ok()) << "accepted: " << c.with;
    EXPECT_EQ(r.status().code(), StatusCode::kParseError) << c.with;
  }
}

std::string SmokeTrace() {
  std::ifstream in(std::string(GHD_DATA_DIR) + "/traces/cycle64_smoke.trace");
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

// A damaged trace either fails with a parse error or parses to a well-formed
// trace: every decide has a usable k and every delta at least one mutation.
void ExpectWellFormed(const Result<WorkloadTrace>& r) {
  if (!r.ok()) {
    EXPECT_EQ(r.status().code(), StatusCode::kParseError);
    return;
  }
  EXPECT_GE(r.value().default_k, 1);
  for (const TraceEvent& ev : r.value().events) {
    if (ev.kind == TraceEvent::Kind::kDecide) {
      EXPECT_GE(ev.k, 0);
    } else {
      EXPECT_FALSE(ev.mutations.empty());
    }
  }
}

TEST(TraceParserTest, SmokeTraceTruncationsNeverCrash) {
  const std::string valid = SmokeTrace();
  ASSERT_TRUE(ParseTrace(valid).ok());
  for (size_t cut = 0; cut <= valid.size(); ++cut) {
    ExpectWellFormed(ParseTrace(valid.substr(0, cut)));
  }
}

TEST(TraceParserTest, SmokeTraceByteMutationsNeverCrash) {
  const std::string valid = SmokeTrace();
  const std::string noise = "0123456789-+x() ,.%\n\t\r\xff";
  Rng rng(1515);
  for (int trial = 0; trial < 2000; ++trial) {
    std::string mutated = valid;
    const int edits = 1 + rng.UniformInt(6);
    for (int e = 0; e < edits; ++e) {
      const size_t pos = rng.UniformInt(static_cast<int>(mutated.size()));
      mutated[pos] = noise[rng.UniformInt(static_cast<int>(noise.size()))];
    }
    ExpectWellFormed(ParseTrace(mutated));
  }
}

Relation RandomRelation(const std::vector<int>& scope, int domain, int rows,
                        Rng* rng) {
  Relation r(scope);
  for (int t = 0; t < rows; ++t) {
    std::vector<int> tuple;
    for (size_t i = 0; i < scope.size(); ++i) {
      tuple.push_back(rng->UniformInt(domain));
    }
    r.AddTuple(std::move(tuple));
  }
  r.Deduplicate();
  return r;
}

// Multiset-free comparison of relations over possibly permuted scopes.
std::set<std::vector<int>> Canonical(const Relation& r) {
  std::vector<int> sorted_scope = r.scope();
  std::sort(sorted_scope.begin(), sorted_scope.end());
  std::set<std::vector<int>> out;
  for (const auto& t : r.tuples()) {
    std::vector<int> key;
    for (int v : sorted_scope) key.push_back(t[r.PositionOf(v)]);
    out.insert(key);
  }
  return out;
}

TEST(RelationAlgebraTest, JoinIsCommutative) {
  Rng rng(7);
  for (int trial = 0; trial < 25; ++trial) {
    Relation a = RandomRelation({0, 1, 2}, 3, 12, &rng);
    Relation b = RandomRelation({1, 2, 3}, 3, 12, &rng);
    EXPECT_EQ(Canonical(Relation::NaturalJoin(a, b)),
              Canonical(Relation::NaturalJoin(b, a)));
  }
}

TEST(RelationAlgebraTest, JoinIsAssociative) {
  Rng rng(8);
  for (int trial = 0; trial < 15; ++trial) {
    Relation a = RandomRelation({0, 1}, 3, 8, &rng);
    Relation b = RandomRelation({1, 2}, 3, 8, &rng);
    Relation c = RandomRelation({2, 3}, 3, 8, &rng);
    Relation left =
        Relation::NaturalJoin(Relation::NaturalJoin(a, b), c);
    Relation right =
        Relation::NaturalJoin(a, Relation::NaturalJoin(b, c));
    EXPECT_EQ(Canonical(left), Canonical(right));
  }
}

TEST(RelationAlgebraTest, SemijoinIsIdempotent) {
  Rng rng(9);
  for (int trial = 0; trial < 25; ++trial) {
    Relation a = RandomRelation({0, 1}, 3, 10, &rng);
    Relation b = RandomRelation({1, 2}, 3, 10, &rng);
    Relation once = a.SemijoinWith(b);
    Relation twice = once.SemijoinWith(b);
    EXPECT_EQ(Canonical(once), Canonical(twice));
  }
}

TEST(RelationAlgebraTest, SemijoinEqualsJoinProjection) {
  Rng rng(10);
  for (int trial = 0; trial < 25; ++trial) {
    Relation a = RandomRelation({0, 1}, 3, 10, &rng);
    Relation b = RandomRelation({1, 2}, 3, 10, &rng);
    Relation semi = a.SemijoinWith(b);
    Relation joined = Relation::NaturalJoin(a, b).ProjectOnto(a.scope());
    EXPECT_EQ(Canonical(semi), Canonical(joined));
  }
}

TEST(RelationAlgebraTest, JoinWithSelfIsIdentity) {
  Rng rng(11);
  Relation a = RandomRelation({0, 1, 2}, 4, 20, &rng);
  EXPECT_EQ(Canonical(Relation::NaturalJoin(a, a)), Canonical(a));
}

TEST(VertexSetModelTest, MatchesStdSetUnderRandomOps) {
  Rng rng(13);
  const int universe = 150;
  VertexSet subject(universe);
  std::set<int> model;
  for (int op = 0; op < 3000; ++op) {
    const int v = rng.UniformInt(universe);
    switch (rng.UniformInt(3)) {
      case 0:
        subject.Set(v);
        model.insert(v);
        break;
      case 1:
        subject.Reset(v);
        model.erase(v);
        break;
      case 2:
        ASSERT_EQ(subject.Test(v), model.count(v) != 0) << "op " << op;
        break;
    }
    if (op % 250 == 0) {
      ASSERT_EQ(subject.Count(), static_cast<int>(model.size()));
      ASSERT_EQ(subject.ToVector(),
                std::vector<int>(model.begin(), model.end()));
    }
  }
}

TEST(VertexSetModelTest, BinaryOpsMatchStdSet) {
  Rng rng(14);
  const int universe = 100;
  for (int trial = 0; trial < 40; ++trial) {
    std::set<int> ma, mb;
    VertexSet a(universe), b(universe);
    for (int i = 0; i < 30; ++i) {
      int va = rng.UniformInt(universe), vb = rng.UniformInt(universe);
      a.Set(va);
      ma.insert(va);
      b.Set(vb);
      mb.insert(vb);
    }
    std::set<int> munion, minter, mdiff;
    std::set_union(ma.begin(), ma.end(), mb.begin(), mb.end(),
                   std::inserter(munion, munion.begin()));
    std::set_intersection(ma.begin(), ma.end(), mb.begin(), mb.end(),
                          std::inserter(minter, minter.begin()));
    std::set_difference(ma.begin(), ma.end(), mb.begin(), mb.end(),
                        std::inserter(mdiff, mdiff.begin()));
    EXPECT_EQ((a | b).ToVector(),
              std::vector<int>(munion.begin(), munion.end()));
    EXPECT_EQ((a & b).ToVector(),
              std::vector<int>(minter.begin(), minter.end()));
    EXPECT_EQ((a - b).ToVector(),
              std::vector<int>(mdiff.begin(), mdiff.end()));
    EXPECT_EQ(a.IntersectCount(b), static_cast<int>(minter.size()));
    EXPECT_EQ(a.Intersects(b), !minter.empty());
  }
}

}  // namespace
}  // namespace ghd
