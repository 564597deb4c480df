#include <optional>
#include <vector>

#include "core/ghw_upper.h"
#include "csp/backtracking.h"
#include "csp/csp.h"
#include "csp/join_tree.h"
#include "csp/problems.h"
#include "csp/relation.h"
#include "csp/yannakakis.h"
#include "gen/generators.h"
#include "gen/random_hypergraphs.h"
#include "gtest/gtest.h"

namespace ghd {
namespace {

TEST(RelationTest, ScopeAndTuples) {
  Relation r({3, 7});
  EXPECT_EQ(r.arity(), 2);
  EXPECT_TRUE(r.empty());
  r.AddTuple({1, 2});
  EXPECT_EQ(r.size(), 1);
  EXPECT_EQ(r.PositionOf(7), 1);
  EXPECT_EQ(r.PositionOf(4), -1);
}

TEST(RelationTest, NaturalJoinOnSharedVariable) {
  Relation a({0, 1});
  a.AddTuple({1, 2});
  a.AddTuple({1, 3});
  Relation b({1, 2});
  b.AddTuple({2, 9});
  b.AddTuple({4, 8});
  Relation j = Relation::NaturalJoin(a, b);
  EXPECT_EQ(j.scope(), (std::vector<int>{0, 1, 2}));
  ASSERT_EQ(j.size(), 1);
  EXPECT_EQ(j.tuples()[0], (std::vector<int>{1, 2, 9}));
}

TEST(RelationTest, JoinWithNoSharedVariablesIsCrossProduct) {
  Relation a({0});
  a.AddTuple({1});
  a.AddTuple({2});
  Relation b({1});
  b.AddTuple({7});
  Relation j = Relation::NaturalJoin(a, b);
  EXPECT_EQ(j.size(), 2);
}

TEST(RelationTest, JoinOnIdenticalScopeIsIntersection) {
  Relation a({0, 1});
  a.AddTuple({1, 1});
  a.AddTuple({2, 2});
  Relation b({0, 1});
  b.AddTuple({2, 2});
  b.AddTuple({3, 3});
  Relation j = Relation::NaturalJoin(a, b);
  ASSERT_EQ(j.size(), 1);
  EXPECT_EQ(j.tuples()[0], (std::vector<int>{2, 2}));
}

TEST(RelationTest, Semijoin) {
  Relation a({0, 1});
  a.AddTuple({1, 5});
  a.AddTuple({2, 6});
  Relation b({1, 2});
  b.AddTuple({5, 0});
  Relation s = a.SemijoinWith(b);
  ASSERT_EQ(s.size(), 1);
  EXPECT_EQ(s.tuples()[0], (std::vector<int>{1, 5}));
  EXPECT_EQ(s.scope(), a.scope());
}

TEST(RelationTest, ProjectionDeduplicates) {
  Relation a({0, 1});
  a.AddTuple({1, 5});
  a.AddTuple({1, 6});
  Relation p = a.ProjectOnto({0});
  EXPECT_EQ(p.size(), 1);
  EXPECT_EQ(p.scope(), (std::vector<int>{0}));
}

TEST(RelationTest, ProjectionReordersColumns) {
  Relation a({0, 1});
  a.AddTuple({1, 5});
  Relation p = a.ProjectOnto({1, 0});
  EXPECT_EQ(p.tuples()[0], (std::vector<int>{5, 1}));
}

TEST(RelationTest, ConsistencyProbe) {
  Relation a({2, 4});
  a.AddTuple({1, 5});
  std::vector<int> assignment(6, -1);
  EXPECT_TRUE(a.HasTupleConsistentWith(assignment));
  assignment[2] = 1;
  EXPECT_TRUE(a.HasTupleConsistentWith(assignment));
  assignment[4] = 6;
  EXPECT_FALSE(a.HasTupleConsistentWith(assignment));
}

TEST(RelationTest, Deduplicate) {
  Relation a({0});
  a.AddTuple({1});
  a.AddTuple({1});
  a.AddTuple({2});
  a.Deduplicate();
  EXPECT_EQ(a.size(), 2);
}

TEST(CspTest, ColoringCspStructure) {
  Graph g = CycleGraph(4);
  Csp csp = MakeColoringCsp(g, 2);
  EXPECT_EQ(csp.num_variables(), 4);
  EXPECT_EQ(csp.constraints.size(), 4u);
  // An even cycle is 2-colorable.
  EXPECT_TRUE(csp.IsSolution({0, 1, 0, 1}));
  EXPECT_FALSE(csp.IsSolution({0, 0, 1, 1}));
}

TEST(CspTest, ConstraintHypergraphMatchesScopes) {
  Csp csp = MakeColoringCsp(CycleGraph(5), 3);
  Hypergraph h = csp.ConstraintHypergraph();
  EXPECT_EQ(h.num_vertices(), 5);
  EXPECT_EQ(h.num_edges(), 5);
  EXPECT_EQ(h.Rank(), 2);
}

TEST(CspTest, IsSolutionRejectsOutOfDomain) {
  Csp csp = MakeColoringCsp(CycleGraph(3), 3);
  EXPECT_FALSE(csp.IsSolution({0, 1, 5}));
  EXPECT_FALSE(csp.IsSolution({0, 1, -1}));
}

TEST(BacktrackingTest, SolvesEvenCycleColoring) {
  Csp csp = MakeColoringCsp(CycleGraph(6), 2);
  BacktrackingResult r = SolveBacktracking(csp);
  ASSERT_TRUE(r.decided);
  ASSERT_TRUE(r.solution.has_value());
  EXPECT_TRUE(csp.IsSolution(*r.solution));
}

TEST(BacktrackingTest, OddCycleNot2Colorable) {
  Csp csp = MakeColoringCsp(CycleGraph(5), 2);
  BacktrackingResult r = SolveBacktracking(csp);
  ASSERT_TRUE(r.decided);
  EXPECT_FALSE(r.solution.has_value());
}

TEST(BacktrackingTest, BudgetExhaustion) {
  Csp csp = MakeColoringCsp(GridGraph(4, 4), 3);
  BacktrackingOptions options;
  options.node_budget = 2;
  BacktrackingResult r = SolveBacktracking(csp, options);
  EXPECT_FALSE(r.decided);
}

GeneralizedHypertreeDecomposition DecomposeConstraintGraph(const Csp& csp) {
  return GhwUpperBound(csp.ConstraintHypergraph(), OrderingHeuristic::kMinFill,
                       CoverMode::kExact)
      .ghd;
}

TEST(JoinTreeTest, BuildsOneRelationPerNode) {
  Csp csp = MakeColoringCsp(CycleGraph(4), 2);
  GeneralizedHypertreeDecomposition ghd = DecomposeConstraintGraph(csp);
  Result<JoinTree> jt = BuildJoinTree(csp, ghd);
  ASSERT_TRUE(jt.ok());
  EXPECT_GE(jt.value().num_nodes(), ghd.num_nodes());
  EXPECT_EQ(jt.value().num_nodes() - 1,
            static_cast<int>(jt.value().edges.size()));
}

TEST(JoinTreeTest, RejectsInvalidDecomposition) {
  Csp csp = MakeColoringCsp(CycleGraph(4), 2);
  GeneralizedHypertreeDecomposition bogus;
  bogus.bags = {VertexSet::Of(4, {0})};
  bogus.guards = {{0}};
  Result<JoinTree> jt = BuildJoinTree(csp, bogus);
  EXPECT_FALSE(jt.ok());
}

TEST(YannakakisTest, SolvesSatisfiableColoring) {
  Csp csp = MakeColoringCsp(CycleGraph(6), 2);
  auto solution = SolveViaDecomposition(csp, DecomposeConstraintGraph(csp));
  ASSERT_TRUE(solution.has_value());
  EXPECT_TRUE(csp.IsSolution(*solution));
}

TEST(YannakakisTest, DetectsUnsatisfiableColoring) {
  Csp csp = MakeColoringCsp(CycleGraph(7), 2);  // odd cycle
  auto solution = SolveViaDecomposition(csp, DecomposeConstraintGraph(csp));
  EXPECT_FALSE(solution.has_value());
}

TEST(YannakakisTest, GridColoring3Colors) {
  Csp csp = MakeColoringCsp(GridGraph(3, 3), 3);
  AcyclicSolveStats stats;
  auto solution =
      SolveViaDecomposition(csp, DecomposeConstraintGraph(csp), &stats);
  ASSERT_TRUE(solution.has_value());
  EXPECT_TRUE(csp.IsSolution(*solution));
  EXPECT_GT(stats.semijoins, 0);
}

TEST(YannakakisTest, AgreesWithBacktrackingOnRandomCsps) {
  for (uint64_t seed = 0; seed < 12; ++seed) {
    Hypergraph h = RandomUniformHypergraph(8, 6, 3, seed);
    // Mix of tight (often UNSAT) and loose (often SAT) instances.
    const double tightness = seed % 2 == 0 ? 0.25 : 0.6;
    Csp csp = MakeRandomCsp(h, 3, tightness, seed * 7 + 1);
    BacktrackingResult bt = SolveBacktracking(csp);
    ASSERT_TRUE(bt.decided);
    auto yk = SolveViaDecomposition(csp, DecomposeConstraintGraph(csp));
    EXPECT_EQ(yk.has_value(), bt.solution.has_value()) << "seed " << seed;
    if (yk.has_value()) {
      EXPECT_TRUE(csp.IsSolution(*yk));
    }
  }
}

TEST(YannakakisTest, UnconstrainedVariablesGetValues) {
  // A CSP whose hypergraph misses one variable entirely.
  Csp csp;
  csp.variable_names = {"a", "b", "free"};
  csp.domain_sizes = {2, 2, 4};
  Relation r({0, 1});
  r.AddTuple({0, 1});
  csp.constraints.push_back(r);
  GeneralizedHypertreeDecomposition ghd;
  ghd.bags = {VertexSet::Of(3, {0, 1})};
  ghd.guards = {{0}};
  auto solution = SolveViaDecomposition(csp, ghd);
  ASSERT_TRUE(solution.has_value());
  EXPECT_EQ((*solution)[0], 0);
  EXPECT_EQ((*solution)[1], 1);
  EXPECT_GE((*solution)[2], 0);
}

TEST(RandomCspTest, TightnessOneKeepsAllTuples) {
  Hypergraph h = CycleHypergraph(4);
  Csp csp = MakeRandomCsp(h, 2, 1.0, 3);
  for (const Relation& r : csp.constraints) EXPECT_EQ(r.size(), 4);
}

TEST(RandomCspTest, ConstraintsNeverEmpty) {
  Hypergraph h = RandomUniformHypergraph(9, 7, 3, 2);
  Csp csp = MakeRandomCsp(h, 2, 0.0, 5);
  for (const Relation& r : csp.constraints) EXPECT_GE(r.size(), 1);
}

// The satisfiability oracle for the problem generators: Yannakakis over a
// min-fill decomposition of the constraint hypergraph.
std::optional<std::vector<int>> SolveByDecomposition(const Csp& csp) {
  return SolveViaDecomposition(csp, DecomposeConstraintGraph(csp));
}

TEST(ProblemsTest, NQueensKnownSatisfiability) {
  // n = 1 trivially SAT; n = 2, 3 UNSAT; n = 4, 5, 6 SAT.
  EXPECT_TRUE(SolveByDecomposition(NQueensCsp(1)).has_value());
  EXPECT_FALSE(SolveByDecomposition(NQueensCsp(2)).has_value());
  EXPECT_FALSE(SolveByDecomposition(NQueensCsp(3)).has_value());
  for (int n = 4; n <= 6; ++n) {
    Csp csp = NQueensCsp(n);
    auto solution = SolveByDecomposition(csp);
    ASSERT_TRUE(solution.has_value()) << n;
    EXPECT_TRUE(csp.IsSolution(*solution)) << n;
  }
}

TEST(ProblemsTest, NQueensAgreesWithBacktracking) {
  for (int n = 4; n <= 6; ++n) {
    BacktrackingResult bt = SolveBacktracking(NQueensCsp(n));
    ASSERT_TRUE(bt.decided);
    EXPECT_TRUE(bt.solution.has_value()) << n;
  }
}

TEST(ProblemsTest, PigeonholeSatisfiability) {
  EXPECT_TRUE(SolveByDecomposition(PigeonholeCsp(3, 3)).has_value());
  EXPECT_TRUE(SolveByDecomposition(PigeonholeCsp(3, 5)).has_value());
  EXPECT_FALSE(SolveByDecomposition(PigeonholeCsp(4, 3)).has_value());
  EXPECT_FALSE(SolveByDecomposition(PigeonholeCsp(5, 4)).has_value());
}

TEST(ProblemsTest, PigeonholeShape) {
  Csp csp = PigeonholeCsp(4, 3);
  EXPECT_EQ(csp.num_variables(), 4);
  EXPECT_EQ(csp.constraints.size(), 6u);  // all pairs
  Hypergraph h = csp.ConstraintHypergraph();
  EXPECT_EQ(h.num_edges(), 6);
}

}  // namespace
}  // namespace ghd
