// Parallelism across requests: the batch drivers run whole cached asks side
// by side over one shared DecompCache (ghd_cli decide-many / anytime-many).
// The verdicts, widths and intervals must equal a sequential run's, whichever
// ask reaches the cache first. Runs under TSan in CI.
#include <string>
#include <utility>
#include <vector>

#include "cache/cached_solver.h"
#include "cache/decomp_cache.h"
#include "gtest/gtest.h"
#include "test_instances.h"
#include "util/thread_pool.h"

namespace ghd {
namespace {

constexpr int kThreads = 4;

// Small classes, each asked three times under different labelings, so
// concurrent asks race on the same cache entries.
std::vector<PreparedInstance> Asks() {
  const std::vector<Hypergraph> bases = {
      CycleHypergraph(9),        Grid2dHypergraph(3, 3), AdderHypergraph(3),
      CliqueHypergraph(5),       TriangleStripHypergraph(4),
      BridgeHypergraph(3),       StarHypergraph(4, 3),
  };
  Rng rng(7);
  std::vector<PreparedInstance> asks;
  for (int copy = 0; copy < 3; ++copy) {
    for (const Hypergraph& h : bases) {
      asks.push_back(PrepareInstance(RandomRelabeling(h, &rng)));
    }
  }
  return asks;
}

TEST(BatchTest, ParallelDecideMatchesSequential) {
  const std::vector<PreparedInstance> asks = Asks();
  const int n = static_cast<int>(asks.size());
  for (int k = 1; k <= 3; ++k) {
    std::vector<CachedDecideResult> sequential(n), parallel(n);
    DecompCache sequential_cache;
    ParallelFor(1, n, [&](int i) {
      sequential[i] = CachedDecideHw(asks[i], k, &sequential_cache);
    });
    DecompCache shared_cache;
    ParallelFor(kThreads, n, [&](int i) {
      parallel[i] = CachedDecideHw(asks[i], k, &shared_cache);
    });
    for (int i = 0; i < n; ++i) {
      ASSERT_TRUE(sequential[i].decided) << i << " k=" << k;
      EXPECT_EQ(parallel[i].decided, sequential[i].decided) << i;
      EXPECT_EQ(parallel[i].exists, sequential[i].exists) << i << " k=" << k;
      EXPECT_EQ(parallel[i].width, sequential[i].width) << i << " k=" << k;
      if (parallel[i].exists) {
        EXPECT_TRUE(
            parallel[i].decomposition.Validate(asks[i].original).ok())
            << i;
      }
    }
    EXPECT_EQ(shared_cache.size(), sequential_cache.size()) << "k=" << k;
  }
}

TEST(BatchTest, ParallelAnytimeMatchesSequential) {
  const std::vector<PreparedInstance> asks = Asks();
  const int n = static_cast<int>(asks.size());
  std::vector<CachedAnytimeResult> sequential(n), parallel(n);
  DecompCache sequential_cache;
  ParallelFor(1, n, [&](int i) {
    sequential[i] = CachedAnytimeGhw(asks[i], AnytimeOptions{},
                                     &sequential_cache);
  });
  DecompCache shared_cache;
  ParallelFor(kThreads, n, [&](int i) {
    parallel[i] = CachedAnytimeGhw(asks[i], AnytimeOptions{}, &shared_cache);
  });
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(sequential[i].exact) << i;
    EXPECT_EQ(parallel[i].exact, sequential[i].exact) << i;
    EXPECT_EQ(parallel[i].lower_bound, sequential[i].lower_bound) << i;
    EXPECT_EQ(parallel[i].upper_bound, sequential[i].upper_bound) << i;
    EXPECT_TRUE(parallel[i].witness.Validate(asks[i].original).ok()) << i;
  }
  EXPECT_EQ(shared_cache.size(), sequential_cache.size());
}

}  // namespace
}  // namespace ghd
