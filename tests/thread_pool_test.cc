#include "util/thread_pool.h"

#include <atomic>
#include <stdexcept>
#include <vector>

#include "gtest/gtest.h"

namespace ghd {
namespace {

TEST(ParallelForTest, EveryIndexRunsOnce) {
  constexpr int kN = 1000;
  for (int threads : {1, 4}) {
    std::vector<std::atomic<int>> hits(kN);
    ParallelFor(threads, kN, [&hits](int i) { hits[i].fetch_add(1); });
    for (int i = 0; i < kN; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i << " threads " << threads;
    }
  }
}

TEST(ParallelForTest, OneThreadRunsInOrderOnTheCaller) {
  std::vector<int> order;
  ParallelFor(1, 8, [&order](int i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(ParallelForTest, ExceptionPropagates) {
  for (int threads : {1, 4}) {
    std::atomic<int> ran{0};
    EXPECT_THROW(ParallelFor(threads, 64,
                             [&ran](int i) {
                               ran.fetch_add(1);
                               if (i == 5) throw std::runtime_error("boom");
                             }),
                 std::runtime_error)
        << "threads " << threads;
    EXPECT_GE(ran.load(), 1);
  }
}

TEST(ParallelForTest, ZeroTasksRunNothing) {
  for (int threads : {1, 4}) {
    int calls = 0;
    ParallelFor(threads, 0, [&calls](int) { ++calls; });
    EXPECT_EQ(calls, 0);
  }
}

TEST(ParallelForTest, UsableCpusIsPositive) { EXPECT_GE(UsableCpus(), 1); }

TEST(ParallelForTest, WorkerCountIsTheSmallestLimit) {
  // min(requested, usable CPUs, tasks), never below 1.
  EXPECT_EQ(WorkerCount(4, 8, 100), 4);
  EXPECT_EQ(WorkerCount(8, 4, 100), 4);
  EXPECT_EQ(WorkerCount(8, 8, 3), 3);
  EXPECT_EQ(WorkerCount(1, 8, 100), 1);
  // 0 (or below) asks for every usable CPU.
  EXPECT_EQ(WorkerCount(0, 6, 100), 6);
  EXPECT_EQ(WorkerCount(-3, 6, 100), 6);
  EXPECT_EQ(WorkerCount(0, 6, 2), 2);
  // Degenerate inputs still give one worker.
  EXPECT_EQ(WorkerCount(4, 8, 0), 1);
  EXPECT_EQ(WorkerCount(4, 0, 10), 1);
}

}  // namespace
}  // namespace ghd
