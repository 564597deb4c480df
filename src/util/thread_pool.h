// Parallelism across requests. Every search in this library runs on one
// thread; what runs concurrently is whole requests — the batch drivers
// (ghd_cli decide-many / anytime-many) and the bench suite's fan-out hand
// each worker one request at a time through ParallelFor.
#ifndef GHD_UTIL_THREAD_POOL_H_
#define GHD_UTIL_THREAD_POOL_H_

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <system_error>
#include <thread>
#include <vector>

namespace ghd {

/// CPUs this process may run on: the size of its sched_getaffinity mask, so
/// a run under `taskset -c 1` sees 1. Falls back to
/// std::thread::hardware_concurrency, and to 1 when that is unknown.
int UsableCpus();

/// Workers for `tasks` independent requests when `requested` were asked for
/// (<= 0 means "every usable CPU"): min(requested, usable_cpus, tasks), and
/// at least 1. Pure, so the sizing is testable without starting threads.
int WorkerCount(int requested, int usable_cpus, int tasks);

/// Calls `fn(i)` once for every i in [0, n) on `threads` threads (the caller
/// is one of them); each thread claims the next index from one atomic
/// counter. With `threads` <= 1 or n <= 1 the loop runs inline, in order;
/// when the system cannot start a thread, the threads already running do
/// the rest.
/// After the first exception no further index is claimed, and that
/// exception is rethrown once every thread has stopped.
template <typename Fn>
void ParallelFor(int threads, int n, Fn fn) {
  threads = std::min(threads, n);
  if (threads <= 1) {
    for (int i = 0; i < n; ++i) fn(i);
    return;
  }
  std::atomic<int> next{0};
  std::mutex error_mu;
  std::exception_ptr error;
  auto work = [&] {
    for (int i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
      try {
        fn(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mu);
        if (!error) error = std::current_exception();
        next.store(n);
      }
    }
  };
  std::vector<std::thread> workers;
  workers.reserve(threads - 1);
  try {
    for (int t = 1; t < threads; ++t) workers.emplace_back(work);
  } catch (const std::system_error&) {
    // No thread to spare: the ones started and the caller claim every index.
  }
  work();
  for (std::thread& w : workers) w.join();
  if (error) std::rethrow_exception(error);
}

}  // namespace ghd

#endif  // GHD_UTIL_THREAD_POOL_H_
