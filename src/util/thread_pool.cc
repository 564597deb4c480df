#include "util/thread_pool.h"

#include <sched.h>

namespace ghd {

int UsableCpus() {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof(mask), &mask) == 0) {
    const int count = CPU_COUNT(&mask);
    if (count > 0) return count;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

int WorkerCount(int requested, int usable_cpus, int tasks) {
  int workers = std::max(1, usable_cpus);
  if (requested > 0) workers = std::min(workers, requested);
  return std::max(1, std::min(workers, tasks));
}

}  // namespace ghd
