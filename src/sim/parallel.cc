#include "sim/parallel.h"

#include <algorithm>
#include <deque>
#include <mutex>
#include <thread>
#include <vector>

namespace cowbird::sim {

int MaxParallelism() {
#ifdef COWBIRD_PARALLEL_DISABLED
  return 1;
#else
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
#endif
}

namespace {

// Per-worker deque under a mutex. Item counts are tiny (seeds, bench
// configs) and each item is an entire simulation run, so contention on the
// pops is irrelevant next to the work they hand out; a lock keeps the
// steal path obviously correct.
struct WorkerDeque {
  std::mutex mu;
  std::deque<int> items;

  bool PopFront(int* out) {
    std::lock_guard<std::mutex> lock(mu);
    if (items.empty()) return false;
    *out = items.front();
    items.pop_front();
    return true;
  }
  bool PopBack(int* out) {
    std::lock_guard<std::mutex> lock(mu);
    if (items.empty()) return false;
    *out = items.back();
    items.pop_back();
    return true;
  }
};

}  // namespace

void ParallelFor(int jobs, int n, const std::function<void(int)>& body) {
  if (n <= 0) return;
  int workers = jobs <= 0 ? MaxParallelism() : jobs;
#ifdef COWBIRD_PARALLEL_DISABLED
  workers = 1;
#endif
  workers = std::min(workers, n);
  if (workers <= 1) {
    for (int i = 0; i < n; ++i) body(i);
    return;
  }

  std::vector<WorkerDeque> deques(static_cast<std::size_t>(workers));
  for (int i = 0; i < n; ++i) {
    deques[static_cast<std::size_t>(i % workers)].items.push_back(i);
  }

  // No work is ever added after this point, so a worker may retire as soon
  // as one full scan (own deque + every victim) comes up empty.
  auto worker_loop = [&](int w) {
    int item;
    for (;;) {
      if (deques[static_cast<std::size_t>(w)].PopFront(&item)) {
        body(item);
        continue;
      }
      bool stole = false;
      for (int k = 1; k < workers; ++k) {
        const int victim = (w + k) % workers;
        if (deques[static_cast<std::size_t>(victim)].PopBack(&item)) {
          body(item);
          stole = true;
          break;
        }
      }
      if (!stole) return;
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(workers - 1));
  for (int w = 1; w < workers; ++w) {
    threads.emplace_back(worker_loop, w);
  }
  worker_loop(0);
  for (std::thread& t : threads) t.join();
}

}  // namespace cowbird::sim
