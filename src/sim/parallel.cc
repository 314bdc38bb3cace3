#include "sim/parallel.h"

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

namespace cowbird::sim {

int MaxParallelism() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

void ParallelFor(int jobs, int n, const std::function<void(int)>& body) {
  if (n <= 0) return;
  const int workers = std::min(jobs <= 0 ? MaxParallelism() : jobs, n);
  if (workers <= 1) {
    for (int i = 0; i < n; ++i) body(i);
    return;
  }

  // Each item is an entire simulation run, so one counter hands them out;
  // the joins below publish every result to the caller.
  std::atomic<int> next{0};
  auto worker_loop = [&] {
    for (int i = next++; i < n; i = next++) body(i);
  };

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(workers - 1));
  for (int w = 1; w < workers; ++w) threads.emplace_back(worker_loop);
  worker_loop();
  for (std::thread& t : threads) t.join();
}

}  // namespace cowbird::sim
