// Run-level parallelism: ParallelFor runs N completely independent jobs
// (each typically owning a private Simulation) on a small work-stealing
// pool. Each job stays bit-deterministic on its own; callers keep results in
// job-index order, so an aggregated report is byte-identical no matter how
// many workers ran it. A single simulated run is always one event loop on
// one thread.
#pragma once

#include <functional>

namespace cowbird::sim {

// Upper bound on useful thread-level parallelism: hardware concurrency, or
// 1 when the build was configured with COWBIRD_PARALLEL=OFF.
int MaxParallelism();

// Default job count for --jobs style flags (same as MaxParallelism, named
// for intent at call sites).
inline int HardwareJobs() { return MaxParallelism(); }

// Runs body(0..n-1), each index exactly once, on min(jobs, n) workers with
// work stealing (each worker pops its own deque from the front and steals
// from others' backs). jobs <= 1 — or a COWBIRD_PARALLEL=OFF build — runs a
// plain serial loop on the calling thread. The call returns after every
// index has completed. An explicit jobs > MaxParallelism() is honored
// (oversubscription is harmless and the determinism tests need it).
void ParallelFor(int jobs, int n, const std::function<void(int)>& body);

}  // namespace cowbird::sim
