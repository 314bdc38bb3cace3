// Figure 2: compute-side CPU time of a single Cowbird read versus an
// asynchronous one-sided RDMA read, broken down by subtask (post: lock /
// WQE / doorbell; poll: lock / CQE). The breakdown parameters come from the
// paper's rdtsc instrumentation of the OFED driver; the *measured* column
// shows what one operation actually charges in the simulator, validating
// that the model and the executed code path agree.
#include <cstdio>

#include "bench_util.h"
#include "rdma/params.h"
#include "workload/hash_workload.h"

using namespace cowbird;

int main() {
  bench::Banner("Figure 2",
                "CPU time of one read: async one-sided RDMA vs Cowbird");

  namespace cost = rdma::cost;
  std::printf("\nModelled per-operation compute-node CPU (ns):\n\n");
  bench::Table table({"path", "subtask", "ns"});
  table.Row({"RDMA post", "lock", bench::Fmt(cost::kPostLock, 0)});
  table.Row({"RDMA post", "wqe", bench::Fmt(cost::kPostWqe, 0)});
  table.Row({"RDMA post", "doorbell", bench::Fmt(cost::kPostDoorbell, 0)});
  table.Row({"RDMA poll", "lock", bench::Fmt(cost::kPollLock, 0)});
  table.Row({"RDMA poll", "cqe", bench::Fmt(cost::kPollCqe, 0)});
  table.Row({"RDMA total", "",
             bench::Fmt(cost::PostTotal() + cost::PollTotal(), 0)});
  table.Row({"Cowbird post", "ring writes", bench::Fmt(cost::kCowbirdPost, 0)});
  table.Row(
      {"Cowbird poll", "counter check", bench::Fmt(cost::kCowbirdPoll, 0)});
  table.Row({"Cowbird total", "",
             bench::Fmt(cost::kCowbirdPost + cost::kCowbirdPoll, 0)});
  table.Print();

  // Measured: issue+complete cost per op from a one-thread run of each
  // paradigm (communication CPU divided by completed operations).
  auto measure = [](workload::Paradigm p) {
    workload::HashWorkloadConfig c;
    c.paradigm = p;
    c.threads = 1;
    c.record_size = 8;  // minimize copy contribution
    c.records = 200'000;
    c.local_fraction = 0.0;
    c.measure = Millis(1);
    const auto r = workload::RunHashWorkload(c);
    // comm time per op = comm_ratio * total_busy / ops; reconstruct from
    // mops: ops/ns = mops*1e-3.
    const double ns_per_op = 1.0 / (r.mops * 1e-3);
    return r.comm_ratio * ns_per_op;
  };
  const double rdma_comm = measure(workload::Paradigm::kOneSidedAsync);
  const double cowbird_comm = measure(workload::Paradigm::kCowbird);
  std::printf("\nMeasured communication CPU per operation (ns/op):\n");
  std::printf("  async one-sided RDMA : %8.1f\n", rdma_comm);
  std::printf("  Cowbird              : %8.1f\n", cowbird_comm);
  std::printf("  ratio                : %8.1fx\n", rdma_comm / cowbird_comm);

  std::printf("\nShape checks vs the paper:\n");
  const double model_ratio =
      static_cast<double>(cost::PostTotal() + cost::PollTotal()) /
      static_cast<double>(cost::kCowbirdPost + cost::kCowbirdPoll);
  bench::ShapeCheck(model_ratio > 8,
                    "RDMA needs ~an order of magnitude more CPU per read");
  bench::ShapeCheck(rdma_comm > 5 * cowbird_comm,
                    "measured end-to-end gap preserves the order of magnitude");
  return 0;
}
