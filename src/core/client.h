// The Cowbird client library (Sections 4.1 and 4.3, Table 2).
//
// Every API call executes only local-memory loads and stores on the calling
// thread — there is no RDMA verb, no doorbell, no fence on this path, and no
// background activity. Issuing a request is: reserve ring space, fill the
// 24-byte metadata entry (rw_type last), bump the green-block tail. Checking
// completions is: load the engine-written progress counters and compare
// integers. The per-call CPU charges (rdma::cost::kCowbirdPost/kCowbirdPoll)
// are an order of magnitude below a verbs post/poll — Figure 2.
//
// Completion-side data movement: when a read completes, the engine has
// already deposited the payload in the response ring; the library copies it
// to the caller's destination buffer during the poll that discovers the
// completion, then frees the ring space.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/pool.h"
#include "common/ring.h"
#include "common/units.h"
#include "core/instance.h"
#include "core/request.h"
#include "rdma/device.h"
#include "rdma/params.h"
#include "sim/task.h"
#include "sim/thread.h"
#include "telemetry/hub.h"

namespace cowbird::core {

using PollId = std::uint32_t;

class CowbirdClient {
 public:
  // Gap between completion checks inside PollWait. The CPU is *not*
  // charged for this gap (a real application overlaps it with compute);
  // each check itself is charged.
  static constexpr Nanos kPollInterval = 200;

  struct Config {
    InstanceLayout layout;
    // Optional telemetry hub. When set, the library stamps each op's
    // kIssue/kRetired lifecycle phases and surfaces per-thread issue/retire
    // counters as callback gauges. nullptr = telemetry off (no cost).
    telemetry::Hub* telemetry = nullptr;
  };

  // Registers the client buffer area with the compute node's RDMA device so
  // offload engines can reach it, and watches the red blocks there so a
  // parked PollAny wakes when an engine writes one.
  CowbirdClient(rdma::Device& device, Config config);
  ~CowbirdClient();

  void RegisterRegion(const RegionInfo& region);
  // Replaces the cluster-pool translation ranges for one region (elastic
  // pool, DESIGN.md §14). Control-plane only: engines copy the descriptor at
  // attach time, so call this while the instance is detached (between the
  // cutover's detach and re-attach) and the re-attached engine sees the
  // new placement atomically.
  void SetRegionRanges(std::uint16_t region_id,
                       const std::vector<RangeEntry>& ranges) {
    auto& all = descriptor_.ranges;
    for (auto it = all.begin(); it != all.end();) {
      it = it->region_id == region_id ? all.erase(it) : it + 1;
    }
    all.insert(all.end(), ranges.begin(), ranges.end());
  }
  const InstanceDescriptor& descriptor() const { return descriptor_; }

  class ThreadContext;
  ThreadContext& thread(int index) { return *threads_[index]; }

  class ThreadContext {
   public:
    ThreadContext(CowbirdClient& client, int index);

    // Table 2: async_read(region_id, src, dest, length).
    // `remote_src_offset` is relative to the region base; `local_dest` is a
    // compute-node address the data will be copied to on completion.
    // Returns nullopt when a ring is full (caller should poll, then retry).
    sim::Task<std::optional<ReqId>> AsyncRead(sim::SimThread& thread,
                                              std::uint16_t region_id,
                                              std::uint64_t remote_src_offset,
                                              std::uint64_t local_dest,
                                              std::uint32_t length);

    // Table 2: async_write(region_id, src, dest, length).
    sim::Task<std::optional<ReqId>> AsyncWrite(
        sim::SimThread& thread, std::uint16_t region_id,
        std::uint64_t local_src, std::uint64_t remote_dest_offset,
        std::uint32_t length);

    PollId PollCreate();
    void PollAdd(PollId poll_id, ReqId req_id);
    void PollRemove(PollId poll_id, ReqId req_id);

    // Table 2: poll_wait(poll_id, responses, max_ret, timeout). Appends up
    // to `max_ret` completed request IDs into the caller-provided
    // `responses` array (cleared first), waiting at most `timeout`; returns
    // the count. The caller reuses the array across calls, so a steady-state
    // poll loop performs no allocation once the array has grown to the
    // window size — matching the paper's API, where the application owns the
    // responses buffer.
    sim::Task<int> PollWait(sim::SimThread& thread, PollId poll_id,
                            std::vector<ReqId>& responses, int max_ret,
                            Nanos timeout);

    // Convenience wrapper returning a fresh vector per call. Fine for tests
    // and control paths; hot loops should pass their own responses array.
    sim::Task<std::vector<ReqId>> PollWait(sim::SimThread& thread,
                                           PollId poll_id, int max_ret,
                                           Nanos timeout);

    // Waits for at least one completion, with no timeout: the model of
    // repeating {PollWait(..., 0); Idle(gap)} until a check harvests
    // something, with the same check instants, CPU charges and results.
    // After an empty check the thread parks (SimThread::Park) with no
    // queued event until an engine write lands in this context's red block,
    // since nothing a check reads changes before then (DESIGN.md §10). The
    // thread's machine must not stretch work (Machine::CanStretch).
    sim::Task<int> PollAny(sim::SimThread& thread, PollId poll_id,
                           std::vector<ReqId>& responses, int max_ret,
                           Nanos gap);

    // Completion state without a poll group (used by tests/integrations):
    // true once the request's sequence number is covered by the engine's
    // progress counter *and* the library has retired it.
    bool IsRetired(ReqId id) const;

    std::uint64_t writes_issued() const { return writes_issued_; }
    std::uint64_t issue_failures() const { return issue_failures_; }
    std::uint64_t reads_retired() const { return retired_read_seq_; }
    std::uint64_t writes_retired() const { return retired_write_seq_; }

   private:
    friend class CowbirdClient;

    struct OutstandingRead {
      std::uint64_t seq;
      std::uint64_t ring_cursor;  // reservation start (monotonic, incl. pad)
      std::uint64_t pad;
      std::uint32_t length;
      std::uint64_t user_dest;
    };
    struct OutstandingWrite {
      std::uint64_t seq;
      std::uint64_t reserved_bytes;  // pad + length
    };
    struct PollGroup {
      bool live = false;
      FixedDeque<ReqId> reads;   // ascending seq
      FixedDeque<ReqId> writes;  // ascending seq
    };

    // Synchronize with the engine-written red block: advance ring heads,
    // retire completed operations (copying read payloads to their user
    // destinations). Charges one kCowbirdPoll plus copy costs; only the
    // copies when `check_charged` (a parked wake charged the check).
    sim::Task<void> Reconcile(sim::SimThread& thread,
                              bool check_charged = false);
    // Moves retired requests of poll group `poll_id` into `responses`
    // (reads first) until it holds `max_ret`; returns the count moved.
    int Harvest(PollId poll_id, std::vector<ReqId>& responses, int max_ret);

    // Computes a contiguous reservation in a byte ring: returns pad bytes
    // to skip (ring-wrap padding), or nullopt if it does not fit.
    static std::optional<std::uint64_t> ContiguousPad(const ByteRing& ring,
                                                      std::uint64_t len);

    CowbirdClient* client_;
    int index_;
    RingCursors meta_ring_;
    ByteRing data_ring_;
    ByteRing resp_ring_;
    std::uint64_t next_read_seq_ = 0;
    std::uint64_t next_write_seq_ = 0;
    std::uint64_t retired_read_seq_ = 0;
    std::uint64_t retired_write_seq_ = 0;
    FixedDeque<OutstandingRead> outstanding_reads_;
    FixedDeque<OutstandingWrite> outstanding_writes_;
    std::vector<PollGroup> poll_groups_;
    // The thread parked in PollAny on this context, woken by the next
    // write to its red block.
    sim::SimThread* parked_ = nullptr;
    std::uint64_t reads_issued_ = 0;
    std::uint64_t writes_issued_ = 0;
    std::uint64_t issue_failures_ = 0;
    telemetry::CallbackGauges gauges_;  // with a hub: the client_* series
  };

 private:
  friend class ThreadContext;

  // Write watch over every thread's red block: wakes the parked threads of
  // the blocks [addr, addr+len) overlaps.
  void OnRedWrite(std::uint64_t addr, std::uint32_t len);

  rdma::Device* device_;
  Config config_;
  InstanceDescriptor descriptor_;
  std::vector<std::unique_ptr<ThreadContext>> threads_;
  std::uint64_t red_watch_ = 0;
};

}  // namespace cowbird::core
