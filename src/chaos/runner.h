// The chaos harness: one deterministic run of client workload + engine(s)
// + fault plan, with a checked operation history.
//
// A run stands up the testbed topology (compute + memory + spot node on one
// switch), the chosen primary engine plus two Spot agents, and a
// multi-threaded client workload that records every operation into a
// HistoryRecorder. The FaultPlan drives a FaultInjector on every fabric link
// and schedules engine crashes: a crash detaches the instance from the
// serving engine, halting its QPs mid-flight (no drain, zombie
// retransmissions killed), and attaches it to a Spot standby, which resumes
// from the exported snapshot reconciled against the client's published red
// block (workload::Cluster::Detach and Attach).
//
// Everything is derived from ChaosOptions — same options, same result,
// bit for bit — which is what makes failure traces replayable.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "chaos/fault_plan.h"
#include "chaos/history.h"
#include "telemetry/hub.h"

namespace cowbird::chaos {

enum class EngineKind { kSpot, kP4 };

const char* EngineKindName(EngineKind kind);
std::optional<EngineKind> ParseEngineKind(std::string_view name);

struct WorkloadParams {
  int threads = 2;
  int slots_per_thread = 4;  // distinct 4KiB-spaced addresses per thread
  std::uint32_t len = 128;   // record length (<= 4096)
  int ops_per_thread = 300;
  double write_ratio = 0.4;
  int max_outstanding = 8;

  // What RunChaos runs: at least one thread and one slot per thread,
  // records of 16..4096 bytes, 1..32 operations outstanding.
  bool Valid() const;

  std::string Serialize() const;
  // Refuses (nullopt) an unknown key, a value that is not wholly a number,
  // and parameters that are not Valid().
  static std::optional<WorkloadParams> Parse(std::string_view line);
};

struct ChaosOptions {
  EngineKind engine = EngineKind::kSpot;
  std::uint64_t seed = 1;
  // TEST-ONLY: runs the engines with their read-after-write fence disabled,
  // to prove the checker catches the resulting stale reads.
  bool break_fence = false;
  WorkloadParams workload;
  FaultPlan plan;
};

struct ChaosResult {
  std::vector<OpRecord> history;
  std::vector<Violation> violations;
  std::uint64_t reads_checked = 0;
  std::uint64_t writes_completed = 0;
  // Fault-injection audit: decisions made, and whether the links' fault
  // counters match them exactly.
  std::uint64_t faults_injected = 0;
  bool counters_exact = true;
  // Per-bucket decision counts from the injector, so an external audit
  // (e.g. against telemetry link gauges) can match bucket by bucket.
  std::uint64_t decided_dropped = 0;
  std::uint64_t decided_duplicated = 0;
  std::uint64_t decided_reordered = 0;
  std::uint64_t decided_delayed = 0;
  std::uint64_t crashes_executed = 0;
  // Live-migration observability (all zero when the plan does not migrate):
  // completed copy-then-cutover handoffs, bytes the cutover copied (first
  // pass + dirty chase + drain), and chunks the dirty chase re-copied
  // because application writes raced the copy.
  std::uint64_t migrations_executed = 0;
  std::uint64_t migrate_bytes_copied = 0;
  std::uint64_t migrate_dirty_marks = 0;
  // Congestion observability (all zero when the plan's scenario is kNone).
  std::uint64_t ecn_marked = 0;       // CE rewrites at the switch
  std::uint64_t pfc_pauses = 0;       // pause frames the switch originated
  std::uint64_t link_pauses = 0;      // pauses honored across fabric links
  std::uint64_t cnps = 0;             // CNPs received across every NIC
  // Metric snapshot taken just before teardown when RunChaos was given a
  // hub (empty otherwise). Each per-run gauge leaves the hub with the
  // link, device or engine it reads when the harness dies, so this is the
  // instrumented run's complete observable state.
  telemetry::Snapshot telemetry;

  bool Passed() const { return violations.empty() && counters_exact; }
};

// Canonical options for one run of the CI seed sweep: the fixed workload
// shape plus the seed-derived fault plan (crashes on odd seeds). Shared by
// the chaos_sweep driver and the datapath parity test, which pins the
// byte-exact outcomes of an 8-seed sweep across allocator-path changes —
// both must derive a seed's run from the same recipe or the pin is
// meaningless.
ChaosOptions SweepOptions(EngineKind engine, std::uint64_t seed,
                          bool break_fence = false);

// When `hub` is non-null the run is fully instrumented: the tracer's clock
// is re-seated onto the run's private simulation, the client and engines
// receive the hub (op-lifecycle spans, engine gauges), and every fabric
// link is bound to the registry with a {"link": <name>} label so the fault
// counters in a snapshot can be audited against the decided_* counts.
ChaosResult RunChaos(const ChaosOptions& options,
                     telemetry::Hub* hub = nullptr);

}  // namespace cowbird::chaos
