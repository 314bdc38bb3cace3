// Ablation: multi-tenant incast on the 16-node rack (shared-fabric
// congestion). K clients all read from one memory server through one
// switch, with 4 KiB records so the aggregate response stream genuinely
// oversubscribes the 100 Gbps fabric. Two policies per engine:
//
//   drops — finite egress queues that tail-drop on overflow and nothing
//           else: the congestion-unaware baseline, where overflow turns
//           into Go-Back-N retransmission storms.
//   ecn   — the same queues mark ECT packets CE above a threshold and
//           every NIC runs DCQCN: senders pace instead of overrunning.
//
// The headline shape is the Cowbird-Spot row at 12 clients: ECN+DCQCN must
// recover at least 2x the aggregate MOPS of the drops policy with a lower
// read p99. The P4 engine's Go-Back-N timer runs on the fabric's timeout,
// so deep switch queues do not read as loss and P4 keeps its 4-client
// throughput at 12. "gbn" counts the P4 engine's rewinds (its QPs are not
// a NIC's, so they are not in "retrans"); "retrans by node" names the
// hosts whose NIC resent. Every simulated metric is bit-deterministic, so
// the emitted JSON is gated against a committed baseline (bench_gate fails
// on drift in either direction).
//
// --jobs N runs sweep points concurrently; rows are emitted in sweep
// order, so output is identical for any N.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "sim/parallel.h"
#include "workload/scale_workload.h"

using namespace cowbird;
using workload::Paradigm;
using workload::RunScaleWorkload;
using workload::ScaleWorkloadConfig;
using workload::ScaleWorkloadResult;

namespace {

ScaleWorkloadConfig MakeConfig(Paradigm paradigm, int clients, bool ecn) {
  ScaleWorkloadConfig cfg;
  cfg.paradigm = paradigm;
  cfg.clients = clients;
  cfg.memory_servers = 2;  // striping off: incast aims everyone at server 0
  cfg.incast = true;
  cfg.record_size = 4096;  // one MTU per read: bandwidth-bound on purpose
  cfg.records = 20'000;
  cfg.warmup = Micros(200);
  // Long enough that DCQCN's convergence transient amortizes and a
  // post-drop recovery stall is a dent, not the whole window.
  cfg.measure = Millis(4);
  cfg.sample_latency = true;
  // 20 response packets per port: shallow enough that the unaware policy
  // overflows under incast, with headroom above the PFC pause threshold
  // (64KiB) so the paused-ingress in-flight tail never tail-drops.
  cfg.egress_queue_capacity = KiB(80);
  // Both policies: Go-Back-N timeout above the worst congested RTT. With
  // the 100us default, congestion delay reads as loss, the requester
  // rewinds whole read windows, and the responder's duplicate
  // re-executions melt down the fabric regardless of policy — real RoCE
  // deployments set the timeout well above RTT for exactly this reason.
  cfg.retransmit_timeout = Millis(1);
  if (ecn) {
    cfg.ecn_threshold = KiB(16);
    cfg.dcqcn.enabled = true;
    // PFC is the lossless backstop under the rate control (the RoCE
    // deployment model): if a burst outruns the mark -> CNP -> cut loop,
    // the switch pauses the offending ingress at 64KiB buffered (resume
    // at 32KiB) instead of tail-dropping at the cap.
    cfg.pfc = true;
    // One cut per recovery step: with the default 5us CNP cadence the rate
    // is halved five times for every recovery step and pins to the floor.
    cfg.dcqcn.cnp_interval = Micros(25);
    // Rate floor chosen so a full 32-deep read window paced at the floor
    // still delivers well inside the Go-Back-N timeout (32 * 4KiB / 5G =
    // 213us < 1ms); a 1G floor would turn pacing itself into timeouts.
    cfg.dcqcn.min_rate_gbps = 5.0;
  }
  return cfg;
}

const char* EngineName(Paradigm paradigm) {
  return paradigm == Paradigm::kCowbird ? "spot" : "p4";
}

}  // namespace

int main(int argc, char** argv) {
  bench::ParallelFlags flags;
  for (int i = 1; i < argc; ++i) {
    if (!flags.Consume(argc, argv, i) || !flags.ok()) {
      std::printf("usage: %s %s\n", argv[0], flags.Usage());
      return 2;
    }
  }

  bench::Banner("Ablation: incast congestion",
                "ECN+DCQCN vs congestion-unaware drops, K clients -> one "
                "memory server");

  struct Point {
    Paradigm paradigm;
    int clients;
    bool ecn;
  };
  std::vector<Point> points;
  for (const Paradigm paradigm : {Paradigm::kCowbird, Paradigm::kCowbirdP4}) {
    for (const bool ecn : {false, true}) {
      for (const int clients : {1, 4, 8, 12}) {
        points.push_back({paradigm, clients, ecn});
      }
    }
  }

  std::vector<ScaleWorkloadResult> results(points.size());
  sim::ParallelFor(flags.Jobs(), static_cast<int>(points.size()),
                   [&](int i) {
                     const Point& p = points[static_cast<std::size_t>(i)];
                     results[static_cast<std::size_t>(i)] = RunScaleWorkload(
                         MakeConfig(p.paradigm, p.clients, p.ecn));
                   });

  bench::BenchJson json("abl_incast", "shared-fabric congestion ablation");
  bench::Table table({"engine", "policy", "clients", "MOPS", "p99 (us)",
                      "drops", "marks", "retrans", "retrans by node", "gbn",
                      "cnps"});
  double spot_drops_12 = 0, spot_ecn_12 = 0;
  Nanos spot_drops_p99 = 0, spot_ecn_p99 = 0;
  std::uint64_t drops_at_12 = 0;
  // P4 MOPS at 4 and 12 clients, per policy (drops, ecn).
  double p4_at_4[2] = {0, 0}, p4_at_12[2] = {0, 0};
  bool ecn_without_recovery = true;
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Point& p = points[i];
    const ScaleWorkloadResult& r = results[i];
    const char* const policy = p.ecn ? "ecn" : "drops";
    if (p.ecn && (r.retransmissions > 0 || r.gbn_recoveries > 0)) {
      ecn_without_recovery = false;
    }
    if (p.paradigm == Paradigm::kCowbirdP4) {
      if (p.clients == 4) p4_at_4[p.ecn] = r.mops;
      if (p.clients == 12) p4_at_12[p.ecn] = r.mops;
    }
    std::string by_node;
    std::uint64_t node_retrans[3] = {0, 0, 0};  // clients, memory, spot
    for (const auto& [node, n] : r.retransmissions_by_node) {
      by_node += (by_node.empty() ? "" : " ") + node + ":" + std::to_string(n);
      int role = 2;
      if (node.starts_with("client")) role = 0;
      if (node.starts_with("memory")) role = 1;
      node_retrans[role] += n;
    }
    if (p.paradigm == Paradigm::kCowbird && p.clients == 12) {
      if (p.ecn) {
        spot_ecn_12 = r.mops;
        spot_ecn_p99 = r.p99_latency;
      } else {
        spot_drops_12 = r.mops;
        spot_drops_p99 = r.p99_latency;
        drops_at_12 = r.switch_drops;
      }
    }
    table.Row({EngineName(p.paradigm), policy, std::to_string(p.clients),
               bench::Fmt(r.mops, 3), bench::Fmt(r.p99_latency / 1e3, 1),
               std::to_string(r.switch_drops), std::to_string(r.ecn_marked),
               std::to_string(r.retransmissions),
               by_node.empty() ? "-" : by_node,
               std::to_string(r.gbn_recoveries), std::to_string(r.cnps)});
    json.Row({{"engine", EngineName(p.paradigm)},
              {"policy", policy},
              {"clients", std::to_string(p.clients)}},
             {{"mops", r.mops},
              {"p99_us", static_cast<double>(r.p99_latency) / 1e3},
              {"switch_drops", static_cast<double>(r.switch_drops)},
              {"ecn_marked", static_cast<double>(r.ecn_marked)},
              {"retransmissions", static_cast<double>(r.retransmissions)},
              {"client_retransmissions", static_cast<double>(node_retrans[0])},
              {"memory_retransmissions", static_cast<double>(node_retrans[1])},
              {"spot_retransmissions", static_cast<double>(node_retrans[2])},
              {"gbn_recoveries", static_cast<double>(r.gbn_recoveries)},
              {"cnps", static_cast<double>(r.cnps)}});
  }
  table.Print();

  std::printf("\nShape checks:\n");
  json.ShapeCheck(drops_at_12 > 0,
                  "12-client incast overflows the finite egress queue "
                  "(tail drops observed)");
  json.ShapeCheck(spot_ecn_12 >= 2.0 * spot_drops_12,
                  "spot: ECN+DCQCN recovers >= 2x aggregate MOPS at 12 "
                  "clients vs congestion-unaware drops");
  json.ShapeCheck(spot_ecn_p99 < spot_drops_p99,
                  "spot: ECN+DCQCN lowers read p99 at 12 clients");
  json.ShapeCheck(p4_at_12[0] >= 0.9 * p4_at_4[0] &&
                      p4_at_12[1] >= 0.9 * p4_at_4[1],
                  "p4: 12 clients keep >= 0.9x the 4-client MOPS under "
                  "both policies");
  json.ShapeCheck(ecn_without_recovery,
                  "ECN policy (PFC on): no NIC retransmissions and no GBN "
                  "recoveries at any client count, both engines");

  return json.WriteFile() ? 0 : 1;
}
