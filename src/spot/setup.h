// Connection plumbing for a Cowbird-Spot deployment: QPs from the spot node
// to the compute node and to each memory node (Phase I of Section 5.2 — the
// control-plane setup the paper performs over an RPC endpoint).
#pragma once

#include <span>
#include <vector>

#include "rdma/device.h"
#include "rdma/qp.h"

namespace cowbird::spot {

struct SpotConnection {
  // One connected QP toward a host, and the CQ its completions land on.
  struct Path {
    net::NodeId node = 0;
    rdma::QueuePair* qp = nullptr;
    rdma::CompletionQueue* cq = nullptr;
  };
  Path compute;
  std::vector<Path> memory;  // one per memory server
};

inline SpotConnection ConnectSpotEngine(rdma::Device& spot,
                                        rdma::Device& compute,
                                        std::span<rdma::Device* const>
                                            memory_nodes) {
  const auto connect = [&spot](rdma::Device& peer) {
    const rdma::QpPair pair = rdma::ConnectQueuePairs(spot, peer);
    return SpotConnection::Path{peer.node_id(), pair.a, pair.a_send_cq};
  };
  SpotConnection conn;
  conn.compute = connect(compute);
  for (rdma::Device* memory : memory_nodes) {
    conn.memory.push_back(connect(*memory));
  }
  return conn;
}

}  // namespace cowbird::spot
