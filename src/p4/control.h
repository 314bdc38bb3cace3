// Phase I control plane (Section 5.2): "the compute node will then send the
// switch configuration information through an RPC endpoint running on the
// switch control plane, i.e., the QP numbers; the current PSN for each QP;
// and the base memory addresses, remote keys, and total size of all
// registered memory regions. ... Modifications or termination of the
// channel also occur through this interface."
//
// The RPC is a real wire protocol here: a setup/teardown message serialized
// into a UDP packet addressed to the switch's control port, answered with a
// status reply. The switch-side endpoint installs the instance into the
// data-plane engine (register allocation + packet-generator configuration).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "core/instance.h"
#include "net/switch.h"
#include "p4/engine.h"
#include "sim/sync.h"

namespace cowbird::p4 {

constexpr std::uint16_t kControlPort = 9000;

enum class ControlOp : std::uint8_t {
  kSetup = 1,
  kTeardown = 2,
  kAckOk = 0x80,
  kAckError = 0x81,
};

struct ControlMessage {
  ControlOp op = ControlOp::kSetup;
  std::uint32_t rpc_id = 0;  // echoed in the reply
  core::InstanceDescriptor descriptor;
  P4Connection conn;  // every per-instance QP (Phase I)

  std::vector<std::uint8_t> Serialize() const;
  static std::optional<ControlMessage> Parse(
      std::span<const std::uint8_t> raw);
};

// Switch-side RPC endpoint: registers itself as the control-port handler of
// the engine's packet pipeline and applies setup/teardown to the engine.
class ControlPlaneServer {
 public:
  ControlPlaneServer(CowbirdP4Engine& engine, net::Switch& sw);

  // Called by the engine's pipeline for control packets (installed
  // automatically by the constructor).
  void HandlePacket(const net::Packet& packet);

  std::uint64_t setups() const { return setups_; }
  std::uint64_t teardowns() const { return teardowns_; }

 private:
  CowbirdP4Engine* engine_;
  net::Switch* sw_;
  std::uint64_t setups_ = 0;
  std::uint64_t teardowns_ = 0;
};

// Compute-side client: sends the RPC and waits for the reply.
class ControlPlaneClient {
 public:
  explicit ControlPlaneClient(net::HostNic& nic);

  // Registers an instance with the switch; completes when the switch ACKs.
  // Returns false on an error reply.
  sim::Task<bool> Setup(const core::InstanceDescriptor& descriptor,
                        const P4Connection& conn);

  // Terminates the channel for `instance_id`.
  sim::Task<bool> Teardown(std::uint32_t instance_id);

 private:
  sim::Task<bool> Call(ControlMessage message);

  net::HostNic* nic_;
  std::uint32_t next_rpc_id_ = 1;
  struct PendingRpc {
    std::uint32_t rpc_id;
    bool ok = false;
    sim::OneShotEvent* done;
  };
  std::vector<PendingRpc*> pending_;
};

}  // namespace cowbird::p4
