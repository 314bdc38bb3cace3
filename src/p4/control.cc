#include "p4/control.h"

#include "common/check.h"
#include "net/bytes.h"

namespace cowbird::p4 {

namespace {

void PutEndpoint(std::vector<std::uint8_t>& out, const HostEndpoint& ep) {
  const std::size_t at = out.size();
  out.resize(at + 16);
  net::PutU32(out, at, ep.node);
  net::PutU32(out, at + 4, ep.host_qpn);
  net::PutU32(out, at + 8, ep.switch_qpn);
  net::PutU32(out, at + 12, ep.start_psn);
}

HostEndpoint GetEndpoint(std::span<const std::uint8_t> raw, std::size_t at) {
  HostEndpoint ep;
  ep.node = net::GetU32(raw, at);
  ep.host_qpn = net::GetU32(raw, at + 4);
  ep.switch_qpn = net::GetU32(raw, at + 8);
  ep.start_psn = net::GetU32(raw, at + 12);
  return ep;
}

}  // namespace

std::vector<std::uint8_t> ControlMessage::Serialize() const {
  std::vector<std::uint8_t> out(5);
  out[0] = static_cast<std::uint8_t>(op);
  net::PutU32(out, 1, rpc_id);
  if (op == ControlOp::kTeardown) {
    out.resize(9);
    net::PutU32(out, 5, descriptor.instance_id);
    return out;
  }
  if (op != ControlOp::kSetup) return out;  // replies carry no body

  auto put64 = [&out](std::uint64_t v) {
    const std::size_t at = out.size();
    out.resize(at + 8);
    net::PutU64(out, at, v);
  };
  auto put32 = [&out](std::uint32_t v) {
    const std::size_t at = out.size();
    out.resize(at + 4);
    net::PutU32(out, at, v);
  };
  auto put16 = [&out](std::uint16_t v) {
    const std::size_t at = out.size();
    out.resize(at + 2);
    net::PutU16(out, at, v);
  };

  put32(descriptor.instance_id);
  put32(descriptor.compute_node);
  put32(descriptor.compute_rkey);
  put64(descriptor.layout.base);
  put32(static_cast<std::uint32_t>(descriptor.layout.threads));
  put64(descriptor.layout.meta_slots);
  put64(descriptor.layout.data_capacity);
  put64(descriptor.layout.resp_capacity);
  put16(static_cast<std::uint16_t>(descriptor.regions.size()));
  for (const auto& region : descriptor.regions) {
    put16(region.region_id);
    put32(region.memory_node);
    put64(region.remote_base);
    put32(region.rkey);
    put64(region.size);
  }
  PutEndpoint(out, conn.compute);
  PutEndpoint(out, conn.probe);
  PutEndpoint(out, conn.wr_compute);
  // One (read, write) endpoint pair per memory server, then the
  // cluster-pool range table (DESIGN.md §14).
  put16(static_cast<std::uint16_t>(conn.memory.size()));
  for (const P4Connection::MemoryEndpoints& server : conn.memory) {
    PutEndpoint(out, server.read);
    PutEndpoint(out, server.write);
  }
  put16(static_cast<std::uint16_t>(descriptor.ranges.size()));
  for (const auto& range : descriptor.ranges) {
    put16(range.region_id);
    put64(range.vbase);
    put64(range.length);
    put32(range.node);
    put32(range.rkey);
    put64(range.server_base);
  }
  return out;
}

std::optional<ControlMessage> ControlMessage::Parse(
    std::span<const std::uint8_t> raw) {
  if (raw.size() < 5) return std::nullopt;
  ControlMessage m;
  m.op = static_cast<ControlOp>(raw[0]);
  m.rpc_id = net::GetU32(raw, 1);
  if (m.op == ControlOp::kTeardown) {
    if (raw.size() < 9) return std::nullopt;
    m.descriptor.instance_id = net::GetU32(raw, 5);
    return m;
  }
  if (m.op != ControlOp::kSetup) return m;

  std::size_t at = 5;
  auto need = [&raw, &at](std::size_t n) { return at + n <= raw.size(); };
  if (!need(4 + 4 + 4 + 8 + 4 + 8 + 8 + 8 + 2)) return std::nullopt;
  m.descriptor.instance_id = net::GetU32(raw, at); at += 4;
  m.descriptor.compute_node = net::GetU32(raw, at); at += 4;
  m.descriptor.compute_rkey = net::GetU32(raw, at); at += 4;
  m.descriptor.layout.base = net::GetU64(raw, at); at += 8;
  m.descriptor.layout.threads = static_cast<int>(net::GetU32(raw, at));
  at += 4;
  m.descriptor.layout.meta_slots = net::GetU64(raw, at); at += 8;
  m.descriptor.layout.data_capacity = net::GetU64(raw, at); at += 8;
  m.descriptor.layout.resp_capacity = net::GetU64(raw, at); at += 8;
  const std::uint16_t regions = net::GetU16(raw, at); at += 2;
  for (std::uint16_t i = 0; i < regions; ++i) {
    if (!need(2 + 4 + 8 + 4 + 8)) return std::nullopt;
    core::RegionInfo region;
    region.region_id = net::GetU16(raw, at); at += 2;
    region.memory_node = net::GetU32(raw, at); at += 4;
    region.remote_base = net::GetU64(raw, at); at += 8;
    region.rkey = net::GetU32(raw, at); at += 4;
    region.size = net::GetU64(raw, at); at += 8;
    m.descriptor.regions.push_back(region);
  }
  if (!need(3 * 16 + 2)) return std::nullopt;
  m.conn.compute = GetEndpoint(raw, at); at += 16;
  m.conn.probe = GetEndpoint(raw, at); at += 16;
  m.conn.wr_compute = GetEndpoint(raw, at); at += 16;
  const std::uint16_t servers = net::GetU16(raw, at); at += 2;
  for (std::uint16_t i = 0; i < servers; ++i) {
    if (!need(2 * 16)) return std::nullopt;
    P4Connection::MemoryEndpoints server;
    server.read = GetEndpoint(raw, at); at += 16;
    server.write = GetEndpoint(raw, at); at += 16;
    m.conn.memory.push_back(server);
  }
  if (!need(2)) return std::nullopt;
  const std::uint16_t ranges = net::GetU16(raw, at); at += 2;
  for (std::uint16_t i = 0; i < ranges; ++i) {
    if (!need(2 + 8 + 8 + 4 + 4 + 8)) return std::nullopt;
    core::RangeEntry range;
    range.region_id = net::GetU16(raw, at); at += 2;
    range.vbase = net::GetU64(raw, at); at += 8;
    range.length = net::GetU64(raw, at); at += 8;
    range.node = net::GetU32(raw, at); at += 4;
    range.rkey = net::GetU32(raw, at); at += 4;
    range.server_base = net::GetU64(raw, at); at += 8;
    m.descriptor.ranges.push_back(range);
  }
  return m;
}

ControlPlaneServer::ControlPlaneServer(CowbirdP4Engine& engine,
                                       net::Switch& sw)
    : engine_(&engine), sw_(&sw) {
  engine_->SetControlHandler(
      [this](const net::Packet& packet) { HandlePacket(packet); });
}

void ControlPlaneServer::HandlePacket(const net::Packet& packet) {
  const auto message = ControlMessage::Parse(packet.L4Payload());
  ControlMessage reply;
  reply.op = ControlOp::kAckError;
  if (message.has_value()) {
    reply.rpc_id = message->rpc_id;
    switch (message->op) {
      case ControlOp::kSetup:
        engine_->AddInstance(message->descriptor, message->conn);
        ++setups_;
        reply.op = ControlOp::kAckOk;
        break;
      case ControlOp::kTeardown:
        if (engine_->RemoveInstance(message->descriptor.instance_id)) {
          ++teardowns_;
          reply.op = ControlOp::kAckOk;
        }
        break;
      default:
        break;
    }
  }
  const auto body = reply.Serialize();
  net::Packet out =
      net::MakeUdpPacket(kSwitchAddress, packet.src, body.size(),
                         net::Priority::kControl, kControlPort);
  std::copy(body.begin(), body.end(), out.MutableL4Payload().begin());
  const int port = sw_->RouteFor(packet.src);
  COWBIRD_CHECK(port >= 0);
  sw_->EnqueueEgress(port, std::move(out));
}

ControlPlaneClient::ControlPlaneClient(net::HostNic& nic) : nic_(&nic) {
  nic_->SetPortReceiver(kControlPort, [this](net::Packet packet) {
    const auto reply = ControlMessage::Parse(packet.L4Payload());
    if (!reply.has_value()) return;
    for (auto it = pending_.begin(); it != pending_.end(); ++it) {
      if ((*it)->rpc_id == reply->rpc_id) {
        (*it)->ok = reply->op == ControlOp::kAckOk;
        (*it)->done->Set();
        pending_.erase(it);
        return;
      }
    }
  });
}

sim::Task<bool> ControlPlaneClient::Call(ControlMessage message) {
  message.rpc_id = next_rpc_id_++;
  const auto body = message.Serialize();
  net::Packet packet = net::MakeUdpPacket(nic_->id(), kSwitchAddress,
                                          body.size(),
                                          net::Priority::kControl,
                                          kControlPort);
  std::copy(body.begin(), body.end(), packet.MutableL4Payload().begin());

  sim::OneShotEvent done(nic_->simulation());
  PendingRpc rpc{message.rpc_id, false, &done};
  pending_.push_back(&rpc);
  nic_->Send(std::move(packet));
  co_await done.Wait();
  co_return rpc.ok;
}

sim::Task<bool> ControlPlaneClient::Setup(
    const core::InstanceDescriptor& descriptor, const P4Connection& conn) {
  ControlMessage m;
  m.op = ControlOp::kSetup;
  m.descriptor = descriptor;
  m.conn = conn;
  co_return co_await Call(std::move(m));
}

sim::Task<bool> ControlPlaneClient::Teardown(std::uint32_t instance_id) {
  ControlMessage m;
  m.op = ControlOp::kTeardown;
  m.descriptor.instance_id = instance_id;
  co_return co_await Call(std::move(m));
}

}  // namespace cowbird::p4
