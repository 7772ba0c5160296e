// L2 switch with static + learned MAC forwarding and VLAN awareness.
//
// Used twice in the architecture: as the fronthaul aggregation switch
// (the testbed's Arista 7050) and as the embedded NIC switch that connects
// SR-IOV virtual functions for middlebox chaining (paper Figure 8).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/mac_addr.h"
#include "net/port.h"
#include "state/serialize.h"

namespace rb {

class EmbeddedSwitch {
 public:
  explicit EmbeddedSwitch(std::string name = "sw") : name_(std::move(name)) {}

  /// Add a switch-side port. The returned port should be connected (via
  /// Port::connect) to the device's port. Forwarding happens inline on
  /// receive.
  Port& add_port(const std::string& name);

  /// Pin a MAC address to a port (static entry; takes precedence over
  /// learned entries).
  void add_static_entry(const MacAddr& mac, const Port& port);

  std::size_t num_ports() const { return ports_.size(); }
  std::uint64_t flooded() const { return flooded_; }
  std::uint64_t forwarded() const { return forwarded_; }
  std::uint64_t runt_dropped() const { return runt_dropped_; }

  /// Checkpoint the learned FDB and forwarding counters (static entries
  /// and port wiring are config). Learned entries are serialized sorted
  /// by MAC so the blob is deterministic; without them a restored switch
  /// would flood where the original forwarded.
  void save_state(state::StateWriter& w) const;
  void load_state(state::StateReader& r);

 private:
  void on_rx(std::size_t in_port, PacketPtr p);

  std::string name_;
  std::vector<std::unique_ptr<Port>> ports_;
  std::unordered_map<MacAddr, std::size_t, MacAddrHash> fdb_;
  std::unordered_map<MacAddr, std::size_t, MacAddrHash> static_fdb_;
  // Per-hop forwarding latency added to packets (models switch + PCIe
  // cost for the embedded NIC switch case).
  std::int64_t hop_latency_ns_ = 500;
  std::uint64_t flooded_ = 0;
  std::uint64_t forwarded_ = 0;
  std::uint64_t runt_dropped_ = 0;
};

}  // namespace rb
