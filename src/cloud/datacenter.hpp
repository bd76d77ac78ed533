// Data centre: the set of hosts plus the network topology connecting
// them. dcsim's controller and the experiment harness operate on
// this container.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cloud/host.hpp"
#include "net/topology.hpp"

namespace wavm3::cloud {

/// Hosts + network.
class DataCenter {
 public:
  DataCenter() = default;

  /// Adds a host; fails on duplicate names.
  Host& add_host(HostSpec spec, HypervisorParams hypervisor_params = {});

  /// Returns the host with this name, or nullptr.
  Host* host(const std::string& name);

  /// All hosts in deterministic (name) order.
  std::vector<const Host*> hosts() const;
  std::size_t host_count() const { return hosts_.size(); }

  /// Network topology between hosts.
  net::Topology& network() { return network_; }
  const net::Topology& network() const { return network_; }

 private:
  std::map<std::string, std::unique_ptr<Host>> hosts_;
  net::Topology network_;
};

}  // namespace wavm3::cloud
