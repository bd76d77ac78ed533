#include "cloud/datacenter.hpp"

#include "util/error.hpp"

namespace wavm3::cloud {

Host& DataCenter::add_host(HostSpec spec, HypervisorParams hypervisor_params) {
  WAVM3_REQUIRE(hosts_.find(spec.name) == hosts_.end(), "duplicate host name: " + spec.name);
  const std::string name = spec.name;
  auto host = std::make_unique<Host>(std::move(spec), hypervisor_params);
  Host& ref = *host;
  hosts_.emplace(name, std::move(host));
  return ref;
}

Host* DataCenter::host(const std::string& name) {
  const auto it = hosts_.find(name);
  return it == hosts_.end() ? nullptr : it->second.get();
}

std::vector<const Host*> DataCenter::hosts() const {
  std::vector<const Host*> out;
  out.reserve(hosts_.size());
  for (const auto& [name, h] : hosts_) out.push_back(h.get());
  return out;
}

}  // namespace wavm3::cloud
