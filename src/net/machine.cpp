#include "net/machine.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace xlupc::net {

Machine::Machine(sim::Simulator& sim, PlatformParams params,
                 MachineConfig config)
    : sim_(&sim),
      params_(std::move(params)),
      config_(std::move(config)),
      faults_(config_.faults),
      fabric_(sim, params_, config_.nodes, config_.fabric) {
  if (config_.nodes == 0 || config_.cores_per_node == 0) {
    throw std::invalid_argument("Machine: nodes and cores must be positive");
  }
  const std::uint32_t cores = config_.cores_per_node;
  // Communication processors: LAPI-style transports dispatch header
  // handlers on a small pool of service (SMT) threads per node.
  const std::uint64_t comm_units = std::max<std::uint32_t>(2, cores / 4);
  resources_.reserve(std::size_t{config_.nodes} * stride());
  for (std::uint32_t n = 0; n < config_.nodes; ++n) {
    // Not "n" + std::to_string(n) + ".": gcc 12 reports a false
    // -Wrestrict on that chain in optimized builds.
    std::string prefix = std::to_string(n);
    prefix.insert(0, 1, 'n').push_back('.');
    auto named = [&prefix](const char* what) {
      return std::string(prefix).append(what);
    };
    for (std::uint32_t c = 0; c < cores; ++c) {
      resources_.emplace_back(sim, 1, named("core").append(std::to_string(c)));
    }
    resources_.emplace_back(sim, comm_units, named("comm"));
    resources_.emplace_back(sim, 1, named("nic_tx"));
    // NICs carry independent send/receive DMA engines; one-sided traffic
    // in both directions can overlap.
    resources_.emplace_back(sim, 2, named("nic_dma"));
  }
}

void Machine::for_each_resource(
    const std::function<void(const sim::Resource&)>& fn) const {
  for (const sim::Resource& r : resources_) fn(r);
  // Fabric ports trail the node resources; none exist (and none are ever
  // created) when the fabric is disabled, so default-config reports are
  // untouched.
  fabric_.for_each_port(fn);
}

void Machine::reset_resource_usage() {
  for (sim::Resource& r : resources_) r.reset_usage();
  fabric_.reset_port_usage();
}

sim::Resource& Machine::node_resource(NodeId node, std::uint32_t slot) {
  if (node >= config_.nodes) {
    throw std::out_of_range("Machine: node " + std::to_string(node) +
                            " out of range");
  }
  return resources_[std::size_t{node} * stride() + slot];
}

sim::Resource& Machine::core(NodeId node, std::uint32_t core) {
  if (core >= config_.cores_per_node) {
    throw std::out_of_range("Machine: core " + std::to_string(core) +
                            " out of range");
  }
  return node_resource(node, core);
}

sim::Resource& Machine::comm_cpu(NodeId node) {
  return node_resource(node, config_.cores_per_node);
}

sim::Resource& Machine::nic_tx(NodeId node) {
  return node_resource(node, config_.cores_per_node + 1);
}

sim::Resource& Machine::nic_dma(NodeId node) {
  return node_resource(node, config_.cores_per_node + 2);
}

}  // namespace xlupc::net
