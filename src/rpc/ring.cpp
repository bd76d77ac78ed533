#include "rpc/ring.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace wavm3::rpc {

std::uint64_t slice_hash(const SliceKey& key) {
  const std::uint64_t packed =
      (static_cast<std::uint64_t>(static_cast<int>(key.type)) << 8U) |
      static_cast<std::uint64_t>(static_cast<int>(key.role));
  return util::splitmix64(0x736C696365ULL ^ packed);  // "slice"
}

HashRing::HashRing(int vnodes_per_node, std::uint64_t seed)
    : vnodes_(vnodes_per_node), seed_(seed) {
  WAVM3_REQUIRE(vnodes_per_node > 0, "ring needs at least one vnode per node");
}

void HashRing::add_node(int node) {
  WAVM3_REQUIRE(
      std::none_of(points_.begin(), points_.end(),
                   [&](const Point& p) { return p.node == node; }),
      "node is already on the ring");
  points_.reserve(points_.size() + static_cast<std::size_t>(vnodes_));
  for (int v = 0; v < vnodes_; ++v) {
    const std::uint64_t h = util::splitmix64(
        seed_ ^ (static_cast<std::uint64_t>(static_cast<unsigned>(node)) << 20U) ^
        static_cast<std::uint64_t>(v));
    points_.push_back(Point{h, node});
  }
  std::sort(points_.begin(), points_.end(),
            [](const Point& a, const Point& b) {
              return a.hash != b.hash ? a.hash < b.hash : a.node < b.node;
            });
  ++nodes_;
}

std::vector<int> HashRing::replicas(const SliceKey& key, std::size_t count) const {
  std::vector<int> group;
  if (points_.empty() || count == 0) return group;
  const std::uint64_t h = slice_hash(key);
  // First point clockwise from the key (wrapping past the top).
  std::size_t start = static_cast<std::size_t>(
      std::lower_bound(points_.begin(), points_.end(), h,
                       [](const Point& p, std::uint64_t v) { return p.hash < v; }) -
      points_.begin());
  group.reserve(std::min(count, nodes_));
  for (std::size_t step = 0; step < points_.size() && group.size() < count; ++step) {
    const int node = points_[(start + step) % points_.size()].node;
    if (std::find(group.begin(), group.end(), node) == group.end()) {
      group.push_back(node);
    }
  }
  return group;
}

}  // namespace wavm3::rpc
