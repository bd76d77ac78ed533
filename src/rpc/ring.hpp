// Consistent-hash ring over fleet nodes, keyed by coefficient slice.
//
// The unit of placement is a (migration type, host role) coefficient
// slice — the same granularity calib's feedback windows use. Each node
// projects `vnodes` virtual points onto a 64-bit ring; a slice's
// replica group is the first `count` *distinct* nodes clockwise from
// the slice's hash. Virtual points smooth the load split and keep
// reassignment local when a node joins (only slices adjacent to its
// points move — the property that makes consistent hashing worth its
// salt over hash-mod-N).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "migration/engine.hpp"
#include "models/dataset.hpp"

namespace wavm3::rpc {

/// Routing key: one coefficient slice.
struct SliceKey {
  migration::MigrationType type = migration::MigrationType::kNonLive;
  models::HostRole role = models::HostRole::kSource;
};

/// Number of distinct slices: 3 migration types x 2 host roles.
inline constexpr std::size_t kSliceCount = 6;

/// Dense index of a slice in [0, kSliceCount).
inline std::size_t slice_index(const SliceKey& key) {
  return static_cast<std::size_t>(key.type) * 2 + static_cast<std::size_t>(key.role);
}

/// Stable 64-bit hash of a slice (independent of ring contents).
std::uint64_t slice_hash(const SliceKey& key);

class HashRing {
 public:
  explicit HashRing(int vnodes_per_node = 64, std::uint64_t seed = 2015);

  /// Adds a node's virtual points. Re-adding an id is rejected.
  void add_node(int node);

  bool empty() const { return points_.empty(); }
  std::size_t node_count() const { return nodes_; }

  /// The replica group of `key`: up to `count` distinct nodes starting
  /// clockwise from the key's hash. Returns fewer when the ring has
  /// fewer nodes; empty on an empty ring.
  std::vector<int> replicas(const SliceKey& key, std::size_t count) const;

 private:
  struct Point {
    std::uint64_t hash = 0;
    int node = 0;
  };

  int vnodes_;
  std::uint64_t seed_;
  std::size_t nodes_ = 0;
  std::vector<Point> points_;  // sorted by hash
};

}  // namespace wavm3::rpc
