// Consistent-hash client -> shard routing. Each shard contributes
// kRingVnodes points on a 64-bit hash circle; a client is owned by the first live
// shard point clockwise of its own hash. Deterministic (pure splitmix64,
// no process-local state), so the router, a bench parent picking balanced
// client ids, and a test can all predict placement — and when a shard dies
// only ITS clients move, which is exactly the property that makes
// rebalance-from-serialized-session-state cheap.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace poe::net {

/// Points per shard on the hash circle.
inline constexpr std::size_t kRingVnodes = 64;

class HashRing {
 public:
  explicit HashRing(std::size_t shards);

  std::size_t shards() const { return alive_.size(); }
  std::size_t alive_count() const { return alive_count_; }
  bool alive(std::size_t shard) const { return alive_[shard]; }

  /// Owning LIVE shard of a client; throws poe::Error when every shard is
  /// dead.
  std::size_t owner(std::uint64_t client) const;

  void mark_dead(std::size_t shard);
  void revive(std::size_t shard);

 private:
  struct Point {
    std::uint64_t at = 0;
    std::uint32_t shard = 0;
  };
  std::vector<Point> points_;  ///< sorted by `at`
  std::vector<bool> alive_;
  std::size_t alive_count_ = 0;
};

}  // namespace poe::net
