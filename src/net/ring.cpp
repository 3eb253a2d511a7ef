#include "net/ring.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace poe::net {

namespace {
std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}
}  // namespace

HashRing::HashRing(std::size_t shards) {
  POE_ENSURE(shards >= 1, "ring needs at least one shard");
  alive_.assign(shards, true);
  alive_count_ = shards;
  points_.reserve(shards * kRingVnodes);
  for (std::size_t s = 0; s < shards; ++s) {
    for (std::size_t v = 0; v < kRingVnodes; ++v) {
      // Distinct stream per (shard, vnode); the odd multipliers keep the
      // two coordinates from aliasing.
      const std::uint64_t at =
          splitmix64(static_cast<std::uint64_t>(s) * 0x2545F4914F6CDD1Dull +
                     static_cast<std::uint64_t>(v) * 2 + 1);
      points_.push_back(Point{at, static_cast<std::uint32_t>(s)});
    }
  }
  std::sort(points_.begin(), points_.end(),
            [](const Point& a, const Point& b) { return a.at < b.at; });
}

std::size_t HashRing::owner(std::uint64_t client) const {
  POE_ENSURE(alive_count_ > 0, "every shard of the ring is dead");
  const std::uint64_t h = splitmix64(client ^ 0xC2B2AE3D27D4EB4Full);
  auto it = std::lower_bound(
      points_.begin(), points_.end(), h,
      [](const Point& p, std::uint64_t v) { return p.at < v; });
  // First live point clockwise, wrapping at most once past the whole ring.
  for (std::size_t step = 0; step < points_.size(); ++step) {
    if (it == points_.end()) it = points_.begin();
    if (alive_[it->shard]) return it->shard;
    ++it;
  }
  throw Error("every shard of the ring is dead");
}

void HashRing::mark_dead(std::size_t shard) {
  if (alive_[shard]) {
    alive_[shard] = false;
    --alive_count_;
  }
}

void HashRing::revive(std::size_t shard) {
  if (!alive_[shard]) {
    alive_[shard] = true;
    ++alive_count_;
  }
}

}  // namespace poe::net
