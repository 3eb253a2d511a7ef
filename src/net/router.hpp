// The front-end router: consistent-hash client -> shard fan-out over frame
// channels, lazy session install from the key manager, and
// rebalance-from-serialized-session-state when a shard dies.
//
// Replay safety across shard death is the router's core invariant. Every
// kProcessResult piggybacks key-less SessionState snapshots of the sessions
// the wave touched; the router caches each one's window, as the shard
// exported it, BEFORE returning results to the caller. So the cache holds
// every nonce the owning shard still tracks (the client's newest
// ServiceConfig::max_tracked_nonces acknowledged kOk, the most any install
// keeps) — and when a shard dies, the sessions are reinstalled on the
// survivors from enc(K) (fetched from the key manager; the router never
// caches key bytes) plus that cached window.
// A replayed nonce is rejected by the survivor exactly as the dead shard
// would have rejected it. Requests in flight on the dead shard degrade to a
// typed kFailed — their nonces were never acknowledged, so the client may
// retry them.
//
// Slow peers degrade typed too: responses carry the virtual stall charged
// by the `net.peer.stall` chaos site, and a wave whose (echoed + local)
// stall exceeds RouterConfig::peer_timeout_s lands as kTimedOut. The shard
// DID record those nonces — fail-safe direction: a retry gets kNonceReplay,
// never double service.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "fhe/context.hpp"
#include "net/frame.hpp"
#include "net/messages.hpp"
#include "net/ring.hpp"
#include "service/service.hpp"

namespace poe::net {

struct RouterConfig {
  /// A wave whose virtual peer stall exceeds this degrades to kTimedOut.
  /// 0 = no slow-peer timeout.
  double peer_timeout_s = 0;
};

/// Aggregate accounting for one Router::process call plus lifetime
/// counters. `faults` partitions the call's requests by terminal status
/// (same invariant as ServiceReport::faults).
struct RouterReport {
  std::size_t requests = 0;
  service::FaultStats faults;
  /// Verbatim shard-side reports of the waves this call collected, in shard
  /// order — the cross-process differential suite checks their partition
  /// invariants against the in-process reference.
  std::vector<ShardReportMsg> shard_reports;
  std::size_t shards_lost = 0;          ///< lifetime
  std::size_t sessions_rebalanced = 0;  ///< lifetime
};

class Router {
 public:
  /// `ctx` is the evaluation-domain context results deserialize against
  /// (public CRT data only — the router holds no key material).
  Router(const fhe::RnsContext& ctx, std::vector<FrameChannel> shards,
         FrameChannel key_manager, RouterConfig config = {});

  /// Fan a wave of requests out to the owning shards and collect one
  /// result per request (same order). Router-level degradations are typed:
  /// kUnknownSession (client never onboarded at the key manager), kFailed
  /// (owning shard died mid-wave; session rebalanced, nonce unrecorded),
  /// kTimedOut (peer stall beyond the timeout; nonce IS recorded).
  /// Throws WireError only when the KEY MANAGER channel dies — shard death
  /// is handled, the control plane going away is not.
  std::vector<service::TranscipherResult> process(
      std::span<const service::TranscipherRequest> requests,
      RouterReport* report = nullptr);

  std::size_t shard_count() const { return shards_.size(); }
  bool shard_alive(std::size_t i) const { return ring_.alive(i); }
  std::size_t alive_count() const { return ring_.alive_count(); }
  /// Current owning shard of a client (tests use this to pick placements).
  std::size_t owner(std::uint64_t client) const { return ring_.owner(client); }
  /// The nonce window cached for a client from its shard's last piggyback
  /// (empty before the first), which a reinstall sends. Valid until the
  /// next process().
  std::span<const std::uint64_t> cached_nonces(std::uint64_t client) const {
    const auto it = cache_.find(client);
    if (it == cache_.end()) return {};
    return it->second.nonces;
  }

  /// Reconnect a dead shard (a supervisor restarted or re-exposed it). The
  /// shard may have lost all session state: every install mark is dropped,
  /// so sessions lazily reinstall from enc(K) + the cached nonce windows.
  void revive_shard(std::size_t i, FrameChannel fresh);

  std::size_t shards_lost() const { return shards_lost_; }
  std::size_t sessions_rebalanced() const { return sessions_rebalanced_; }

 private:
  /// Make sure `client` has a session installed on its owning shard;
  /// fetches enc(K) from the key manager and merges the cached nonce
  /// window. False with `error` when the client never onboarded or the
  /// install was rejected.
  bool ensure_session(std::uint64_t client, std::string* error);

  /// Mark a shard dead, drop every (now stale) install mark and flag a
  /// rebalance. The reinstall itself is deferred to
  /// rebalance_dead_sessions() — pushing installs at survivors that still
  /// owe an in-flight response would swallow the pending frame.
  void handle_shard_death(std::size_t i);

  /// Reinstall every cached session onto its current owner (no-op unless a
  /// death flagged it). Called when no response is in flight: at the end of
  /// a process() wave. Installs that fail (another death mid-loop) are
  /// retried lazily by the next ensure_session.
  void rebalance_dead_sessions();

  void apply_session_update(std::span<const std::uint8_t> bytes);

  const fhe::RnsContext& ctx_;
  std::vector<FrameChannel> shards_;
  FrameChannel km_;
  RouterConfig config_;
  HashRing ring_;
  /// Per shard: clients whose session is installed there. Cleared wholesale
  /// on every topology change — after a death or revive, ownership moved,
  /// and a stale install mark could leave a survivor holding an outdated
  /// replay window.
  std::vector<std::unordered_set<std::uint64_t>> installed_;
  /// Key-less session snapshots: each client's latest piggybacked window,
  /// and the largest served counts seen.
  std::unordered_map<std::uint64_t, service::SessionState> cache_;
  std::size_t shards_lost_ = 0;
  std::size_t sessions_rebalanced_ = 0;
  bool rebalance_pending_ = false;
};

}  // namespace poe::net
