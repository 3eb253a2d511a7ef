// In-process multi-shard deployment over real loopback sockets: N shard
// serving threads (each with its OWN ExecContext and its OWN Bgv — the
// deterministic BgvParams seed makes every shard derive bit-identical key
// material independently, as separate processes would), a key-manager
// thread accepting concurrent connections, and a Router in the caller's
// thread. Every byte between the components crosses a real TCP socket in
// the framed protocol, so the differential and chaos suites exercise the
// exact wire path the multi-process bench deploys — minus only the fork.
//
// The shard threads model a supervisor: a shard whose serve() reports
// kKilled (the `shard.kill` chaos site) has its ShardServer DESTROYED and
// rebuilt — session state is lost exactly as in a real process death — and
// then waits for the router to reconnect (revive_dead_shards()).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "fhe/bgv.hpp"
#include "hhe/protocol.hpp"
#include "net/key_manager.hpp"
#include "net/router.hpp"
#include "net/shard.hpp"
#include "service/service.hpp"

namespace poe::net {

struct ClusterConfig {
  std::size_t shards = 2;
  service::ServiceConfig service;  ///< applied to every shard
  RouterConfig router;
};

class LocalCluster {
 public:
  /// `client_ctx`: the evaluation-domain context of the CLIENT-side Bgv
  /// (same deterministic params) — what the router deserializes results
  /// against and the key manager validates uploads against. Public CRT
  /// data only.
  LocalCluster(const hhe::HheConfig& config, const fhe::RnsContext& client_ctx,
               ClusterConfig cluster_config = {});
  ~LocalCluster();

  Router& router() { return *router_; }

  /// Client-side onboarding: a fresh connection to the key manager, one
  /// kOnboardKey upload, one ack. Workers never see this traffic.
  bool onboard(std::uint64_t client_id, std::span<const std::uint8_t> key_bytes,
               std::string* error = nullptr);

  /// Register `injector` (nullptr clears) on every shard's ExecContext —
  /// the chaos sites that live server-side (shard.kill, net.frame.torn on
  /// responses, net.peer.stall) all fire from shard contexts.
  void set_fault_injector(FaultInjector* injector);

  /// Reconnect every shard the router currently considers dead (the
  /// supervisor restoring connectivity after a kill or torn link).
  void revive_dead_shards();

  std::size_t shard_count() const { return shards_.size(); }
  ExecContext& shard_exec(std::size_t i) { return *shards_[i]->exec; }
  const KeyManager& key_manager() const { return *km_; }

 private:
  struct ShardHost {
    std::unique_ptr<ExecContext> exec;
    std::unique_ptr<fhe::Bgv> bgv;
    std::shared_ptr<const fhe::GaloisKeys> keys;
    ListenSocket listen;
    std::thread thread;
  };

  void shard_main(ShardHost& host);
  void km_main();
  FrameChannel connect_shard(std::size_t i);

  const hhe::HheConfig& config_;
  const fhe::RnsContext& client_ctx_;
  ClusterConfig cluster_config_;

  std::unique_ptr<KeyManager> km_;
  ListenSocket km_listen_;
  std::thread km_accept_thread_;
  // Key-manager connection threads are detached, so a finished one never
  // lingers (one connects per onboard()); the destructor waits on this
  // count instead of joining them, before the KeyManager goes away.
  std::mutex km_mu_;
  std::condition_variable km_idle_;
  std::size_t km_live_conns_ = 0;  ///< guarded by km_mu_

  std::vector<std::unique_ptr<ShardHost>> shards_;
  std::unique_ptr<Router> router_;
};

}  // namespace poe::net
