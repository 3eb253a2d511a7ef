#include "net/cluster.hpp"

#include "net/messages.hpp"

namespace poe::net {

LocalCluster::LocalCluster(const hhe::HheConfig& config,
                           const fhe::RnsContext& client_ctx,
                           ClusterConfig cluster_config)
    : config_(config),
      client_ctx_(client_ctx),
      cluster_config_(cluster_config) {
  POE_ENSURE(cluster_config_.shards >= 1, "cluster needs at least one shard");

  km_ = std::make_unique<KeyManager>(client_ctx_);
  km_listen_ = ListenSocket::loopback();
  km_accept_thread_ = std::thread([this] { km_main(); });

  shards_.reserve(cluster_config_.shards);
  for (std::size_t s = 0; s < cluster_config_.shards; ++s) {
    auto host = std::make_unique<ShardHost>();
    host->exec = std::make_unique<ExecContext>();
    // Bgv construction then rotation keys IMMEDIATELY: with the
    // deterministic seed this consumes the key-material randomness in
    // exactly the order the client-side evaluator did, so every shard's
    // keys (secret, public, relin, Galois) are bit-identical to the
    // client's — the property the bit-identity differential axis rests on.
    host->bgv = std::make_unique<fhe::Bgv>(config_.bgv, host->exec.get());
    host->keys =
        hhe::SimdBatchEngine::make_shared_rotation_keys(config_, *host->bgv);
    host->listen = ListenSocket::loopback();
    ShardHost& ref = *host;
    host->thread = std::thread([this, &ref] { shard_main(ref); });
    shards_.push_back(std::move(host));
  }

  std::vector<FrameChannel> channels;
  channels.reserve(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    channels.push_back(connect_shard(s));
  }
  FrameChannel km_channel(connect_loopback(km_listen_.port()));
  router_ = std::make_unique<Router>(client_ctx_, std::move(channels),
                                     std::move(km_channel),
                                     cluster_config_.router);
}

LocalCluster::~LocalCluster() {
  // Destroying the router closes every channel: serving loops see EOF and
  // fall back to accept(), which the aborts below then break out of.
  router_.reset();
  km_listen_.abort();
  for (auto& host : shards_) host->listen.abort();
  if (km_accept_thread_.joinable()) km_accept_thread_.join();
  {
    // No new connection thread can start now; wait out the live ones.
    std::unique_lock<std::mutex> lock(km_mu_);
    km_idle_.wait(lock, [this] { return km_live_conns_ == 0; });
  }
  for (auto& host : shards_) {
    if (host->thread.joinable()) host->thread.join();
  }
}

void LocalCluster::shard_main(ShardHost& host) {
  std::optional<ShardServer> server;
  server.emplace(config_, *host.bgv, cluster_config_.service, host.keys);
  for (;;) {
    Socket sock;
    try {
      sock = host.listen.accept();
    } catch (const WireError&) {
      return;  // listener aborted: cluster shutting down
    }
    FrameChannel ch(std::move(sock), host.exec.get());
    const ShardServer::Exit exit = server->serve(ch);
    if (exit == ShardServer::Exit::kShutdown) return;
    if (exit == ShardServer::Exit::kKilled) {
      // The "process" died: its session partition is gone. The supervisor
      // restarts it — same deterministic key material, empty service.
      server.emplace(config_, *host.bgv, cluster_config_.service, host.keys);
    }
    // kConnectionLost keeps the server (state survives a torn link); either
    // way, wait for the router to reconnect.
  }
}

void LocalCluster::km_main() {
  for (;;) {
    Socket sock;
    try {
      sock = km_listen_.accept();
    } catch (const WireError&) {
      return;  // aborted
    }
    {
      std::lock_guard<std::mutex> lock(km_mu_);
      ++km_live_conns_;
    }
    std::thread([this, s = std::move(sock)]() mutable {
      {
        FrameChannel ch(std::move(s));
        if (!km_->serve(ch)) km_listen_.abort();  // orderly shutdown frame
      }
      // Last touch of the cluster: the destructor may run once the count
      // reaches zero and the lock is released.
      std::lock_guard<std::mutex> lock(km_mu_);
      if (--km_live_conns_ == 0) km_idle_.notify_all();
    }).detach();
  }
}

FrameChannel LocalCluster::connect_shard(std::size_t i) {
  // The router side of the channel carries no injector: the chaos sites
  // model faults in the WORKERS and their links, and fire from shard
  // contexts (see set_fault_injector).
  return FrameChannel(connect_loopback(shards_[i]->listen.port()));
}

bool LocalCluster::onboard(std::uint64_t client_id,
                           std::span<const std::uint8_t> key_bytes,
                           std::string* error) {
  FrameChannel ch(connect_loopback(km_listen_.port()));
  OnboardKeyMsg msg;
  msg.client_id = client_id;
  msg.key_bytes.assign(key_bytes.begin(), key_bytes.end());
  ch.send(MsgType::kOnboardKey, encode_onboard_key(msg));
  auto resp = ch.recv();
  if (!resp || resp->type != MsgType::kOnboardAck) {
    if (error != nullptr) *error = "key manager connection lost";
    return false;
  }
  const AckMsg ack = decode_ack(resp->payload);
  if (!ack.ok && error != nullptr) *error = ack.error;
  return ack.ok;
}

void LocalCluster::set_fault_injector(FaultInjector* injector) {
  for (auto& host : shards_) host->exec->set_fault_injector(injector);
}

void LocalCluster::revive_dead_shards() {
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (!router_->shard_alive(s)) {
      router_->revive_shard(s, connect_shard(s));
    }
  }
}

}  // namespace poe::net
