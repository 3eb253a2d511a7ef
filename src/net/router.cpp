#include "net/router.hpp"

#include <algorithm>

#include "fhe/serialize.hpp"

namespace poe::net {

using service::RequestStatus;
using service::SessionState;
using service::TranscipherResult;

Router::Router(const fhe::RnsContext& ctx, std::vector<FrameChannel> shards,
               FrameChannel key_manager, RouterConfig config)
    : ctx_(ctx),
      shards_(std::move(shards)),
      km_(std::move(key_manager)),
      config_(config),
      ring_(shards_.size()),
      installed_(shards_.size()) {}

void Router::apply_session_update(std::span<const std::uint8_t> bytes) {
  SessionState incoming = decode_session_state(bytes);
  SessionState& cached = cache_[incoming.client_id];
  cached.client_id = incoming.client_id;
  // The shard's window already holds every nonce the last install gave it,
  // clipped to the bound any install clips to, so it is cached as it is.
  cached.nonces = std::move(incoming.nonces);
  cached.requests_served =
      std::max(cached.requests_served, incoming.requests_served);
  cached.blocks_served = std::max(cached.blocks_served, incoming.blocks_served);
}

bool Router::ensure_session(std::uint64_t client, std::string* error) {
  // The install may chase ownership across successive shard deaths, but
  // each death permanently shrinks the live set, so shard_count() attempts
  // always suffice.
  for (std::size_t attempt = 0; attempt <= shards_.size(); ++attempt) {
    if (ring_.alive_count() == 0) {
      if (error != nullptr) *error = "no live shard";
      return false;
    }
    const std::size_t owner = ring_.owner(client);
    if (installed_[owner].contains(client)) return true;

    // enc(K) comes from the key manager on every install — the router
    // never holds key bytes beyond this scope. A dead key-manager channel
    // is a control-plane failure and propagates as WireError.
    km_.send(MsgType::kFetchKey, encode_fetch_key(FetchKeyMsg{client}));
    auto km_resp = km_.recv();
    if (!km_resp || km_resp->type != MsgType::kKeyState) {
      throw WireError("key manager connection lost");
    }
    KeyStateMsg key_state = decode_key_state(km_resp->payload);
    if (!key_state.found) {
      if (error != nullptr) {
        *error = "client has not onboarded a key";
      }
      return false;
    }

    SessionState state;
    state.client_id = client;
    state.has_key = true;
    state.key_bytes = std::move(key_state.key_bytes);
    if (auto it = cache_.find(client); it != cache_.end()) {
      state.nonces = it->second.nonces;
      state.requests_served = it->second.requests_served;
      state.blocks_served = it->second.blocks_served;
    }
    try {
      shards_[owner].send(MsgType::kInstallSession,
                          encode_session_state(state));
      auto ack_resp = shards_[owner].recv();
      if (!ack_resp || ack_resp->type != MsgType::kInstallAck) {
        throw WireError("shard closed during session install");
      }
      const AckMsg ack = decode_ack(ack_resp->payload);
      if (!ack.ok) {
        if (error != nullptr) *error = "session install rejected: " + ack.error;
        return false;
      }
      installed_[owner].insert(client);
      return true;
    } catch (const WireError&) {
      handle_shard_death(owner);  // then retry against the new owner
    }
  }
  if (error != nullptr) *error = "no live shard";
  return false;
}

void Router::handle_shard_death(std::size_t i) {
  if (!ring_.alive(i)) return;
  ring_.mark_dead(i);
  ++shards_lost_;
  shards_[i].shutdown();
  // Ownership just moved: every install mark is stale (a survivor may now
  // own clients whose freshest nonces it never saw), so drop them all and
  // reinstall from the cache. The reinstall itself is DEFERRED: a death
  // noticed mid-collect must not push install frames at survivors that
  // still owe a kProcessResult for the in-flight wave — the install's
  // reply read would swallow the pending result frame and cascade the
  // failure. rebalance_dead_sessions() runs once the wave is quiesced.
  for (auto& marks : installed_) marks.clear();
  rebalance_pending_ = true;
}

void Router::rebalance_dead_sessions() {
  if (!rebalance_pending_ || ring_.alive_count() == 0) return;
  rebalance_pending_ = false;
  // Restore every known session onto the new owners from its serialized
  // state: enc(K) refetched from the key manager, the nonce window from the
  // piggyback cache. Failures (another death mid-loop) are retried lazily
  // by the next ensure_session.
  for (const auto& [client, state] : cache_) {
    if (ensure_session(client, nullptr)) ++sessions_rebalanced_;
  }
}

void Router::revive_shard(std::size_t i, FrameChannel fresh) {
  shards_[i] = std::move(fresh);
  ring_.revive(i);
  // Same staleness argument as on death: ownership moved back, reinstall
  // lazily everywhere.
  for (auto& marks : installed_) marks.clear();
}

std::vector<TranscipherResult> Router::process(
    std::span<const service::TranscipherRequest> requests,
    RouterReport* report) {
  RouterReport local;
  RouterReport& rep = report != nullptr ? *report : local;
  rep = RouterReport{};
  rep.requests = requests.size();

  std::vector<TranscipherResult> results(requests.size());
  for (std::size_t r = 0; r < requests.size(); ++r) {
    results[r].client_id = requests[r].client_id;
    results[r].nonce = requests[r].nonce;
  }

  // ---- Session placement: one ensure per distinct client. Clients the key
  // ---- manager has never seen degrade to kUnknownSession right here; an
  // ---- install that failed because every shard is gone is kFailed (the
  // ---- client's standing is fine, the cluster's is not).
  struct PlacementFailure {
    RequestStatus status;
    std::string error;
  };
  std::unordered_map<std::uint64_t, PlacementFailure> unplaced;
  std::unordered_set<std::uint64_t> placed;
  for (const auto& req : requests) {
    if (placed.contains(req.client_id) || unplaced.contains(req.client_id)) {
      continue;
    }
    std::string error;
    if (ensure_session(req.client_id, &error)) {
      placed.insert(req.client_id);
    } else {
      unplaced.emplace(req.client_id,
                       PlacementFailure{ring_.alive_count() == 0
                                            ? RequestStatus::kFailed
                                            : RequestStatus::kUnknownSession,
                                        std::move(error)});
    }
  }

  // ---- Group by owning shard. Order within a group is request order, so a
  // ---- single-shard deployment reproduces the in-process batch
  // ---- composition exactly (the bit-identity axis of the differential
  // ---- suite).
  std::vector<std::vector<std::size_t>> group(shards_.size());
  for (std::size_t r = 0; r < requests.size(); ++r) {
    if (auto it = unplaced.find(requests[r].client_id); it != unplaced.end()) {
      results[r].status = it->second.status;
      results[r].error = it->second.error;
      continue;
    }
    if (ring_.alive_count() == 0) {
      results[r].status = RequestStatus::kFailed;
      results[r].error = "no live shard";
      continue;
    }
    group[ring_.owner(requests[r].client_id)].push_back(r);
  }

  auto degrade_group = [&](std::size_t shard, RequestStatus status,
                           const std::string& why) {
    for (const std::size_t r : group[shard]) {
      if (results[r].status == RequestStatus::kOk &&
          results[r].blocks.empty()) {
        results[r].status = status;
        results[r].error = why;
      }
    }
  };

  // ---- Send phase: every shard gets its whole wave in one frame before
  // ---- any response is read, so shards compute concurrently.
  std::vector<bool> sent(shards_.size(), false);
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (group[s].empty() || !ring_.alive(s)) continue;
    ProcessBatchMsg batch;
    batch.requests.reserve(group[s].size());
    for (const std::size_t r : group[s]) batch.requests.push_back(requests[r]);
    try {
      shards_[s].send(MsgType::kProcessBatch, encode_process_batch(batch));
      sent[s] = true;
    } catch (const WireError& e) {
      handle_shard_death(s);
      degrade_group(s, RequestStatus::kFailed,
                    std::string("shard connection lost: ") + e.what());
    }
  }

  // ---- Collect phase. A dead shard degrades its wave to kFailed (nonces
  // ---- unrecorded — safe to retry); a stalled one to kTimedOut (nonces
  // ---- recorded — a retry replays).
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (!sent[s]) continue;
    try {
      auto resp = shards_[s].recv();
      if (!resp) throw WireError("shard closed before responding");
      if (resp->type == MsgType::kError) {
        const AckMsg err = decode_ack(resp->payload);
        throw WireError("shard rejected the wave: " + err.error);
      }
      if (resp->type != MsgType::kProcessResult) {
        throw WireError(std::string("unexpected response frame: ") +
                        to_string(resp->type));
      }
      ProcessResultMsg out = decode_process_result(resp->payload);
      if (out.results.size() != group[s].size()) {
        throw WireError("shard answered " + std::to_string(out.results.size()) +
                        " results for " + std::to_string(group[s].size()) +
                        " requests");
      }
      // The piggybacked windows are applied unconditionally — even on a
      // timed-out wave the shard DID record those nonces, and the cache
      // must know before any client could retry.
      for (const auto& update : out.session_updates) {
        apply_session_update(update);
      }
      rep.shard_reports.push_back(out.report);

      std::vector<std::shared_ptr<const fhe::Ciphertext>> cts;
      cts.reserve(out.cts.size());
      for (const auto& bytes : out.cts) {
        cts.push_back(std::make_shared<const fhe::Ciphertext>(
            fhe::deserialize_ciphertext(ctx_, bytes)));
      }
      const double stall = out.stall_s + resp->stall_s;
      const bool timed_out =
          config_.peer_timeout_s > 0 && stall > config_.peer_timeout_s;
      for (std::size_t k = 0; k < group[s].size(); ++k) {
        const std::size_t r = group[s][k];
        const WireResult& wire = out.results[k];
        if (wire.client_id != results[r].client_id ||
            wire.nonce != results[r].nonce) {
          throw WireError("shard results out of order");
        }
        if (timed_out) {
          results[r].status = RequestStatus::kTimedOut;
          results[r].error = "peer stall exceeded the router timeout";
          continue;
        }
        results[r].status = wire.status;
        results[r].error = wire.error;
        results[r].blocks.reserve(wire.blocks.size());
        for (const WireBlockRef& b : wire.blocks) {
          results[r].blocks.push_back(
              service::PlacedBlock{cts[b.ct_index], b.tile, b.len});
        }
      }
    } catch (const poe::Error& e) {
      // WireError or a ciphertext that failed deserialization: either way
      // the shard (or its link) is not trustworthy — fail the wave over to
      // the survivors.
      handle_shard_death(s);
      degrade_group(s, RequestStatus::kFailed,
                    std::string("shard connection lost: ") + e.what());
    }
  }

  // ---- Every channel is quiesced now: restore the sessions of any shard
  // ---- that died this wave onto the survivors.
  rebalance_dead_sessions();

  // ---- Terminal accounting: the status buckets partition the requests
  // ---- (the same invariant ServiceReport::faults keeps in-process).
  service::tally_terminal_status(results, rep.faults);
  rep.shards_lost = shards_lost_;
  rep.sessions_rebalanced = sessions_rebalanced_;
  return results;
}

}  // namespace poe::net
