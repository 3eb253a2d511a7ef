#include "service/service.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <thread>
#include <utility>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "fhe/serialize.hpp"
#include "service/pipeline.hpp"

namespace poe::service {

namespace {
using Clock = std::chrono::steady_clock;
using u64 = std::uint64_t;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Prepared batches the pipeline queue buffers ahead of the evaluator. Any
// depth >= 1 hides prepare behind evaluate (Fig. 3); 2 absorbs jitter.
constexpr std::size_t kPipelineDepth = 2;
}  // namespace

const char* to_string(RequestStatus s) {
  switch (s) {
    case RequestStatus::kOk: return "ok";
    case RequestStatus::kUnknownSession: return "unknown_session";
    case RequestStatus::kNonceReplay: return "nonce_replay";
    case RequestStatus::kInvalidRequest: return "invalid_request";
    case RequestStatus::kOverloaded: return "overloaded";
    case RequestStatus::kQuarantined: return "quarantined";
    case RequestStatus::kTimedOut: return "timed_out";
    case RequestStatus::kFailed: return "failed";
  }
  return "?";
}

void tally_terminal_status(std::span<TranscipherResult> results,
                           FaultStats& faults) {
  for (TranscipherResult& res : results) {
    switch (res.status) {
      case RequestStatus::kOk: ++faults.ok; continue;
      case RequestStatus::kUnknownSession:
      case RequestStatus::kNonceReplay:
      case RequestStatus::kInvalidRequest: ++faults.rejected; break;
      case RequestStatus::kOverloaded: ++faults.shed; break;
      case RequestStatus::kQuarantined: ++faults.quarantined; break;
      case RequestStatus::kTimedOut: ++faults.timed_out; break;
      case RequestStatus::kFailed: ++faults.failed; break;
    }
    res.blocks.clear();
  }
}

TranscipherService::TranscipherService(
    const hhe::HheConfig& config, const fhe::Bgv& bgv,
    ServiceConfig service_config,
    std::shared_ptr<const fhe::GaloisKeys> shared_keys)
    : config_(config),
      bgv_(bgv),
      service_config_(service_config),
      engine_(config, bgv,
              shared_keys != nullptr
                  ? std::move(shared_keys)
                  : hhe::SimdBatchEngine::make_shared_rotation_keys(config,
                                                                    bgv)) {
  POE_ENSURE(service_config_.max_sessions >= 1, "need at least one session");
  POE_ENSURE(service_config_.max_stage_attempts >= 1,
             "need at least one stage attempt");
  max_batch_ = engine_.capacity();
  if (service_config_.max_batch_blocks != 0) {
    max_batch_ = std::min(max_batch_, service_config_.max_batch_blocks);
  }
}

void TranscipherService::open_session(u64 client_id, fhe::Ciphertext key_ct) {
  auto it = sessions_.find(client_id);
  if (it != sessions_.end()) {
    // Fresh key for a known client: keep the nonce replay history.
    it->second.key_ct = std::move(key_ct);
    touch(it->second);
    return;
  }
  if (sessions_.size() >= service_config_.max_sessions) {
    const u64 victim = lru_.back();
    lru_.pop_back();
    sessions_.erase(victim);
    ++evictions_;
  }
  lru_.push_front(client_id);
  Session session;
  session.key_ct = std::move(key_ct);
  session.lru_pos = lru_.begin();
  sessions_.emplace(client_id, std::move(session));
}

void TranscipherService::open_session_switched(
    u64 client_id, const fhe::Ciphertext& tenant_key_ct,
    const fhe::KswKey& ingest_key) {
  open_session(client_id, bgv_.ingest_switch(tenant_key_ct, ingest_key));
}

bool TranscipherService::open_session_wire(u64 client_id,
                                           std::span<const std::uint8_t> bytes,
                                           std::string* error) {
  // The chaos harness models a lossy/hostile uplink by truncating the
  // upload here; organically short buffers take the same rejection path.
  if (fault_forced(bgv_.rns().exec(), "service.wire.truncate")) {
    bytes = bytes.first(bytes.size() / 2);
  }
  try {
    fhe::Ciphertext ct = fhe::deserialize_ciphertext(bgv_.rns(), bytes);
    if (auto why = fhe::validate_ciphertext(bgv_.rns(), ct)) {
      if (error != nullptr) *error = "implausible key upload: " + *why;
      return false;
    }
    open_session(client_id, std::move(ct));
    return true;
  } catch (const poe::Error& e) {
    if (error != nullptr) *error = e.what();
    return false;
  }
}

bool TranscipherService::has_session(u64 client_id) const {
  return sessions_.contains(client_id);
}

SessionState TranscipherService::export_session(u64 client_id,
                                                bool include_key) const {
  auto it = sessions_.find(client_id);
  POE_ENSURE(it != sessions_.end(),
             "export_session: no session for client " << client_id);
  const Session& session = it->second;
  SessionState state;
  state.client_id = client_id;
  state.nonces.assign(session.nonce_order.begin(), session.nonce_order.end());
  state.requests_served = session.requests_served;
  state.blocks_served = session.blocks_served;
  if (include_key) {
    state.has_key = true;
    state.key_bytes = fhe::serialize_ciphertext(bgv_.rns(), session.key_ct);
  }
  return state;
}

bool TranscipherService::import_session(const SessionState& state,
                                        std::string* error) {
  auto it = sessions_.find(state.client_id);
  if (it == sessions_.end()) {
    if (!state.has_key) {
      if (error != nullptr) {
        *error = "session state carries no key and no session exists";
      }
      return false;
    }
    // Same untrusted-bytes gate as open_session_wire: deserialize +
    // plausibility-validate before the key can touch a batch.
    if (!open_session_wire(state.client_id, state.key_bytes, error)) {
      return false;
    }
    it = sessions_.find(state.client_id);
  } else if (state.has_key) {
    if (!open_session_wire(state.client_id, state.key_bytes, error)) {
      return false;
    }
  }
  Session& session = it->second;
  // Merge the nonce windows (union, incoming appended in order): a restore
  // can only widen the replay window, never re-admit an accepted nonce.
  for (const u64 nonce : state.nonces) {
    if (session.nonce_set.insert(nonce).second) {
      session.nonce_order.push_back(nonce);
    }
  }
  while (session.nonce_order.size() > service_config_.max_tracked_nonces) {
    session.nonce_set.erase(session.nonce_order.front());
    session.nonce_order.pop_front();
  }
  session.requests_served =
      std::max(session.requests_served, state.requests_served);
  session.blocks_served = std::max(session.blocks_served, state.blocks_served);
  return true;
}

void TranscipherService::touch(Session& session) {
  lru_.splice(lru_.begin(), lru_, session.lru_pos);
}

std::vector<TranscipherResult> TranscipherService::process(
    std::span<const TranscipherRequest> requests, ServiceReport* report) {
  const auto t_start = Clock::now();
  ServiceReport local;
  ServiceReport& rep = report != nullptr ? *report : local;
  rep = ServiceReport{};
  ExecContext& exec = bgv_.rns().exec();
  const CounterSnapshot before = exec.snapshot();
  FaultInjector* injector = exec.fault_injector();
  const u64 fired_before = injector != nullptr ? injector->fired_total() : 0;
  const std::size_t t = config_.pasta.t;

  std::vector<TranscipherResult> results(requests.size());
  rep.request_latency_s.assign(requests.size(), 0);
  rep.requests = requests.size();
  if (requests.empty()) return results;

  // ---- Admission: session lookup, nonce replay, request sanity, load
  // ---- shedding, block splitting. Rejections are typed per request —
  // ---- hostile input degrades that request, never the batch. Every
  // ---- admitted block goes, in arrival order, into the last batch, which
  // ---- closes at batch_capacity() tiles; the partial batch left at the
  // ---- end is the drain.
  struct BlockRef {
    std::size_t request = 0;
    std::size_t block = 0;
  };
  struct BatchJob {
    std::vector<hhe::SimdBlockRequest> blocks;  ///< tile i = blocks[i]
    std::vector<BlockRef> refs;
    std::vector<u64> tenants;  ///< tile -> owning client
  };
  std::vector<BatchJob> jobs;

  for (std::size_t r = 0; r < requests.size(); ++r) {
    const auto& req = requests[r];
    TranscipherResult& res = results[r];
    res.client_id = req.client_id;
    res.nonce = req.nonce;

    auto it = sessions_.find(req.client_id);
    if (it == sessions_.end()) {
      res.status = RequestStatus::kUnknownSession;
      res.error = "no session for client";
      continue;
    }
    Session& session = it->second;
    if (req.symmetric_ct.empty()) {
      res.status = RequestStatus::kInvalidRequest;
      res.error = "empty request";
      continue;
    }
    if (req.symmetric_ct.size() > service_config_.max_request_elems) {
      res.status = RequestStatus::kInvalidRequest;
      res.error = "request exceeds max_request_elems";
      continue;
    }
    if (session.nonce_set.contains(req.nonce)) {
      res.status = RequestStatus::kNonceReplay;
      res.error = "nonce replay";
      continue;
    }
    const std::size_t nblocks = (req.symmetric_ct.size() + t - 1) / t;
    if (service_config_.max_pending_blocks != 0 &&
        rep.blocks + nblocks > service_config_.max_pending_blocks) {
      // Shed whole and BEFORE the nonce is recorded, so the client can
      // resubmit the same request once load drops.
      res.status = RequestStatus::kOverloaded;
      res.error = "admission load shed";
      continue;
    }
    session.nonce_set.insert(req.nonce);
    session.nonce_order.push_back(req.nonce);
    if (session.nonce_order.size() > service_config_.max_tracked_nonces) {
      session.nonce_set.erase(session.nonce_order.front());
      session.nonce_order.pop_front();
    }
    touch(session);

    res.blocks.resize(nblocks);
    for (std::size_t b = 0; b < nblocks; ++b) {
      if (jobs.empty() || jobs.back().blocks.size() == max_batch_) {
        jobs.emplace_back();
      }
      BatchJob& job = jobs.back();
      const std::size_t begin = b * t;
      const std::size_t len = std::min(t, req.symmetric_ct.size() - begin);
      hhe::SimdBlockRequest& block = job.blocks.emplace_back();
      block.nonce = req.nonce;
      block.counter = b;  // block i of a message uses counter i
      block.symmetric_ct.assign(
          req.symmetric_ct.begin() + static_cast<long>(begin),
          req.symmetric_ct.begin() + static_cast<long>(begin + len));
      job.refs.push_back(BlockRef{.request = r, .block = b});
      job.tenants.push_back(req.client_id);
      ++rep.blocks;
    }
  }
  rep.batches = jobs.size();
  // Mean fill fraction over every batch, the drain batch included.
  rep.avg_batch_occupancy =
      jobs.empty() ? 0 : double(rep.blocks) / double(jobs.size() * max_batch_);
  for (const BatchJob& job : jobs) {
    if (job.blocks.size() == max_batch_) {
      ++rep.full_flushes;
    } else {
      ++rep.drain_flushes;
    }
    if (std::any_of(job.tenants.begin(), job.tenants.end(),
                    [&](u64 id) { return id != job.tenants.front(); })) {
      ++rep.cross_tenant_batches;
    }
  }

  // ---- Two-stage pipeline: prepare (CPU) -> evaluate (BGV), each stage
  // ---- under a virtual-time timeout with bounded backoff retry. Producer
  // ---- and consumer only ever touch a job's outcome on their own side of
  // ---- the queue handoff, so outcomes needs no lock.
  struct Prepared {
    std::size_t job = 0;
    hhe::PreparedSimdBatch batch;
  };
  enum class BatchState {
    kPending, kDone, kShed, kQuarantined, kTimedOut, kFailed
  };
  struct BatchOutcome {
    BatchState state = BatchState::kPending;
    std::string error;
    std::size_t retries = 0;
    std::size_t timeouts = 0;
    bool recovered = false;
    double prepare_s = 0;
    double eval_s = 0;
  };
  std::vector<BatchOutcome> outcomes(jobs.size());

  // Run `body` with retry/backoff under the stage timeout. Injected stalls
  // charge virtual time (FaultInjector sleeps a bounded real slice), so a
  // "slow stage" is reproducible without slow tests. True on success.
  auto run_stage = [&](std::string_view site, std::string_view stall_site,
                       auto&& body, BatchOutcome& out,
                       double& stage_s) -> bool {
    const std::size_t max_attempts = service_config_.max_stage_attempts;
    const double timeout_s = service_config_.stage_timeout_s;
    bool last_was_timeout = false;
    std::string last_error;
    for (std::size_t attempt = 1; attempt <= max_attempts; ++attempt) {
      if (attempt > 1) {
        ++out.retries;
        std::this_thread::sleep_for(std::chrono::duration<double>(
            service_config_.backoff_base_s *
            static_cast<double>(1ull << (attempt - 2))));
      }
      const auto t0 = Clock::now();
      try {
        const double charged = fault_stall_s(exec, stall_site);
        fault_point(exec, site);
        body();
        const double elapsed = seconds_since(t0) + charged;
        if (timeout_s > 0 && elapsed > timeout_s) {
          ++out.timeouts;
          last_was_timeout = true;
          last_error = "stage exceeded timeout";
          continue;
        }
        stage_s += elapsed;
        if (attempt > 1) out.recovered = true;
        return true;
      } catch (const poe::Error& e) {
        last_was_timeout = false;
        last_error = e.what();
      } catch (const std::bad_alloc&) {
        last_was_timeout = false;
        last_error = "allocation failure";
      }
    }
    out.state =
        last_was_timeout ? BatchState::kTimedOut : BatchState::kFailed;
    out.error = last_error;
    return false;
  };

  std::vector<std::size_t> missing(requests.size());
  for (std::size_t r = 0; r < requests.size(); ++r) {
    missing[r] = results[r].blocks.size();
  }
  double min_noise = 1e9;
  double min_predicted = 1e9;
  std::size_t evaluated_batches = 0;

  auto prepare_one = [&](std::size_t j, Prepared& prepared) -> bool {
    prepared.job = j;
    return run_stage(
        "service.prepare", "service.prepare.stall",
        [&] { prepared.batch = engine_.prepare(jobs[j].blocks); },
        outcomes[j], outcomes[j].prepare_s);
  };

  // Consumer side: poison-pill gate + evaluation of one prepared batch.
  // A batch may span several tenants: each tenant's key is validated
  // separately, quarantined tenants are dropped from the key merge (their
  // tiles get an all-zero key and their requests degrade to kQuarantined),
  // and every survivor receives a masked extraction of the shared output
  // (one parallel_for over the survivors). The keystream circuit is
  // tile-local, so the survivors' slots decode bit-identical to a run
  // without the quarantined tenant.
  auto consume_one = [&](const Prepared& prepared) {
    const std::size_t j = prepared.job;
    const BatchJob& job = jobs[j];
    // Tiles grouped by tenant, in first-arrival order — the fault sites
    // below fire in deterministic tenant order for the chaos harness.
    std::vector<u64> tenant_order;
    std::unordered_map<u64, std::vector<std::size_t>> tiles_of;
    for (std::size_t i = 0; i < job.tenants.size(); ++i) {
      auto [pos, fresh] = tiles_of.try_emplace(job.tenants[i]);
      if (fresh) tenant_order.push_back(job.tenants[i]);
      pos->second.push_back(i);
    }
    std::vector<hhe::TenantTiles> live;
    for (const u64 tenant : tenant_order) {
      Session& session = sessions_.at(tenant);
      if (!session.key_ct.parts.empty()) {
        fault_corrupt(exec, "service.key.corrupt",
                      session.key_ct.parts[0].rns(0));
        if (tenant_order.size() > 1) {
          // Multi-tenant-batch site: poison a key mid-pack (arm with
          // `after` to hit the second or later tenant of the batch).
          fault_corrupt(exec, "service.pack.key.corrupt",
                        session.key_ct.parts[0].rns(0));
        }
      }
      if (auto why = fhe::validate_ciphertext(bgv_.rns(), session.key_ct)) {
        for (const std::size_t i : tiles_of[tenant]) {
          TranscipherResult& res = results[job.refs[i].request];
          if (res.status == RequestStatus::kOk) {
            res.status = RequestStatus::kQuarantined;
            res.error = "session key implausible: " + *why;
          }
        }
        continue;
      }
      live.push_back(hhe::TenantTiles{&session.key_ct, tiles_of[tenant]});
    }
    if (live.empty()) {
      outcomes[j].state = BatchState::kQuarantined;
      outcomes[j].error = "every tenant of the batch was quarantined";
      return;
    }
    std::vector<std::shared_ptr<const fhe::Ciphertext>> outs(live.size());
    double batch_noise = 0;
    double batch_predicted = 0;
    const bool ok = run_stage(
        "service.evaluate", "service.evaluate.stall",
        [&] {
          const fhe::Ciphertext batch_out = engine_.evaluate(
              engine_.merge_tenant_keys(live), prepared.batch);
          parallel_for(live.size(), [&](std::size_t v) {
            outs[v] = std::make_shared<const fhe::Ciphertext>(
                engine_.extract_tiles(batch_out, live[v].tiles));
          });
          // The extraction mask costs noise: report a deliverable's budget,
          // not the pre-mask batch output's. The secret-key measurement
          // runs once per batch, on the deliverable with the smallest
          // tracked budget, so the pair reported keeps predicted <=
          // measured.
          std::size_t worst = 0;
          for (std::size_t v = 1; v < outs.size(); ++v) {
            if (bgv_.predicted_budget_bits(*outs[v]) <
                bgv_.predicted_budget_bits(*outs[worst])) {
              worst = v;
            }
          }
          batch_predicted = bgv_.predicted_budget_bits(*outs[worst]);
          batch_noise = bgv_.noise_budget_bits(*outs[worst]);
        },
        outcomes[j], outcomes[j].eval_s);
    if (!ok) return;
    outcomes[j].state = BatchState::kDone;
    min_noise = std::min(min_noise, batch_noise);
    min_predicted = std::min(min_predicted, batch_predicted);
    ++evaluated_batches;
    // Quarantined tenants are not live, so their tiles get no block.
    for (std::size_t v = 0; v < live.size(); ++v) {
      for (const std::size_t i : live[v].tiles) {
        const BlockRef& ref = job.refs[i];
        results[ref.request].blocks[ref.block] =
            PlacedBlock{outs[v], i, prepared.batch.lens[i]};
        if (--missing[ref.request] == 0) {
          rep.request_latency_s[ref.request] = seconds_since(t_start);
        }
      }
    }
  };

  // A single batch has nothing to overlap with, so it runs prepare and
  // evaluate in turn on the calling thread: no producer thread to start and
  // no queue handoff to wait for, two scheduling points fewer per call.
  if (service_config_.pipelined && jobs.size() > 1) {
    BoundedQueue<Prepared> queue(kPipelineDepth);
    std::exception_ptr prepare_error;
    std::thread producer([&] {
      try {
        for (std::size_t j = 0; j < jobs.size(); ++j) {
          Prepared prepared;
          if (!prepare_one(j, prepared)) continue;
          if (fault_forced(exec, "service.queue.full")) {
            outcomes[j].state = BatchState::kShed;
            outcomes[j].error = "pipeline queue saturated (injected)";
            continue;
          }
          PushStatus st;
          if (service_config_.queue_push_timeout_s > 0) {
            st = queue.push_for(std::move(prepared),
                                std::chrono::duration<double>(
                                    service_config_.queue_push_timeout_s));
          } else {
            st = queue.push(std::move(prepared));
          }
          if (st == PushStatus::kClosed) break;  // consumer shut down
          if (st == PushStatus::kTimedOut) {
            outcomes[j].state = BatchState::kShed;
            outcomes[j].error = "pipeline queue saturated beyond timeout";
          }
        }
      } catch (...) {
        prepare_error = std::current_exception();
      }
      queue.close();
    });
    try {
      while (auto prepared = queue.pop()) consume_one(*prepared);
    } catch (...) {
      queue.close();  // unblock the producer before re-throwing
      producer.join();
      throw;
    }
    producer.join();
    if (prepare_error) std::rethrow_exception(prepare_error);
    rep.prepare_stalls = queue.push_stalls();
    rep.eval_stalls = queue.pop_stalls();
    rep.max_queue_depth = queue.max_depth();
  } else {
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      Prepared prepared;
      if (!prepare_one(j, prepared)) continue;
      consume_one(prepared);
    }
  }

  // ---- Degrade requests of unfinished batches to their typed status; a
  // ---- request spanning several batches takes the first failure.
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const BatchOutcome& out = outcomes[j];
    rep.prepare_s += out.prepare_s;
    rep.eval_s += out.eval_s;
    rep.faults.retries += out.retries;
    rep.faults.stage_timeouts += out.timeouts;
    if (out.recovered && out.state == BatchState::kDone) {
      ++rep.faults.recovered_batches;
    }
    if (out.state == BatchState::kDone) continue;
    RequestStatus degraded = RequestStatus::kFailed;
    switch (out.state) {
      case BatchState::kShed: degraded = RequestStatus::kOverloaded; break;
      case BatchState::kQuarantined:
        degraded = RequestStatus::kQuarantined;
        break;
      case BatchState::kTimedOut: degraded = RequestStatus::kTimedOut; break;
      default: degraded = RequestStatus::kFailed; break;
    }
    for (const BlockRef& ref : jobs[j].refs) {
      TranscipherResult& res = results[ref.request];
      if (res.status == RequestStatus::kOk) {
        res.status = degraded;
        res.error = out.error.empty() ? "pipeline aborted" : out.error;
      }
    }
  }

  // ---- Terminal accounting: the status buckets partition the requests.
  tally_terminal_status(results, rep.faults);
  for (const TranscipherResult& res : results) {
    if (!res.ok()) continue;
    // Per-session serving stats (part of the SessionState snapshot).
    // process() never opens or evicts a session, so an admitted request's
    // session is still here.
    Session& session = sessions_.at(res.client_id);
    ++session.requests_served;
    session.blocks_served += res.blocks.size();
  }

  rep.total_s = seconds_since(t_start);
  rep.min_noise_budget_bits = evaluated_batches > 0 ? min_noise : 0;
  rep.predicted_min_budget_bits = evaluated_batches > 0 ? min_predicted : 0;
  rep.blocks_per_s = rep.total_s > 0 ? double(rep.blocks) / rep.total_s : 0;
  rep.faults.injected =
      injector != nullptr ? injector->fired_total() - fired_before : 0;
  rep.exec_ops = exec.snapshot() - before;
  rep.kernel_backend = std::string(exec.kernel_backend_name());
  return results;
}

std::vector<u64> TranscipherService::decode_block(const hhe::HheConfig& config,
                                                  const fhe::Bgv& bgv,
                                                  const PlacedBlock& block) {
  POE_ENSURE(block.ct != nullptr, "block was never evaluated");
  return hhe::SimdBatchEngine::decode_block(config, bgv, *block.ct,
                                            block.tile, block.len);
}

}  // namespace poe::service
