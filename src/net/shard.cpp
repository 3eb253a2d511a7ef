#include "net/shard.hpp"

#include <unordered_map>
#include <unordered_set>

#include "fhe/serialize.hpp"
#include "net/messages.hpp"

namespace poe::net {

using service::RequestStatus;

ShardServer::ShardServer(const hhe::HheConfig& config, const fhe::Bgv& bgv,
                         service::ServiceConfig service_config,
                         std::shared_ptr<const fhe::GaloisKeys> shared_keys)
    : config_(config),
      bgv_(bgv),
      service_(config, bgv, service_config, std::move(shared_keys)) {}

ShardServer::Exit ShardServer::serve(FrameChannel& ch) {
  ExecContext& exec = bgv_.rns().exec();
  for (;;) {
    std::optional<FrameChannel::Received> msg;
    try {
      msg = ch.recv();
    } catch (const WireError&) {
      return Exit::kConnectionLost;
    }
    if (!msg) return Exit::kConnectionLost;  // peer closed cleanly
    // An armed `shard.kill` models the process dying right here — after the
    // request arrived, before any response. The connection is wrecked so
    // the router observes exactly what a crashed peer looks like.
    if (fault_forced(exec, "shard.kill")) {
      ch.shutdown();
      return Exit::kKilled;
    }
    try {
      switch (msg->type) {
        case MsgType::kPing:
          ch.send(MsgType::kPong, {});
          break;
        case MsgType::kInstallSession: {
          AckMsg ack;
          try {
            const service::SessionState state =
                decode_session_state(msg->payload);
            ack.ok = service_.import_session(state, &ack.error);
          } catch (const poe::Error& e) {
            ack.ok = false;
            ack.error = e.what();
          }
          ch.send(MsgType::kInstallAck, encode_ack(ack));
          break;
        }
        case MsgType::kProcessBatch:
          handle_process_batch(ch, msg->payload, msg->stall_s);
          break;
        case MsgType::kShutdown:
          return Exit::kShutdown;
        default:
          // Valid frame, wrong direction (e.g. kOnboardKey at a shard):
          // typed protocol error, connection stays up.
          ch.send(MsgType::kError,
                  encode_ack(AckMsg{
                      false, std::string("unexpected frame type: ") +
                                 to_string(msg->type)}));
          break;
      }
    } catch (const WireError&) {
      // Response send failed (torn frame / dead peer): the service state is
      // intact, only the connection is gone.
      return Exit::kConnectionLost;
    }
  }
}

void ShardServer::handle_process_batch(FrameChannel& ch,
                                       std::span<const std::uint8_t> payload,
                                       double recv_stall_s) {
  ProcessResultMsg out;
  out.stall_s = recv_stall_s;
  ProcessBatchMsg batch;
  try {
    batch = decode_process_batch(payload);
  } catch (const WireError& e) {
    ch.send(MsgType::kError, encode_ack(AckMsg{false, e.what()}));
    return;
  }
  service::ServiceReport report;
  const std::vector<service::TranscipherResult> results =
      service_.process(batch.requests, &report);

  // Serialize each distinct batch-output ciphertext once; blocks reference
  // it by index (the wire mirror of PlacedBlock's shared_ptr sharing).
  std::unordered_map<const fhe::Ciphertext*, std::uint32_t> ct_index;
  out.results.reserve(results.size());
  for (const service::TranscipherResult& res : results) {
    WireResult wr;
    wr.client_id = res.client_id;
    wr.nonce = res.nonce;
    wr.status = res.status;
    wr.error = res.error;
    for (const service::PlacedBlock& block : res.blocks) {
      auto [it, fresh] = ct_index.try_emplace(
          block.ct.get(), static_cast<std::uint32_t>(out.cts.size()));
      if (fresh) {
        out.cts.push_back(fhe::serialize_ciphertext(bgv_.rns(), *block.ct));
      }
      wr.blocks.push_back(WireBlockRef{
          it->second, static_cast<std::uint32_t>(block.tile),
          static_cast<std::uint32_t>(block.len)});
    }
    out.results.push_back(std::move(wr));
  }

  // Piggyback key-less session snapshots for every session this wave
  // touched — the router's replay cache must know each nonce we accepted
  // BEFORE the client sees the ack, or a shard death would reopen it.
  std::unordered_set<std::uint64_t> touched;
  for (const auto& req : batch.requests) {
    if (touched.insert(req.client_id).second &&
        service_.has_session(req.client_id)) {
      out.session_updates.push_back(encode_session_state(
          service_.export_session(req.client_id, /*include_key=*/false)));
    }
  }

  out.report.requests = report.requests;
  out.report.blocks = report.blocks;
  out.report.batches = report.batches;
  out.report.faults = report.faults;
  ch.send(MsgType::kProcessResult, encode_process_result(out));
}

}  // namespace poe::net
