// Typed payload codecs for the frame protocol: what actually rides inside a
// frame of each MsgType. Every decode_* bounds-checks through WireReader and
// rejects trailing bytes, so a hostile payload lands as a WireError the
// serving loop turns into a typed response, never a crash.
//
// Ciphertext bytes (enc(K) uploads, result blocks) travel in the
// fhe/serialize.cpp wire form and are re-validated by the RECEIVER against
// its own RnsContext — the frame CRC catches transport damage, the
// ciphertext validation catches hostile structure.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "net/wire.hpp"
#include "service/service.hpp"

namespace poe::net {

/// kOnboardKey: a client's one-time enc(K) upload to the key manager.
struct OnboardKeyMsg {
  std::uint64_t client_id = 0;
  std::vector<std::uint8_t> key_bytes;
};

/// kOnboardAck / kInstallAck: outcome of a state-changing request.
struct AckMsg {
  bool ok = false;
  std::string error;
};

/// kFetchKey: router asks the key manager for a client's validated enc(K).
struct FetchKeyMsg {
  std::uint64_t client_id = 0;
};

/// kKeyState: the key manager's answer.
struct KeyStateMsg {
  bool found = false;
  std::vector<std::uint8_t> key_bytes;
};

/// kInstallSession, and each of ProcessResultMsg::session_updates: a
/// SessionState in its versioned wire form ("SES1" magic, u16 version 1,
/// u16 flags with bit 0 = has_key, the client id and serving stats, the
/// nonce window, then enc(K) as a blob when has_key).
std::vector<std::uint8_t> encode_session_state(
    const service::SessionState& state);
service::SessionState decode_session_state(
    std::span<const std::uint8_t> payload);

/// kProcessBatch: one wave of transcipher requests for one shard.
struct ProcessBatchMsg {
  std::vector<service::TranscipherRequest> requests;
};

/// One placed block of a result: tile + length into a shared batch-output
/// ciphertext, referenced by index into ProcessResultMsg::cts (blocks of
/// one batch share the ciphertext on the wire exactly as PlacedBlock shares
/// it in memory).
struct WireBlockRef {
  std::uint32_t ct_index = 0;
  std::uint32_t tile = 0;
  std::uint32_t len = 0;
};

/// One request's terminal outcome.
struct WireResult {
  std::uint64_t client_id = 0;
  std::uint64_t nonce = 0;
  service::RequestStatus status = service::RequestStatus::kOk;
  std::string error;
  std::vector<WireBlockRef> blocks;  ///< message order; empty unless kOk
};

/// The slice of a shard's ServiceReport the router needs for aggregate
/// accounting and the cross-process differential invariants.
struct ShardReportMsg {
  std::uint64_t requests = 0;
  std::uint64_t blocks = 0;
  std::uint64_t batches = 0;
  service::FaultStats faults;
};

/// kProcessResult: everything a shard returns for one kProcessBatch.
struct ProcessResultMsg {
  std::vector<std::vector<std::uint8_t>> cts;  ///< serialized batch outputs
  std::vector<WireResult> results;             ///< one per request, in order
  /// Key-less SessionState snapshots (encode_session_state) of every
  /// session this wave touched — the piggyback that keeps the router's
  /// replay-window cache current, so a later rebalance restores every
  /// acknowledged nonce.
  std::vector<std::vector<std::uint8_t>> session_updates;
  ShardReportMsg report;
  /// Injected virtual peer slowness (net.peer.stall charged on the shard
  /// side), echoed so the router's timeout accounting runs on virtual time.
  double stall_s = 0;
};

std::vector<std::uint8_t> encode_onboard_key(const OnboardKeyMsg& m);
OnboardKeyMsg decode_onboard_key(std::span<const std::uint8_t> payload);

std::vector<std::uint8_t> encode_ack(const AckMsg& m);
AckMsg decode_ack(std::span<const std::uint8_t> payload);

std::vector<std::uint8_t> encode_fetch_key(const FetchKeyMsg& m);
FetchKeyMsg decode_fetch_key(std::span<const std::uint8_t> payload);

std::vector<std::uint8_t> encode_key_state(const KeyStateMsg& m);
KeyStateMsg decode_key_state(std::span<const std::uint8_t> payload);

std::vector<std::uint8_t> encode_process_batch(const ProcessBatchMsg& m);
ProcessBatchMsg decode_process_batch(std::span<const std::uint8_t> payload);

std::vector<std::uint8_t> encode_process_result(const ProcessResultMsg& m);
ProcessResultMsg decode_process_result(std::span<const std::uint8_t> payload);

}  // namespace poe::net
