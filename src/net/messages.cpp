#include "net/messages.hpp"

#include <bit>

namespace poe::net {

namespace {
// Element-count prefixes are bounded by the bytes that could possibly back
// them (one byte per element minimum) before any reserve — the same
// discipline WireReader::blob applies to raw byte runs.
std::uint32_t checked_count(WireReader& r, std::size_t min_elem_bytes,
                            const char* what) {
  const std::uint32_t count = r.u32();
  if (std::uint64_t{count} * min_elem_bytes > r.remaining()) {
    throw WireError(std::string(what) + " count " + std::to_string(count) +
                    " exceeds the remaining payload");
  }
  return count;
}

service::RequestStatus decode_status(std::uint8_t raw) {
  if (raw > static_cast<std::uint8_t>(service::RequestStatus::kFailed)) {
    throw WireError("unknown request status " + std::to_string(raw));
  }
  return static_cast<service::RequestStatus>(raw);
}

void put_fault_stats(WireWriter& w, const service::FaultStats& f) {
  w.u64(f.ok);
  w.u64(f.rejected);
  w.u64(f.shed);
  w.u64(f.quarantined);
  w.u64(f.timed_out);
  w.u64(f.failed);
  w.u64(f.retries);
  w.u64(f.stage_timeouts);
  w.u64(f.recovered_batches);
  w.u64(f.injected);
}

service::FaultStats get_fault_stats(WireReader& r) {
  service::FaultStats f;
  f.ok = r.u64();
  f.rejected = r.u64();
  f.shed = r.u64();
  f.quarantined = r.u64();
  f.timed_out = r.u64();
  f.failed = r.u64();
  f.retries = r.u64();
  f.stage_timeouts = r.u64();
  f.recovered_batches = r.u64();
  f.injected = r.u64();
  return f;
}

constexpr std::uint32_t kSessionMagic = 0x31534553;  // "SES1"
constexpr std::uint16_t kSessionVersion = 1;
}  // namespace

std::vector<std::uint8_t> encode_onboard_key(const OnboardKeyMsg& m) {
  WireWriter w;
  w.u64(m.client_id);
  w.blob(m.key_bytes);
  return w.take();
}

OnboardKeyMsg decode_onboard_key(std::span<const std::uint8_t> payload) {
  WireReader r(payload);
  OnboardKeyMsg m;
  m.client_id = r.u64();
  auto key = r.blob();
  m.key_bytes.assign(key.begin(), key.end());
  r.expect_done("onboard_key");
  return m;
}

std::vector<std::uint8_t> encode_ack(const AckMsg& m) {
  WireWriter w;
  w.u8(m.ok ? 1 : 0);
  w.str(m.error);
  return w.take();
}

AckMsg decode_ack(std::span<const std::uint8_t> payload) {
  WireReader r(payload);
  AckMsg m;
  m.ok = r.u8() != 0;
  m.error = r.str();
  r.expect_done("ack");
  return m;
}

std::vector<std::uint8_t> encode_fetch_key(const FetchKeyMsg& m) {
  WireWriter w;
  w.u64(m.client_id);
  return w.take();
}

FetchKeyMsg decode_fetch_key(std::span<const std::uint8_t> payload) {
  WireReader r(payload);
  FetchKeyMsg m;
  m.client_id = r.u64();
  r.expect_done("fetch_key");
  return m;
}

std::vector<std::uint8_t> encode_key_state(const KeyStateMsg& m) {
  WireWriter w;
  w.u8(m.found ? 1 : 0);
  w.blob(m.key_bytes);
  return w.take();
}

KeyStateMsg decode_key_state(std::span<const std::uint8_t> payload) {
  WireReader r(payload);
  KeyStateMsg m;
  m.found = r.u8() != 0;
  auto key = r.blob();
  m.key_bytes.assign(key.begin(), key.end());
  r.expect_done("key_state");
  return m;
}

std::vector<std::uint8_t> encode_session_state(
    const service::SessionState& state) {
  WireWriter w;
  w.u32(kSessionMagic);
  w.u16(kSessionVersion);
  w.u16(state.has_key ? 1 : 0);
  w.u64(state.client_id);
  w.u64(state.requests_served);
  w.u64(state.blocks_served);
  POE_ENSURE(state.nonces.size() <= UINT32_MAX, "nonce window too large");
  w.u32(static_cast<std::uint32_t>(state.nonces.size()));
  for (const std::uint64_t nonce : state.nonces) w.u64(nonce);
  if (state.has_key) w.blob(state.key_bytes);
  return w.take();
}

service::SessionState decode_session_state(
    std::span<const std::uint8_t> payload) {
  WireReader r(payload);
  if (r.u32() != kSessionMagic) throw WireError("bad session-state magic");
  const std::uint16_t version = r.u16();
  if (version != kSessionVersion) {
    throw WireError("unsupported session-state version " +
                    std::to_string(version));
  }
  const std::uint16_t flags = r.u16();
  if ((flags & ~1u) != 0) throw WireError("unknown session-state flags");
  service::SessionState state;
  state.has_key = (flags & 1u) != 0;
  state.client_id = r.u64();
  state.requests_served = r.u64();
  state.blocks_served = r.u64();
  const std::uint32_t nonce_count = checked_count(r, 8, "nonce");
  state.nonces.reserve(nonce_count);
  for (std::uint32_t i = 0; i < nonce_count; ++i) {
    state.nonces.push_back(r.u64());
  }
  if (state.has_key) {
    auto key = r.blob();
    state.key_bytes.assign(key.begin(), key.end());
  }
  r.expect_done("session_state");
  return state;
}

std::vector<std::uint8_t> encode_process_batch(const ProcessBatchMsg& m) {
  WireWriter w;
  POE_ENSURE(m.requests.size() <= UINT32_MAX, "too many requests");
  w.u32(static_cast<std::uint32_t>(m.requests.size()));
  for (const auto& req : m.requests) {
    w.u64(req.client_id);
    w.u64(req.nonce);
    POE_ENSURE(req.symmetric_ct.size() <= UINT32_MAX, "request too large");
    w.u32(static_cast<std::uint32_t>(req.symmetric_ct.size()));
    for (const std::uint64_t elem : req.symmetric_ct) w.u64(elem);
  }
  return w.take();
}

ProcessBatchMsg decode_process_batch(std::span<const std::uint8_t> payload) {
  WireReader r(payload);
  ProcessBatchMsg m;
  const std::uint32_t count = checked_count(r, 20, "request");
  m.requests.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    service::TranscipherRequest req;
    req.client_id = r.u64();
    req.nonce = r.u64();
    const std::uint32_t elems = checked_count(r, 8, "symmetric_ct");
    req.symmetric_ct.reserve(elems);
    for (std::uint32_t e = 0; e < elems; ++e) {
      req.symmetric_ct.push_back(r.u64());
    }
    m.requests.push_back(std::move(req));
  }
  r.expect_done("process_batch");
  return m;
}

std::vector<std::uint8_t> encode_process_result(const ProcessResultMsg& m) {
  WireWriter w;
  POE_ENSURE(m.cts.size() <= UINT32_MAX, "too many ciphertexts");
  w.u32(static_cast<std::uint32_t>(m.cts.size()));
  for (const auto& ct : m.cts) w.blob(ct);
  POE_ENSURE(m.results.size() <= UINT32_MAX, "too many results");
  w.u32(static_cast<std::uint32_t>(m.results.size()));
  for (const auto& res : m.results) {
    w.u64(res.client_id);
    w.u64(res.nonce);
    w.u8(static_cast<std::uint8_t>(res.status));
    w.str(res.error);
    POE_ENSURE(res.blocks.size() <= UINT32_MAX, "too many blocks");
    w.u32(static_cast<std::uint32_t>(res.blocks.size()));
    for (const WireBlockRef& b : res.blocks) {
      w.u32(b.ct_index);
      w.u32(b.tile);
      w.u32(b.len);
    }
  }
  POE_ENSURE(m.session_updates.size() <= UINT32_MAX, "too many updates");
  w.u32(static_cast<std::uint32_t>(m.session_updates.size()));
  for (const auto& update : m.session_updates) w.blob(update);
  w.u64(m.report.requests);
  w.u64(m.report.blocks);
  w.u64(m.report.batches);
  put_fault_stats(w, m.report.faults);
  w.u64(std::bit_cast<std::uint64_t>(m.stall_s));
  return w.take();
}

ProcessResultMsg decode_process_result(std::span<const std::uint8_t> payload) {
  WireReader r(payload);
  ProcessResultMsg m;
  const std::uint32_t ct_count = checked_count(r, 4, "ciphertext");
  m.cts.reserve(ct_count);
  for (std::uint32_t i = 0; i < ct_count; ++i) {
    auto ct = r.blob();
    m.cts.emplace_back(ct.begin(), ct.end());
  }
  const std::uint32_t res_count = checked_count(r, 25, "result");
  m.results.reserve(res_count);
  for (std::uint32_t i = 0; i < res_count; ++i) {
    WireResult res;
    res.client_id = r.u64();
    res.nonce = r.u64();
    res.status = decode_status(r.u8());
    res.error = r.str();
    const std::uint32_t blocks = checked_count(r, 12, "block");
    res.blocks.reserve(blocks);
    for (std::uint32_t b = 0; b < blocks; ++b) {
      WireBlockRef ref;
      ref.ct_index = r.u32();
      ref.tile = r.u32();
      ref.len = r.u32();
      // A block referencing a ciphertext the message never carried is
      // protocol damage, caught here rather than at a later array index.
      if (ref.ct_index >= ct_count) {
        throw WireError("block references ciphertext " +
                        std::to_string(ref.ct_index) + " of " +
                        std::to_string(ct_count));
      }
      res.blocks.push_back(ref);
    }
    m.results.push_back(std::move(res));
  }
  const std::uint32_t update_count = checked_count(r, 4, "session update");
  m.session_updates.reserve(update_count);
  for (std::uint32_t i = 0; i < update_count; ++i) {
    auto update = r.blob();
    m.session_updates.emplace_back(update.begin(), update.end());
  }
  m.report.requests = r.u64();
  m.report.blocks = r.u64();
  m.report.batches = r.u64();
  m.report.faults = get_fault_stats(r);
  m.stall_s = std::bit_cast<double>(r.u64());
  r.expect_done("process_result");
  return m;
}

}  // namespace poe::net
