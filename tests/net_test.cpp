// Unit + property tests for the wire layer (ctest label: tier1): the
// little-endian primitives, the frame codec (round-trip property, typed
// rejection of truncated/oversized/bad-magic/bad-CRC frames), the
// consistent-hash ring (determinism, balance, minimal disruption), the
// typed message codecs, and FrameChannel over a real loopback socket —
// including torn-frame detection and the injected `net.frame.torn` fault.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "common/exec_context.hpp"
#include "common/rng.hpp"
#include "net/frame.hpp"
#include "net/messages.hpp"
#include "net/ring.hpp"
#include "net/socket.hpp"
#include "net/wire.hpp"

namespace poe::net {
namespace {

using u64 = std::uint64_t;
using u8 = std::uint8_t;

TEST(Wire, PrimitivesRoundTrip) {
  WireWriter w;
  w.u8(0xAB);
  w.u16(0xBEEF);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFull);
  w.str("hello");
  w.blob(std::vector<u8>{1, 2, 3});
  const std::vector<u8> bytes = w.take();

  WireReader r(bytes);
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0xBEEF);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.str(), "hello");
  const auto blob = r.blob();
  EXPECT_EQ(std::vector<u8>(blob.begin(), blob.end()),
            (std::vector<u8>{1, 2, 3}));
  EXPECT_NO_THROW(r.expect_done("test"));
}

TEST(Wire, TruncatedReadsThrowTyped) {
  const std::vector<u8> three{1, 2, 3};
  EXPECT_THROW(WireReader(three).u32(), WireError);
  EXPECT_THROW(WireReader({}).u8(), WireError);
  // A length prefix claiming more bytes than the buffer holds must be
  // rejected before it can size an allocation.
  WireWriter w;
  w.u32(1u << 30);
  const std::vector<u8> lying = w.take();
  EXPECT_THROW(WireReader(lying).blob(), WireError);
  // Trailing undeclared bytes are protocol damage too.
  WireReader r(three);
  r.u8();
  EXPECT_THROW(r.expect_done("test"), WireError);
}

TEST(Wire, Crc32KnownVector) {
  // The standard IEEE check value for "123456789".
  const char* s = "123456789";
  EXPECT_EQ(crc32({reinterpret_cast<const u8*>(s), 9}), 0xCBF43926u);
  EXPECT_EQ(crc32({}), 0u);
}

TEST(Frame, RoundTripProperty) {
  Xoshiro256 rng(7);
  const MsgType types[] = {MsgType::kPing, MsgType::kOnboardKey,
                           MsgType::kProcessBatch, MsgType::kProcessResult,
                           MsgType::kShutdown};
  for (int iter = 0; iter < 200; ++iter) {
    const MsgType type = types[rng.below(5)];
    std::vector<u8> payload(rng.below(2048));
    for (auto& b : payload) b = static_cast<u8>(rng.next());
    const std::vector<u8> frame = encode_frame(type, payload);
    ASSERT_EQ(frame.size(), kFrameHeaderBytes + payload.size());
    const Frame decoded = decode_frame(frame);
    EXPECT_EQ(decoded.type, type);
    EXPECT_EQ(decoded.payload, payload);
  }
}

TEST(Frame, RejectsDamageTyped) {
  const std::vector<u8> payload{10, 20, 30, 40};
  std::vector<u8> good = encode_frame(MsgType::kPing, payload);

  {  // bad magic
    auto f = good;
    f[0] ^= 0xFF;
    EXPECT_THROW(decode_frame(f), WireError);
  }
  {  // bad version
    auto f = good;
    f[4] = 0x7F;
    EXPECT_THROW(decode_frame(f), WireError);
  }
  {  // unknown type
    auto f = good;
    f[6] = 0xEE;
    f[7] = 0xEE;
    EXPECT_THROW(decode_frame(f), WireError);
  }
  {  // payload CRC mismatch
    auto f = good;
    f.back() ^= 0x01;
    EXPECT_THROW(decode_frame(f), WireError);
  }
  {  // truncated: every prefix of a valid frame must be rejected
    for (std::size_t n = 0; n < good.size(); ++n) {
      EXPECT_THROW(decode_frame(std::span(good).first(n)), WireError);
    }
  }
  {  // trailing garbage past the declared payload
    auto f = good;
    f.push_back(0);
    EXPECT_THROW(decode_frame(f), WireError);
  }
  {  // length field beyond the protocol bound — rejected at header parse,
     // BEFORE any payload-sized allocation could happen
    auto f = good;
    const std::uint32_t huge = kMaxFramePayload + 1;
    f[8] = static_cast<u8>(huge);
    f[9] = static_cast<u8>(huge >> 8);
    f[10] = static_cast<u8>(huge >> 16);
    f[11] = static_cast<u8>(huge >> 24);
    EXPECT_THROW(parse_frame_header(f), WireError);
  }
}

TEST(Ring, DeterministicAcrossInstances) {
  HashRing a(4), b(4);
  Xoshiro256 rng(11);
  for (int i = 0; i < 1000; ++i) {
    const u64 client = rng.next();
    EXPECT_EQ(a.owner(client), b.owner(client));
  }
}

TEST(Ring, ReasonablyBalanced) {
  HashRing ring(4);
  std::vector<std::size_t> share(4, 0);
  Xoshiro256 rng(13);
  const int kClients = 20000;
  for (int i = 0; i < kClients; ++i) ++share[ring.owner(rng.next())];
  for (std::size_t s = 0; s < 4; ++s) {
    // With 64 vnodes per shard, no shard should stray far from 25%.
    EXPECT_GT(share[s], kClients / 10) << "shard " << s;
    EXPECT_LT(share[s], kClients / 2) << "shard " << s;
  }
}

TEST(Ring, DeathMovesOnlyTheDeadShardsClients) {
  HashRing ring(4);
  Xoshiro256 rng(17);
  std::vector<u64> clients(2000);
  for (auto& c : clients) c = rng.next();
  std::vector<std::size_t> before;
  before.reserve(clients.size());
  for (const u64 c : clients) before.push_back(ring.owner(c));

  ring.mark_dead(2);
  for (std::size_t i = 0; i < clients.size(); ++i) {
    const std::size_t now = ring.owner(clients[i]);
    EXPECT_NE(now, 2u);
    if (before[i] != 2) {
      // The minimal-disruption property: only shard 2's clients moved.
      EXPECT_EQ(now, before[i]) << "client " << clients[i];
    }
  }
  // Revival restores the exact original placement (determinism again).
  ring.revive(2);
  for (std::size_t i = 0; i < clients.size(); ++i) {
    EXPECT_EQ(ring.owner(clients[i]), before[i]);
  }
}

TEST(Ring, ThrowsWhenEveryShardIsDead) {
  HashRing ring(2);
  ring.mark_dead(0);
  EXPECT_EQ(ring.alive_count(), 1u);
  ring.mark_dead(1);
  EXPECT_THROW(ring.owner(42), poe::Error);
}

TEST(Messages, SmallCodecsRoundTrip) {
  {
    const OnboardKeyMsg m{77, {1, 2, 3, 4, 5}};
    const auto d = decode_onboard_key(encode_onboard_key(m));
    EXPECT_EQ(d.client_id, m.client_id);
    EXPECT_EQ(d.key_bytes, m.key_bytes);
  }
  {
    const AckMsg m{false, "nope"};
    const auto d = decode_ack(encode_ack(m));
    EXPECT_EQ(d.ok, m.ok);
    EXPECT_EQ(d.error, m.error);
  }
  {
    const auto d = decode_fetch_key(encode_fetch_key(FetchKeyMsg{99}));
    EXPECT_EQ(d.client_id, 99u);
  }
  {
    const KeyStateMsg m{true, {9, 8, 7}};
    const auto d = decode_key_state(encode_key_state(m));
    EXPECT_TRUE(d.found);
    EXPECT_EQ(d.key_bytes, m.key_bytes);
  }
}

// The session-state wire form ("SES1" v1) is the kInstallSession payload
// and every piggybacked session update. Its bytes are pinned field by
// field, one keyed and one key-less state, so a codec change that would
// misread a state an older build wrote fails here.
TEST(Messages, SessionStateGoldenBytes) {
  service::SessionState keyed;
  keyed.client_id = 0x0102030405060708ull;
  keyed.has_key = true;
  keyed.key_bytes = {0xAA, 0xBB, 0xCC};
  keyed.nonces = {5, 0x1122334455667788ull};
  keyed.requests_served = 3;
  keyed.blocks_served = 0x10203;
  const std::vector<u8> keyed_bytes = {
      0x53, 0x45, 0x53, 0x31,                          // "SES1"
      0x01, 0x00,                                      // version 1
      0x01, 0x00,                                      // flags: has_key
      0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01,  // client_id
      0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // requests_served
      0x03, 0x02, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00,  // blocks_served
      0x02, 0x00, 0x00, 0x00,                          // nonce count
      0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // oldest nonce
      0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11,  // newest nonce
      0x03, 0x00, 0x00, 0x00, 0xAA, 0xBB, 0xCC,        // enc(K) blob
  };
  EXPECT_EQ(encode_session_state(keyed), keyed_bytes);
  const service::SessionState back = decode_session_state(keyed_bytes);
  EXPECT_EQ(back.client_id, keyed.client_id);
  EXPECT_TRUE(back.has_key);
  EXPECT_EQ(back.key_bytes, keyed.key_bytes);
  EXPECT_EQ(back.nonces, keyed.nonces);
  EXPECT_EQ(back.requests_served, keyed.requests_served);
  EXPECT_EQ(back.blocks_served, keyed.blocks_served);

  service::SessionState update;  // the key-less piggyback form
  update.client_id = 9;
  update.nonces = {7};
  update.requests_served = 2;
  update.blocks_served = 17;
  const std::vector<u8> update_bytes = {
      0x53, 0x45, 0x53, 0x31,                          // "SES1"
      0x01, 0x00,                                      // version 1
      0x00, 0x00,                                      // flags: no key
      0x09, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // client_id
      0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // requests_served
      0x11, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // blocks_served
      0x01, 0x00, 0x00, 0x00,                          // nonce count
      0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // the nonce
  };
  EXPECT_EQ(encode_session_state(update), update_bytes);
  const service::SessionState back2 = decode_session_state(update_bytes);
  EXPECT_EQ(back2.client_id, update.client_id);
  EXPECT_FALSE(back2.has_key);
  EXPECT_TRUE(back2.key_bytes.empty());
  EXPECT_EQ(back2.nonces, update.nonces);
  EXPECT_EQ(back2.requests_served, update.requests_served);
  EXPECT_EQ(back2.blocks_served, update.blocks_served);
}

TEST(Messages, ProcessBatchRoundTrip) {
  ProcessBatchMsg m;
  m.requests.push_back(
      service::TranscipherRequest{1, 100, {11, 22, 33, 44, 55}});
  m.requests.push_back(service::TranscipherRequest{2, 200, {66}});
  const auto d = decode_process_batch(encode_process_batch(m));
  ASSERT_EQ(d.requests.size(), 2u);
  EXPECT_EQ(d.requests[0].client_id, 1u);
  EXPECT_EQ(d.requests[0].nonce, 100u);
  EXPECT_EQ(d.requests[0].symmetric_ct, m.requests[0].symmetric_ct);
  EXPECT_EQ(d.requests[1].symmetric_ct, m.requests[1].symmetric_ct);
}

TEST(Messages, ProcessResultRoundTrip) {
  ProcessResultMsg m;
  m.cts = {{1, 2, 3}, {4, 5}};
  WireResult ok;
  ok.client_id = 1;
  ok.nonce = 100;
  ok.status = service::RequestStatus::kOk;
  ok.blocks = {WireBlockRef{0, 2, 8}, WireBlockRef{1, 0, 3}};
  WireResult bad;
  bad.client_id = 2;
  bad.nonce = 200;
  bad.status = service::RequestStatus::kNonceReplay;
  bad.error = "nonce replay";
  m.results = {ok, bad};
  m.session_updates = {{7, 7, 7}};
  m.report.requests = 2;
  m.report.blocks = 3;
  m.report.batches = 1;
  m.report.faults.ok = 1;
  m.report.faults.rejected = 1;
  m.stall_s = 2.5;

  const auto d = decode_process_result(encode_process_result(m));
  ASSERT_EQ(d.results.size(), 2u);
  EXPECT_EQ(d.cts, m.cts);
  EXPECT_EQ(d.results[0].blocks[0].ct_index, 0u);
  EXPECT_EQ(d.results[0].blocks[0].tile, 2u);
  EXPECT_EQ(d.results[0].blocks[0].len, 8u);
  EXPECT_EQ(d.results[1].status, service::RequestStatus::kNonceReplay);
  EXPECT_EQ(d.results[1].error, "nonce replay");
  EXPECT_EQ(d.session_updates, m.session_updates);
  EXPECT_EQ(d.report.requests, 2u);
  EXPECT_EQ(d.report.faults.ok, 1u);
  EXPECT_EQ(d.report.faults.rejected, 1u);
  EXPECT_EQ(d.stall_s, 2.5);
}

TEST(Messages, ProcessResultRejectsDanglingCtIndex) {
  ProcessResultMsg m;  // no cts at all
  WireResult res;
  res.blocks = {WireBlockRef{5, 0, 1}};
  m.results = {res};
  EXPECT_THROW(decode_process_result(encode_process_result(m)), WireError);
}

TEST(FrameChannel, LoopbackRoundTripAndCleanClose) {
  ListenSocket listen = ListenSocket::loopback();
  std::thread server([&] {
    FrameChannel ch(listen.accept());
    for (;;) {
      auto msg = ch.recv();
      if (!msg) return;  // clean close
      ch.send(MsgType::kPong, msg->payload);
    }
  });

  FrameChannel client(connect_loopback(listen.port()));
  Xoshiro256 rng(23);
  for (int i = 0; i < 10; ++i) {
    std::vector<u8> payload(rng.below(512) + 1);
    for (auto& b : payload) b = static_cast<u8>(rng.next());
    client.send(MsgType::kPing, payload);
    auto echo = client.recv();
    ASSERT_TRUE(echo.has_value());
    EXPECT_EQ(echo->type, MsgType::kPong);
    EXPECT_EQ(echo->payload, payload);
  }
  client.shutdown();
  server.join();
}

TEST(FrameChannel, TornFrameThrowsTyped) {
  ListenSocket listen = ListenSocket::loopback();
  std::thread peer([&] {
    // A peer that dies mid-frame: half the bytes, then gone.
    Socket sock = connect_loopback(listen.port());
    const std::vector<u8> frame =
        encode_frame(MsgType::kPing, std::vector<u8>(64, 0x5A));
    sock.send_all(std::span(frame).first(frame.size() / 2));
  });
  FrameChannel ch(listen.accept());
  EXPECT_THROW(ch.recv(), WireError);
  peer.join();
}

TEST(FrameChannel, InjectedTornFrameWrecksBothEnds) {
  ListenSocket listen = ListenSocket::loopback();
  ExecContext sender_exec;
  FaultInjector fi;
  fi.arm(FaultSpec{.site = "net.frame.torn", .kind = FaultClass::kForce});
  sender_exec.set_fault_injector(&fi);

  std::thread peer([&] {
    FrameChannel ch(connect_loopback(listen.port()), &sender_exec);
    EXPECT_THROW(ch.send(MsgType::kPing, std::vector<u8>(128, 1)), WireError);
  });
  FrameChannel receiver(listen.accept());
  EXPECT_THROW(receiver.recv(), WireError);
  peer.join();
  EXPECT_EQ(fi.fired(FaultClass::kForce), 1u);
}

TEST(FrameChannel, OversizedLengthFieldRejectedBeforePayload) {
  ListenSocket listen = ListenSocket::loopback();
  std::thread peer([&] {
    // A hostile header claiming a payload beyond the protocol bound; the
    // receiver must reject it from the header alone.
    Socket sock = connect_loopback(listen.port());
    WireWriter w;
    w.u32(kFrameMagic);
    w.u16(kFrameVersion);
    w.u16(static_cast<std::uint16_t>(MsgType::kPing));
    w.u32(kMaxFramePayload + 1);
    w.u32(0);
    sock.send_all(w.bytes());
  });
  FrameChannel ch(listen.accept());
  EXPECT_THROW(ch.recv(), WireError);
  peer.join();
}

}  // namespace
}  // namespace poe::net
