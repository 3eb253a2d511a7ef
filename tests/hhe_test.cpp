#include <gtest/gtest.h>

#include <memory>

#include "common/rng.hpp"
#include "hhe/batched_server.hpp"
#include "hhe/protocol.hpp"
#include "hhe/simd_batch.hpp"

namespace poe::hhe {
namespace {

class HheProtocol : public ::testing::Test {
 protected:
  HheProtocol()
      : config_(HheConfig::test()), bgv_(config_.bgv) {}

  HheConfig config_;
  fhe::Bgv bgv_;
};

TEST_F(HheProtocol, KeyCiphertextsDecryptToKey) {
  Xoshiro256 rng(1);
  const auto key = pasta::PastaCipher::random_key(config_.pasta, rng);
  HheClient client(config_, bgv_, key);
  const auto key_cts = client.encrypt_key();
  ASSERT_EQ(key_cts.size(), config_.pasta.key_size());
  EXPECT_EQ(client.decrypt_result(key_cts), key);
}

TEST_F(HheProtocol, TranscipherBlockRecoversMessage) {
  Xoshiro256 rng(2);
  const auto key = pasta::PastaCipher::random_key(config_.pasta, rng);
  HheClient client(config_, bgv_, key);
  HheServer server(config_, bgv_, client.encrypt_key());

  std::vector<std::uint64_t> msg(config_.pasta.t);
  for (auto& m : msg) m = rng.below(config_.pasta.p);
  const std::uint64_t nonce = 123456;

  // Client -> server: symmetric ciphertext, zero expansion.
  const auto sym_ct = client.encrypt(msg, nonce);
  ASSERT_EQ(sym_ct.size(), msg.size());

  // Server: homomorphic PASTA decryption.
  const CounterSnapshot before = bgv_.rns().exec().snapshot();
  const auto fhe_cts = server.transcipher_block(sym_ct, nonce, 0);
  const CounterSnapshot ops = bgv_.rns().exec().snapshot() - before;
  ASSERT_EQ(fhe_cts.size(), msg.size());
  for (const auto& ct : fhe_cts) {
    EXPECT_GT(bgv_.noise_budget_bits(ct), 0.0)
        << "circuit ran out of noise budget (final level " << ct.level << ")";
    EXPECT_GE(ct.level, 1u);
  }
  // 2 * (t-1) Feistel squares per round * 3 rounds + 2t * 2 cube mults.
  const std::size_t t = config_.pasta.t;
  EXPECT_EQ(ops.ct_ct_mul, 3 * 2 * (t - 1) + 2 * t * 2);

  // Client: decrypting the server's output yields the original message.
  EXPECT_EQ(client.decrypt_result(fhe_cts), msg);
}

TEST_F(HheProtocol, TranscipherPartialAndMultiBlock) {
  Xoshiro256 rng(3);
  const auto key = pasta::PastaCipher::random_key(config_.pasta, rng);
  HheClient client(config_, bgv_, key);
  HheServer server(config_, bgv_, client.encrypt_key());

  std::vector<std::uint64_t> msg(config_.pasta.t + 3);  // 2 blocks, 2nd short
  for (auto& m : msg) m = rng.below(config_.pasta.p);
  const auto sym_ct = client.encrypt(msg, 77);
  const auto fhe_cts = server.transcipher(sym_ct, 77);
  ASSERT_EQ(fhe_cts.size(), msg.size());
  EXPECT_EQ(client.decrypt_result(fhe_cts), msg);
}

TEST_F(HheProtocol, ServerOutputIsComputable) {
  // The point of HHE: the server's output is a *usable* FHE ciphertext —
  // e.g. it can add two transciphered values.
  Xoshiro256 rng(4);
  const auto key = pasta::PastaCipher::random_key(config_.pasta, rng);
  HheClient client(config_, bgv_, key);
  HheServer server(config_, bgv_, client.encrypt_key());

  std::vector<std::uint64_t> msg(config_.pasta.t);
  for (auto& m : msg) m = rng.below(config_.pasta.p);
  const auto cts = server.transcipher_block(client.encrypt(msg, 5), 5, 0);

  fhe::Ciphertext sum = cts[0];
  bgv_.add_inplace(sum, cts[1]);
  bgv_.mul_scalar_inplace(sum, 3);
  const auto got = client.decrypt_result({sum});
  const mod::Modulus pm(config_.pasta.p);
  EXPECT_EQ(got[0], pm.mul(pm.add(msg[0], msg[1]), 3));
}

TEST_F(HheProtocol, MismatchedPlaintextModulusRejected) {
  HheConfig bad = config_;
  bad.pasta.p = 8088322049ull;  // != bgv.t
  Xoshiro256 rng(5);
  const auto key = pasta::PastaCipher::random_key(bad.pasta, rng);
  EXPECT_THROW(HheClient(bad, bgv_, key), poe::Error);
}

TEST_F(HheProtocol, WrongKeyCountRejected) {
  EXPECT_THROW(HheServer(config_, bgv_, {}), poe::Error);
}

// The batched path is SimdBatchEngine; a lone block is its one-tile serving
// shape, merge_tenant_keys({key, {0}}) -> evaluate -> extract_tiles({0}),
// exactly what TranscipherService runs for a one-block request.
class BatchedHhe : public ::testing::Test {
 protected:
  BatchedHhe()
      : config_(HheConfig::batched_test()),
        bgv_(config_.bgv),
        encoder_(config_.bgv.n, config_.bgv.t),
        layout_(config_.bgv.n, config_.bgv.t) {}

  fhe::Ciphertext upload(const std::vector<std::uint64_t>& key) const {
    return encrypt_key_batched(config_, bgv_, encoder_, layout_, key);
  }

  /// One block through the engine's one-tile serving shape; the returned
  /// ciphertext is the trimmed deliverable.
  fhe::Ciphertext serve_one_tile(const SimdBatchEngine& engine,
                                 const fhe::Ciphertext& key_ct,
                                 const std::vector<std::uint64_t>& sym_ct,
                                 std::uint64_t nonce) const {
    const std::vector<std::size_t> tile0{0};
    const std::vector<TenantTiles> tenants{{&key_ct, tile0}};
    const std::vector<SimdBlockRequest> reqs{
        {.nonce = nonce, .counter = 0, .symmetric_ct = sym_ct}};
    const fhe::Ciphertext out = engine.evaluate(
        engine.merge_tenant_keys(tenants), engine.prepare(reqs));
    return engine.extract_tiles(out, tile0);
  }

  std::vector<std::uint64_t> decode(const fhe::Ciphertext& ct,
                                    std::size_t len) const {
    return SimdBatchEngine::decode_block(config_, bgv_, ct, 0, len);
  }

  HheConfig config_;
  fhe::Bgv bgv_;
  fhe::BatchEncoder encoder_;
  fhe::SlotLayout layout_;
};

TEST_F(BatchedHhe, BatchedKeyCiphertextDecodesToKey) {
  Xoshiro256 rng(10);
  const auto key = pasta::PastaCipher::random_key(config_.pasta, rng);
  const auto ct = upload(key);
  // Every 2t-column tile of both slot rows holds the whole key.
  const auto logical = layout_.from_slots(encoder_.decode(bgv_.decrypt(ct)));
  ASSERT_EQ(logical.size(), config_.bgv.n);
  for (std::size_t i = 0; i < logical.size(); ++i) {
    ASSERT_EQ(logical[i], key[i % key.size()]) << "slot " << i;
  }
}

TEST_F(BatchedHhe, BatchedTranscipherMatchesMessage) {
  Xoshiro256 rng(11);
  const auto key = pasta::PastaCipher::random_key(config_.pasta, rng);
  HheClient client(config_, bgv_, key);
  SimdBatchEngine engine(config_, bgv_);

  std::vector<std::uint64_t> msg(config_.pasta.t);
  for (auto& m : msg) m = rng.below(config_.pasta.p);
  const std::uint64_t nonce = 31337;
  const auto sym_ct = client.encrypt(msg, nonce);

  const CounterSnapshot before = bgv_.rns().exec().snapshot();
  const auto out = serve_one_tile(engine, upload(key), sym_ct, nonce);
  const CounterSnapshot ops = bgv_.rns().exec().snapshot() - before;
  EXPECT_GT(bgv_.noise_budget_bits(out), 0.0) << "final level " << out.level;
  // One squaring per Feistel round + two multiplications for the cube —
  // for the WHOLE state (vs 2(t-1) per round coefficient-wise).
  EXPECT_EQ(ops.ct_ct_mul, config_.pasta.rounds - 1 + 2);
  EXPECT_EQ(decode(out, msg.size()), msg);
}

TEST_F(BatchedHhe, BatchedAgreesWithCoefficientWiseServer) {
  Xoshiro256 rng(12);
  const auto key = pasta::PastaCipher::random_key(config_.pasta, rng);
  HheClient client(config_, bgv_, key);

  std::vector<std::uint64_t> msg(config_.pasta.t);
  for (auto& m : msg) m = rng.below(config_.pasta.p);
  const auto sym_ct = client.encrypt(msg, 5);

  // Coefficient-wise path.
  HheServer coeff_server(config_, bgv_, client.encrypt_key());
  const auto coeff_out = coeff_server.transcipher_block(sym_ct, 5, 0);
  const auto coeff_msg = client.decrypt_result(coeff_out);

  // Batched path.
  SimdBatchEngine engine(config_, bgv_);
  const auto batched_msg =
      decode(serve_one_tile(engine, upload(key), sym_ct, 5), msg.size());

  EXPECT_EQ(coeff_msg, msg);
  EXPECT_EQ(batched_msg, msg);
}

TEST_F(BatchedHhe, RejectsTooSmallRing) {
  HheConfig bad = config_;
  bad.pasta.t = 600;  // 2t = 1200 does not divide n/2 = 512
  EXPECT_THROW(SimdBatchEngine(bad, bgv_,
                               std::make_shared<const fhe::GaloisKeys>()),
               poe::Error);
}

// Tiles span both rows of the 2 x (n/2) slot grid: n / 2t blocks per batch.
TEST_F(BatchedHhe, CapacityCoversBothSlotRows) {
  const auto no_keys = std::make_shared<const fhe::GaloisKeys>();
  // 1024 / 16 (PASTA-mini), not the 512 / 16 of one row.
  EXPECT_EQ(SimdBatchEngine(config_, bgv_, no_keys).capacity(), 64u);

  const HheConfig demo = HheConfig::batched_demo();
  const fhe::Bgv demo_bgv(demo.bgv);
  // 1024 / 64 (PASTA-4).
  EXPECT_EQ(SimdBatchEngine(demo, demo_bgv, no_keys).capacity(), 16u);
}

// The last tile of row 1 is addressable; one past it is rejected by the
// tile mask (behind both merge and extraction) and by the client decode.
TEST_F(BatchedHhe, TileIndexAtCapacityIsRejected) {
  Xoshiro256 rng(15);
  const auto key = pasta::PastaCipher::random_key(config_.pasta, rng);
  const auto key_ct = upload(key);
  SimdBatchEngine engine(config_, bgv_,
                         std::make_shared<const fhe::GaloisKeys>());
  const std::size_t cap = engine.capacity();
  const std::vector<std::size_t> last{cap - 1}, past{cap};

  EXPECT_NO_THROW(
      engine.merge_tenant_keys(std::vector<TenantTiles>{{&key_ct, last}}));
  EXPECT_THROW(
      engine.merge_tenant_keys(std::vector<TenantTiles>{{&key_ct, past}}),
      poe::Error);
  EXPECT_NO_THROW(engine.extract_tiles(key_ct, last));
  EXPECT_THROW(engine.extract_tiles(key_ct, past), poe::Error);

  const std::size_t t = config_.pasta.t;
  EXPECT_EQ(SimdBatchEngine::decode_block(config_, bgv_, key_ct, cap - 1, t),
            std::vector<std::uint64_t>(key.begin(),
                                       key.begin() + static_cast<long>(t)));
  EXPECT_THROW(SimdBatchEngine::decode_block(config_, bgv_, key_ct, cap, 1),
               poe::Error);
}

TEST_F(BatchedHhe, SharedRotationKeysMatchOwnedKeys) {
  Xoshiro256 rng(13);
  const auto key = pasta::PastaCipher::random_key(config_.pasta, rng);
  HheClient client(config_, bgv_, key);
  const auto key_ct = upload(key);

  std::vector<std::uint64_t> msg(config_.pasta.t);
  for (auto& m : msg) m = rng.below(config_.pasta.p);
  const auto sym_ct = client.encrypt(msg, 99);

  SimdBatchEngine owned(config_, bgv_);
  const auto shared_keys =
      SimdBatchEngine::make_shared_rotation_keys(config_, bgv_);
  SimdBatchEngine shared(config_, bgv_, shared_keys);

  // Key switching is deterministic given the key material, so both engines
  // must produce the same recovered message (and the shared-keys engine
  // must not need keys of its own).
  const auto a = decode(serve_one_tile(owned, key_ct, sym_ct, 99), msg.size());
  const auto b =
      decode(serve_one_tile(shared, key_ct, sym_ct, 99), msg.size());
  EXPECT_EQ(a, msg);
  EXPECT_EQ(b, msg);
  EXPECT_THROW(SimdBatchEngine(config_, bgv_, nullptr), poe::Error);
}

// ---- Noise-budget regression bands -------------------------------------
//
// Measured on the right-sized configs (parameter search + automatic
// mod-switch scheduling + terminal output trim): both circuits finish at
// level 1 with ~34-35 bits of measured budget, a few bits above the
// predicted (bound-derived) 27-28 and comfortably inside the [band_low,
// band_high] = [8, 40] safety band the search targets. The bands below are
// wide enough for platform jitter (rounding in the budget estimate) but
// tight enough to catch a real regression — a missed trim or a skipped
// mod-switch shows up as a whole-prime (~57 bit) jump.

TEST_F(HheProtocol, NoiseBudgetStaysWithinRecordedBand) {
  Xoshiro256 rng(6);
  const auto key = pasta::PastaCipher::random_key(config_.pasta, rng);
  HheClient client(config_, bgv_, key);
  HheServer server(config_, bgv_, client.encrypt_key());

  std::vector<std::uint64_t> msg(config_.pasta.t);
  for (auto& m : msg) m = rng.below(config_.pasta.p);
  const auto cts = server.transcipher_block(client.encrypt(msg, 314), 314, 0);
  EXPECT_EQ(client.decrypt_result(cts), msg);
  // The band is pinned on the ciphertexts the server hands back (c - KS).
  for (const auto& ct : cts) {
    const double measured = bgv_.noise_budget_bits(ct);
    EXPECT_GE(measured, 28.0)
        << "noise regression: budget dropped below the recorded band";
    EXPECT_LE(measured, 40.0)
        << "budget above the recorded band: parameters changed? "
           "re-measure and update the band";
    EXPECT_GE(measured, bgv_.predicted_budget_bits(ct))
        << "tracked bound is not a sound lower estimate";
    EXPECT_EQ(ct.level, 1u);
  }
}

TEST_F(BatchedHhe, NoiseBudgetStaysWithinRecordedBand) {
  Xoshiro256 rng(14);
  const auto key = pasta::PastaCipher::random_key(config_.pasta, rng);
  HheClient client(config_, bgv_, key);
  SimdBatchEngine engine(config_, bgv_);

  std::vector<std::uint64_t> msg(config_.pasta.t);
  for (auto& m : msg) m = rng.below(config_.pasta.p);
  // The band is pinned on the deliverable (after the extraction trim), not
  // on evaluate()'s untrimmed batch output.
  const auto out =
      serve_one_tile(engine, upload(key), client.encrypt(msg, 159), 159);
  EXPECT_EQ(decode(out, msg.size()), msg);
  const double measured = bgv_.noise_budget_bits(out);
  EXPECT_GE(measured, 28.0)
      << "noise regression: budget dropped below the recorded band";
  EXPECT_LE(measured, 40.0)
      << "budget above the recorded band: parameters changed? "
         "re-measure and update the band";
  EXPECT_GE(measured, bgv_.predicted_budget_bits(out))
      << "tracked bound is not a sound lower estimate";
  EXPECT_EQ(out.level, 1u);
}

// The engine's slot encodes — prepare's diagonals, round constants, Feistel
// mask and message, then one tile mask per merged tenant and one per
// extraction — count on the evaluator's ExecContext, whose snapshot the
// service reports, and never on the process-wide one.
TEST(SimdBatchEngineCounters, EncodesCountOnTheEvaluatorsContext) {
  const HheConfig config = HheConfig::batched_test();
  ExecContext exec;
  const fhe::Bgv bgv(config.bgv, &exec);
  const fhe::BatchEncoder encoder(config.bgv.n, config.bgv.t, &exec);
  const fhe::SlotLayout layout(config.bgv.n, config.bgv.t);
  const SimdBatchEngine engine(config, bgv);
  Xoshiro256 rng(5150);
  std::vector<std::vector<std::uint64_t>> keys;
  std::vector<fhe::Ciphertext> key_cts;
  for (int c = 0; c < 2; ++c) {
    keys.push_back(pasta::PastaCipher::random_key(config.pasta, rng));
    key_cts.push_back(
        encrypt_key_batched(config, bgv, encoder, layout, keys.back()));
  }
  const std::vector<TenantTiles> tenants{{&key_cts[0], {0}},
                                         {&key_cts[1], {1, 2}}};
  const std::vector<std::size_t> owner{0, 1, 1};
  std::vector<SimdBlockRequest> reqs(owner.size());
  std::vector<std::vector<std::uint64_t>> msgs(owner.size());
  for (std::size_t m = 0; m < owner.size(); ++m) {
    msgs[m].resize(config.pasta.t);
    for (auto& v : msgs[m]) v = rng.below(config.pasta.p);
    reqs[m] = {.nonce = 31 + m, .counter = 0,
               .symmetric_ct = pasta::PastaCipher(config.pasta, keys[owner[m]])
                                   .encrypt(msgs[m], 31 + m)};
  }

  const std::uint64_t global_before = ExecContext::global().snapshot().encode;
  const CounterSnapshot before = exec.snapshot();
  const PreparedSimdBatch batch = engine.prepare(reqs);
  // Every live diagonal, every round constant, the Feistel mask, the message.
  std::size_t prepare_encodes = batch.rc.size() + 2;
  for (const auto& layer : batch.diags) {
    for (const auto& pair : layer) {
      for (const auto& diag : pair) {
        prepare_encodes += diag.coeffs.empty() ? 0 : 1;
      }
    }
  }
  EXPECT_EQ(exec.snapshot().encode - before.encode, prepare_encodes);
  const fhe::Ciphertext out =
      engine.evaluate(engine.merge_tenant_keys(tenants), batch);
  std::vector<fhe::Ciphertext> mine;
  for (const auto& tenant : tenants) {
    mine.push_back(engine.extract_tiles(out, tenant.tiles));
  }
  EXPECT_EQ(exec.snapshot().encode - before.encode,
            prepare_encodes + 2 * tenants.size());
  EXPECT_EQ(ExecContext::global().snapshot().encode, global_before);
  for (std::size_t m = 0; m < owner.size(); ++m) {
    EXPECT_EQ(SimdBatchEngine::decode_block(config, bgv, mine[owner[m]], m,
                                            config.pasta.t),
              msgs[m])
        << "tile " << m;
  }
}

TEST(HheConfigs, DemoUsesPasta4) {
  const auto cfg = HheConfig::demo();
  EXPECT_EQ(cfg.pasta.t, 32u);
  EXPECT_EQ(cfg.pasta.rounds, 4u);
  EXPECT_EQ(cfg.bgv.t, cfg.pasta.p);
}

}  // namespace
}  // namespace poe::hhe
