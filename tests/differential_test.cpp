// Cross-layer differential suite (ctest label: diff).
//
// The repo has four implementations of the PASTA keystream that must agree
// bit-for-bit: the reference software cipher, the cycle-accurate hardware
// model, and the homomorphic evaluations of the coefficient-wise HheServer
// and the batched SimdBatchEngine — one tile, ragged and full capacity, and
// behind the packed multi-tenant service (where "agree" means the
// transciphered BGV plaintext recovers exactly the message the software
// cipher encrypted). These tests pin all of them against each other over
// seeded configurations; the nightly randomized sweep lives in
// differential_slow_test.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/exec_context.hpp"
#include "common/rng.hpp"
#include "fhe/bgv.hpp"
#include "fhe/noise.hpp"
#include "fhe/param_search.hpp"
#include "kernels/backend.hpp"
#include "hhe/batched_server.hpp"
#include "hhe/protocol.hpp"
#include "hhe/simd_batch.hpp"
#include "hw/accelerator.hpp"
#include "pasta/cipher.hpp"
#include "service/service.hpp"

namespace poe {
namespace {

using u64 = std::uint64_t;

// Building a BGV evaluator (and rotation keys) dominates the suite runtime,
// so each parameter set is constructed once per binary.
struct CoeffStack {
  hhe::HheConfig config = hhe::HheConfig::test();
  fhe::Bgv bgv{config.bgv};
};

CoeffStack& coeff() {
  static CoeffStack s;
  return s;
}

struct BatchedStack {
  hhe::HheConfig config = hhe::HheConfig::batched_test();
  fhe::Bgv bgv{config.bgv};
  fhe::BatchEncoder encoder{config.bgv.n, config.bgv.t};
  fhe::SlotLayout layout{config.bgv.n, config.bgv.t};
  std::shared_ptr<const fhe::GaloisKeys> simd_keys =
      hhe::SimdBatchEngine::make_shared_rotation_keys(config, bgv);
};

BatchedStack& batched() {
  static BatchedStack s;
  return s;
}

std::vector<u64> random_msg(Xoshiro256& rng, u64 p, std::size_t len) {
  std::vector<u64> msg(len);
  for (auto& m : msg) m = rng.below(p);
  return msg;
}

// ---------------------------------------------------------------- sw == hw

class SwHwKeystream : public ::testing::TestWithParam<int> {};

TEST_P(SwHwKeystream, KeystreamAndEncryptMatch) {
  const int seed = GetParam();
  // Alternate between the full PASTA-4 instance and the reduced test
  // instance so both parameterizations stay pinned.
  const pasta::PastaParams params =
      seed % 2 == 0 ? pasta::pasta4() : hhe::HheConfig::test().pasta;
  Xoshiro256 rng(static_cast<u64>(seed) * 1009 + 7);
  const auto key = pasta::PastaCipher::random_key(params, rng);
  pasta::PastaCipher sw(params, key);
  hw::AcceleratorSim hw_sim(params);
  const u64 nonce = rng.next();

  for (const u64 counter : {u64{0}, u64{1}, u64{5}}) {
    const auto hw_block = hw_sim.run_block(key, nonce, counter);
    EXPECT_EQ(hw_block.keystream, sw.keystream(nonce, counter))
        << "seed=" << seed << " counter=" << counter;
  }

  const auto msg = random_msg(rng, params.p, 2 * params.t + 3);
  const auto hw_ct = hw_sim.encrypt(key, msg, nonce).ciphertext;
  EXPECT_EQ(hw_ct, sw.encrypt(msg, nonce)) << "seed=" << seed;
  EXPECT_EQ(sw.decrypt(hw_ct, nonce), msg) << "seed=" << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, SwHwKeystream, ::testing::Range(1, 21));

// ------------------------------------------- sw == hw == coefficient-wise

class CoeffServerDifferential : public ::testing::TestWithParam<int> {};

TEST_P(CoeffServerDifferential, HwCiphertextRecoversThroughServer) {
  auto& s = coeff();
  const int seed = GetParam();
  Xoshiro256 rng(static_cast<u64>(seed) * 31 + 5);
  const auto key = pasta::PastaCipher::random_key(s.config.pasta, rng);
  hhe::HheClient client(s.config, s.bgv, key);
  hhe::HheServer server(s.config, s.bgv, client.encrypt_key());

  const auto msg = random_msg(rng, s.config.pasta.p, s.config.pasta.t);
  const u64 nonce = 1000 + static_cast<u64>(seed);
  const auto sym_ct = client.encrypt(msg, nonce);

  // The hardware model must produce the very bytes the server consumes.
  hw::AcceleratorSim hw_sim(s.config.pasta);
  EXPECT_EQ(hw_sim.encrypt(key, msg, nonce).ciphertext, sym_ct);

  const auto fhe_cts = server.transcipher_block(sym_ct, nonce, 0);
  EXPECT_EQ(client.decrypt_result(fhe_cts), msg) << "seed=" << seed;
  for (const auto& ct : fhe_cts) EXPECT_GT(s.bgv.noise_budget_bits(ct), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoeffServerDifferential,
                         ::testing::Values(1, 2, 3));

// A block at a nonzero counter recovers through the server, and
// prepare_block — the per-block preparation the batched engine runs —
// keeps that block's coordinates and one matrix pair per affine layer.
TEST(CoeffServerDifferential2,
     NonzeroCounterRecoversAndPrepareBlockKeepsCoordinates) {
  auto& s = coeff();
  Xoshiro256 rng(777);
  const auto key = pasta::PastaCipher::random_key(s.config.pasta, rng);
  hhe::HheClient client(s.config, s.bgv, key);
  hhe::HheServer server(s.config, s.bgv, client.encrypt_key());

  const auto msg = random_msg(rng, s.config.pasta.p, s.config.pasta.t);
  const u64 nonce = 4242, counter = 3;
  // encrypt() numbers blocks from counter 0; re-derive block 0's stream for
  // a custom counter via the raw keystream.
  const auto ks = client.cipher().keystream(nonce, counter);
  std::vector<u64> sym_at_counter(msg.size());
  for (std::size_t i = 0; i < msg.size(); ++i) {
    sym_at_counter[i] = (msg[i] + ks[i]) % s.config.pasta.p;
  }

  const auto out = server.transcipher_block(sym_at_counter, nonce, counter);
  EXPECT_EQ(client.decrypt_result(out), msg);
  const auto prep = hhe::prepare_block(s.config.pasta, nonce, counter);
  EXPECT_EQ(prep.nonce, nonce);
  EXPECT_EQ(prep.counter, counter);
  EXPECT_EQ(prep.mat_l.size(), s.config.pasta.rounds + 1);
  EXPECT_EQ(prep.mat_r.size(), s.config.pasta.rounds + 1);
}

// ------------------------------------------ sw == engine, one-tile shape

// A lone block is served as the engine's one-tile shape:
// merge_tenant_keys({key, {0}}) -> evaluate -> extract_tiles({0}).
fhe::Ciphertext serve_one_tile(const hhe::SimdBatchEngine& engine,
                               const fhe::Ciphertext& key_ct,
                               const hhe::SimdBlockRequest& req) {
  const std::vector<std::size_t> tile0{0};
  const std::vector<hhe::TenantTiles> tenants{{&key_ct, tile0}};
  const fhe::Ciphertext out =
      engine.evaluate(engine.merge_tenant_keys(tenants),
                      engine.prepare(std::span(&req, 1)));
  return engine.extract_tiles(out, tile0);
}

class BatchedServerDifferential : public ::testing::TestWithParam<int> {};

TEST_P(BatchedServerDifferential, RoundTripThroughSharedKeys) {
  auto& s = batched();
  const int seed = GetParam();
  Xoshiro256 rng(static_cast<u64>(seed) * 127 + 1);
  const auto key = pasta::PastaCipher::random_key(s.config.pasta, rng);
  pasta::PastaCipher sw(s.config.pasta, key);
  hhe::SimdBatchEngine engine(s.config, s.bgv, s.simd_keys);

  const auto msg = random_msg(rng, s.config.pasta.p, s.config.pasta.t);
  const u64 nonce = 2000 + static_cast<u64>(seed);
  const auto ct = serve_one_tile(
      engine,
      hhe::encrypt_key_batched(s.config, s.bgv, s.encoder, s.layout, key),
      {.nonce = nonce, .counter = 0, .symmetric_ct = sw.encrypt(msg, nonce)});
  EXPECT_EQ(
      hhe::SimdBatchEngine::decode_block(s.config, s.bgv, ct, 0, msg.size()),
      msg)
      << "seed=" << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchedServerDifferential,
                         ::testing::Values(1, 2));

// ------------------------------------------------------ sw == SIMD batches

// The one-tile serving shape (masked key merge + trimmed extraction) and a
// direct evaluate() on the unmasked key must recover the same block.
TEST(SimdBatchDifferential, OneTileShapeMatchesDirectEvaluate) {
  auto& s = batched();
  Xoshiro256 rng(31337);
  const auto key = pasta::PastaCipher::random_key(s.config.pasta, rng);
  pasta::PastaCipher sw(s.config.pasta, key);
  const auto key_ct =
      hhe::encrypt_key_batched(s.config, s.bgv, s.encoder, s.layout, key);

  const auto msg = random_msg(rng, s.config.pasta.p, s.config.pasta.t);
  const u64 nonce = 555, counter = 2;
  const auto ks = sw.keystream(nonce, counter);
  std::vector<u64> sym_ct(msg.size());
  for (std::size_t i = 0; i < msg.size(); ++i) {
    sym_ct[i] = (msg[i] + ks[i]) % s.config.pasta.p;
  }

  hhe::SimdBatchEngine engine(s.config, s.bgv, s.simd_keys);
  const hhe::SimdBlockRequest req{
      .nonce = nonce, .counter = counter, .symmetric_ct = sym_ct};
  const auto shaped = serve_one_tile(engine, key_ct, req);
  const auto direct =
      engine.evaluate(key_ct, engine.prepare(std::span(&req, 1)));

  EXPECT_EQ(hhe::SimdBatchEngine::decode_block(s.config, s.bgv, shaped, 0,
                                               msg.size()),
            msg);
  EXPECT_EQ(hhe::SimdBatchEngine::decode_block(s.config, s.bgv, direct, 0,
                                               msg.size()),
            msg);
  EXPECT_LT(shaped.level, direct.level) << "the extraction trim did not run";
}

TEST(SimdBatchDifferential, MultiBlockMixedNoncesRoundTrip) {
  auto& s = batched();
  Xoshiro256 rng(90210);
  const auto key = pasta::PastaCipher::random_key(s.config.pasta, rng);
  pasta::PastaCipher sw(s.config.pasta, key);
  const auto key_ct =
      hhe::encrypt_key_batched(s.config, s.bgv, s.encoder, s.layout, key);
  hhe::SimdBatchEngine engine(s.config, s.bgv, s.simd_keys);

  const std::size_t blocks = 5;
  std::vector<hhe::SimdBlockRequest> reqs(blocks);
  std::vector<std::vector<u64>> msgs(blocks);
  for (std::size_t m = 0; m < blocks; ++m) {
    const std::size_t len = m == 3 ? 2 : s.config.pasta.t;  // one short block
    msgs[m] = random_msg(rng, s.config.pasta.p, len);
    reqs[m].nonce = 10 * m + 1;
    reqs[m].counter = m % 3;
    const auto ks = sw.keystream(reqs[m].nonce, reqs[m].counter);
    reqs[m].symmetric_ct.resize(len);
    for (std::size_t i = 0; i < len; ++i) {
      reqs[m].symmetric_ct[i] = (msgs[m][i] + ks[i]) % s.config.pasta.p;
    }
  }

  const auto prepared = engine.prepare(reqs);
  const CounterSnapshot before = s.bgv.rns().exec().snapshot();
  const auto ct = engine.evaluate(key_ct, prepared);
  const CounterSnapshot ops = s.bgv.rns().exec().snapshot() - before;
  EXPECT_GT(s.bgv.noise_budget_bits(ct), 0.0);
  // Same multiplicative depth as a one-block batch.
  EXPECT_EQ(ops.ct_ct_mul, s.config.pasta.rounds + 1);
  for (std::size_t m = 0; m < blocks; ++m) {
    EXPECT_EQ(hhe::SimdBatchEngine::decode_block(s.config, s.bgv, ct, m,
                                                 msgs[m].size()),
              msgs[m])
        << "tile " << m;
  }
}

TEST(SimdBatchDifferential, FullCapacityRoundTrip) {
  auto& s = batched();
  Xoshiro256 rng(8086);
  const auto key = pasta::PastaCipher::random_key(s.config.pasta, rng);
  pasta::PastaCipher sw(s.config.pasta, key);
  const auto key_ct =
      hhe::encrypt_key_batched(s.config, s.bgv, s.encoder, s.layout, key);
  hhe::SimdBatchEngine engine(s.config, s.bgv, s.simd_keys);

  const std::size_t blocks = engine.capacity();
  std::vector<hhe::SimdBlockRequest> reqs(blocks);
  std::vector<std::vector<u64>> msgs(blocks);
  for (std::size_t m = 0; m < blocks; ++m) {
    msgs[m] = random_msg(rng, s.config.pasta.p, s.config.pasta.t);
    reqs[m].nonce = 7;
    reqs[m].counter = m;  // one long message split across every tile
    const auto ks = sw.keystream(reqs[m].nonce, reqs[m].counter);
    reqs[m].symmetric_ct.resize(msgs[m].size());
    for (std::size_t i = 0; i < msgs[m].size(); ++i) {
      reqs[m].symmetric_ct[i] = (msgs[m][i] + ks[i]) % s.config.pasta.p;
    }
  }

  const auto ct = engine.evaluate(key_ct, engine.prepare(reqs));
  for (std::size_t m = 0; m < blocks; ++m) {
    ASSERT_EQ(hhe::SimdBatchEngine::decode_block(s.config, s.bgv, ct, m,
                                                 msgs[m].size()),
              msgs[m])
        << "tile " << m;
  }
}

// A full batch in which every tile belongs to a different tenant (the
// saturation wave of a sparse-tenant workload): capacity masked keys are
// merged, so the merge's noise growth is at its largest. Every tile must
// decode to its own tenant's message, and each extracted deliverable must
// keep a tracked bound that is sound and clears the output band.
TEST(SimdBatchDifferential, FullBatchOfOneTileTenants) {
  auto& s = batched();
  Xoshiro256 rng(6464);
  hhe::SimdBatchEngine engine(s.config, s.bgv, s.simd_keys);
  const std::size_t blocks = engine.capacity();
  std::vector<fhe::Ciphertext> key_cts(blocks);
  std::vector<std::vector<std::size_t>> owned(blocks);
  std::vector<hhe::TenantTiles> tenants;
  std::vector<hhe::SimdBlockRequest> reqs(blocks);
  std::vector<std::vector<u64>> msgs(blocks);
  for (std::size_t m = 0; m < blocks; ++m) {
    const auto key = pasta::PastaCipher::random_key(s.config.pasta, rng);
    key_cts[m] =
        hhe::encrypt_key_batched(s.config, s.bgv, s.encoder, s.layout, key);
    owned[m] = {m};
    msgs[m] = random_msg(rng, s.config.pasta.p, 1 + rng.below(s.config.pasta.t));
    reqs[m].nonce = 100 + m;
    reqs[m].counter = 0;
    const auto ks =
        pasta::PastaCipher(s.config.pasta, key).keystream(reqs[m].nonce, 0);
    reqs[m].symmetric_ct.resize(msgs[m].size());
    for (std::size_t i = 0; i < msgs[m].size(); ++i) {
      reqs[m].symmetric_ct[i] = (msgs[m][i] + ks[i]) % s.config.pasta.p;
    }
  }
  for (std::size_t m = 0; m < blocks; ++m) {
    tenants.push_back({&key_cts[m], owned[m]});
  }

  const auto out = engine.evaluate(engine.merge_tenant_keys(tenants),
                                   engine.prepare(reqs));
  for (std::size_t m = 0; m < blocks; ++m) {
    const auto mine = engine.extract_tiles(out, owned[m]);
    ASSERT_EQ(hhe::SimdBatchEngine::decode_block(s.config, s.bgv, mine, m,
                                                 msgs[m].size()),
              msgs[m])
        << "tile " << m;
    if (m == 0) {
      EXPECT_LE(s.bgv.predicted_budget_bits(mine),
                s.bgv.noise_budget_bits(mine));
      EXPECT_GE(s.bgv.predicted_budget_bits(mine),
                s.config.output_budget_bits);
    }
  }
}

// ------------------------------------- hoisted == unhoisted rotation path

namespace {
::testing::AssertionResult ciphertext_bits_equal(const fhe::Ciphertext& a,
                                                 const fhe::Ciphertext& b) {
  if (a.level != b.level || a.parts.size() != b.parts.size()) {
    return ::testing::AssertionFailure()
           << "shape mismatch: level " << a.level << " vs " << b.level
           << ", parts " << a.parts.size() << " vs " << b.parts.size();
  }
  for (std::size_t p = 0; p < a.parts.size(); ++p) {
    if (a.parts[p].is_ntt() != b.parts[p].is_ntt()) {
      return ::testing::AssertionFailure() << "NTT-form mismatch in part " << p;
    }
    for (std::size_t i = 0; i < a.level; ++i) {
      const auto ra = a.parts[p].rns(i);
      const auto rb = b.parts[p].rns(i);
      for (std::size_t j = 0; j < ra.size(); ++j) {
        if (ra[j] != rb[j]) {
          return ::testing::AssertionFailure()
                 << "part " << p << " component " << i << " word " << j << ": "
                 << ra[j] << " != " << rb[j];
        }
      }
    }
  }
  return ::testing::AssertionSuccess();
}
}  // namespace

// Every key switch runs one decompose -> inner product -> finish pipeline,
// so the unhoisted in-place rotation and the hoisted one give the same
// ciphertext bits. The independent oracle for both is the plaintext slot
// rotation: each must decrypt to SlotLayout::rotate_columns of the input.
TEST(HoistedRotationDifferential, AgreesWithUnhoistedAcrossStepsAndLevels) {
  auto& s = batched();
  Xoshiro256 rng(424242);
  const auto logical = random_msg(rng, s.config.bgv.t, s.config.bgv.n);
  auto ct = s.bgv.encrypt(s.encoder.encode(s.layout.to_slots(logical)));

  for (int drop = 0; drop < 2; ++drop) {
    if (drop == 1) s.bgv.mod_switch_inplace(ct);
    const fhe::HoistedCt hoisted = s.bgv.hoist(ct);
    for (const long step : hhe::SimdBatchEngine::rotation_steps(s.config)) {
      fhe::Ciphertext unhoisted = ct;
      s.bgv.rotate_columns_inplace(unhoisted, step, *s.simd_keys);
      fhe::Ciphertext via_hoist;
      s.bgv.rotate_hoisted_into(hoisted, step, *s.simd_keys, via_hoist);
      EXPECT_TRUE(ciphertext_bits_equal(via_hoist, unhoisted))
          << "step " << step << " drop " << drop;
      EXPECT_EQ(s.layout.from_slots(
                    s.encoder.decode(s.bgv.decrypt(via_hoist))),
                s.layout.rotate_columns(logical, step))
          << "step " << step << " drop " << drop;
      EXPECT_GT(s.bgv.noise_budget_bits(via_hoist), 0.0) << "step " << step;
    }
  }
}

// The special-modulus switch at every level of batched_test's chain, under
// the checked-in alpha and under alpha = 3 and 4, so that some levels end
// in a truncated digit group of every size below alpha. At each level the
// relinearisation, both rotation paths and the ingest switch decrypt to
// the plaintext oracle (SlotLayout for the rotations), the
// tracked bound claims no more budget than the secret key measures, and the
// hoisted rotation gives the unhoisted one's bits. A product needs about
// two primes of budget on this chain, so relinearisation runs from level 2.
TEST(KeySwitchDifferential, EveryLevelAndTruncatedGroupMatchOracles) {
  const hhe::HheConfig config = hhe::HheConfig::batched_test();
  const fhe::BatchEncoder encoder(config.bgv.n, config.bgv.t);
  const fhe::SlotLayout layout(config.bgv.n, config.bgv.t);
  const mod::Modulus mt(config.bgv.t);
  const auto sound = [](const fhe::Bgv& bgv, const fhe::Ciphertext& ct) {
    return bgv.predicted_budget_bits(ct) <= bgv.noise_budget_bits(ct);
  };
  for (const std::size_t alpha :
       {config.bgv.special_primes(), std::size_t{3}, std::size_t{4}}) {
    fhe::BgvParams params = config.bgv;
    params.relin_digit_bits = static_cast<unsigned>(alpha) * params.prime_bits;
    fhe::BgvParams tenant_params = params;
    tenant_params.seed += 1;
    const fhe::Bgv bgv(params), tenant(tenant_params);
    const fhe::KswKey ingest_key = bgv.make_ingest_key(tenant);
    const std::vector<long> steps{1, 5};
    const fhe::GaloisKeys keys = bgv.make_rotation_keys(steps);

    Xoshiro256 rng(515151 + alpha);
    const auto logical = random_msg(rng, config.bgv.t, config.bgv.n);
    auto ct = bgv.encrypt(encoder.encode(layout.to_slots(logical)));
    auto upload = tenant.encrypt(encoder.encode(layout.to_slots(logical)));
    std::vector<u64> squared(logical.size());
    for (std::size_t i = 0; i < logical.size(); ++i) {
      squared[i] = mt.mul(logical[i], logical[i]);
    }
    const auto decoded = [&](const fhe::Ciphertext& c) {
      return layout.from_slots(encoder.decode(bgv.decrypt(c)));
    };

    for (std::size_t level = bgv.top_level(); level >= 1; --level) {
      bgv.mod_switch_to(ct, level);
      tenant.mod_switch_to(upload, level);
      SCOPED_TRACE("alpha " + std::to_string(alpha) + " level " +
                   std::to_string(level));

      const fhe::HoistedCt hoisted = bgv.hoist(ct);
      for (const long step : steps) {
        fhe::Ciphertext via_hoist;
        bgv.rotate_hoisted_into(hoisted, step, keys, via_hoist);
        fhe::Ciphertext unhoisted = ct;
        bgv.rotate_columns_inplace(unhoisted, step, keys);
        EXPECT_TRUE(ciphertext_bits_equal(via_hoist, unhoisted))
            << "step " << step;
        EXPECT_EQ(decoded(via_hoist), layout.rotate_columns(logical, step))
            << "step " << step;
        EXPECT_TRUE(sound(bgv, via_hoist)) << "step " << step;
      }

      const fhe::Ciphertext ingested = bgv.ingest_switch(upload, ingest_key);
      EXPECT_EQ(ingested.level, level);
      EXPECT_EQ(decoded(ingested), logical);
      EXPECT_TRUE(sound(bgv, ingested));

      if (level >= 2) {
        fhe::Ciphertext product = bgv.multiply(ct, ct);
        bgv.relinearize_inplace(product);
        EXPECT_EQ(product.size(), 2u);
        EXPECT_EQ(decoded(product), squared);
        EXPECT_TRUE(sound(bgv, product));
      }
    }
  }
}

// Ragged diagonal-loop lengths: a serving loop that touches 1, s-1 or s
// diagonals (k = 0 never rotates) reuses ONE output ciphertext whatever
// shape the previous loop left in it — including a slab one level up. The
// reused output must match a freshly allocated one on raw ciphertext words.
TEST(HoistedRotationDifferential, ReusedOutputSurvivesRaggedDiagonalCounts) {
  auto& s = batched();
  Xoshiro256 rng(626262);
  const std::size_t sdim = 2 * s.config.pasta.t;
  const auto logical = random_msg(rng, s.config.bgv.t, s.config.bgv.n);
  auto ct = s.bgv.encrypt(s.encoder.encode(s.layout.to_slots(logical)));

  fhe::Ciphertext out;  // deliberately shared across the ragged loops
  for (int drop = 0; drop < 2; ++drop) {
    if (drop == 1) s.bgv.mod_switch_inplace(ct);
    const fhe::HoistedCt hoisted = s.bgv.hoist(ct);
    for (const std::size_t count : {std::size_t{1}, sdim - 1, sdim}) {
      for (std::size_t k = 1; k < count; ++k) {
        const long step = static_cast<long>(k);
        fhe::Ciphertext fresh;
        s.bgv.rotate_hoisted_into(hoisted, step, *s.simd_keys, fresh);
        s.bgv.rotate_hoisted_into(hoisted, step, *s.simd_keys, out);
        EXPECT_TRUE(ciphertext_bits_equal(out, fresh))
            << "drop " << drop << " count " << count << " step " << step;
      }
    }
  }
}

// Per kernel backend, at the top level and one level down: the hoisted
// rotation, a reused output and the unhoisted in-place rotation must agree
// bit for bit and decrypt to the plaintext slot rotation. Uses the smaller
// coefficient-config ring so three keygens stay cheap.
TEST(HoistedRotationDifferential, AgreesWithUnhoistedOnEveryBackend) {
  const hhe::HheConfig config = hhe::HheConfig::test();
  for (const kernels::Backend* backend : kernels::available_backends()) {
    SCOPED_TRACE(backend->name());
    ExecContext exec(backend);
    fhe::Bgv bgv(config.bgv, &exec);
    fhe::BatchEncoder encoder(config.bgv.n, config.bgv.t);
    fhe::SlotLayout layout(config.bgv.n, config.bgv.t);
    const std::vector<long> steps{1, 7};
    const fhe::GaloisKeys keys = bgv.make_rotation_keys(steps);

    Xoshiro256 rng(737373);
    const auto logical = random_msg(rng, config.bgv.t, config.bgv.n);
    auto ct = bgv.encrypt(encoder.encode(layout.to_slots(logical)));

    fhe::Ciphertext out;
    for (int drop = 0; drop < 2; ++drop) {
      if (drop == 1) bgv.mod_switch_inplace(ct);
      const fhe::HoistedCt hoisted = bgv.hoist(ct);
      for (const long step : steps) {
        fhe::Ciphertext fresh;
        bgv.rotate_hoisted_into(hoisted, step, keys, fresh);
        bgv.rotate_hoisted_into(hoisted, step, keys, out);
        EXPECT_TRUE(ciphertext_bits_equal(out, fresh))
            << "step " << step << " drop " << drop;

        fhe::Ciphertext unhoisted = ct;
        bgv.rotate_columns_inplace(unhoisted, step, keys);
        EXPECT_TRUE(ciphertext_bits_equal(out, unhoisted))
            << "step " << step << " drop " << drop;
        EXPECT_EQ(layout.from_slots(encoder.decode(bgv.decrypt(out))),
                  layout.rotate_columns(logical, step))
            << "step " << step << " drop " << drop;
      }
    }
  }
}

// ------------------------------------------------- service == direct path

TEST(ServiceDifferential, ServiceAgreesWithCoefficientWiseServer) {
  auto& sb = batched();
  auto& sc = coeff();
  Xoshiro256 rng(112233);
  // Same PASTA instance in both stacks: transcipher the same message
  // through the service (SIMD path) and the coefficient-wise server, and
  // require identical recovered plaintexts.
  ASSERT_EQ(sb.config.pasta.t, sc.config.pasta.t);
  const auto key = pasta::PastaCipher::random_key(sb.config.pasta, rng);
  const auto msg = random_msg(rng, sb.config.pasta.p, sb.config.pasta.t);
  const u64 nonce = 31415;

  service::TranscipherService svc(sb.config, sb.bgv, {}, sb.simd_keys);
  pasta::PastaCipher sw(sb.config.pasta, key);
  svc.open_session(
      1, hhe::encrypt_key_batched(sb.config, sb.bgv, sb.encoder, sb.layout,
                                  key));
  const auto results = svc.process(std::vector{service::TranscipherRequest{
      .client_id = 1, .nonce = nonce, .symmetric_ct = sw.encrypt(msg, nonce)}});
  const auto via_service = service::TranscipherService::decode_block(
      sb.config, sb.bgv, results[0].blocks[0]);

  hhe::HheClient client(sc.config, sc.bgv, key);
  hhe::HheServer server(sc.config, sc.bgv, client.encrypt_key());
  const auto via_coeff = client.decrypt_result(
      server.transcipher_block(client.encrypt(msg, nonce), nonce, 0));

  EXPECT_EQ(via_service, msg);
  EXPECT_EQ(via_coeff, msg);
  EXPECT_EQ(via_service, via_coeff);
}

// ------------------------------------------- cross-tenant packed batches

// One packed batch holding THREE tenants with distinct PASTA keys and
// ragged fills (1, 3 and 7 blocks) must decode bit-identical per tenant to
// (a) each tenant served alone, one process() call and one batch each, and
// (b) the coefficient-wise server — the same transcipher answer through
// three different evaluation shapes.
TEST(TenantIsolationDifferential, PackedMatchesPerClientAndCoeffRaggedFills) {
  auto& sb = batched();
  auto& sc = coeff();
  ASSERT_EQ(sb.config.pasta.t, sc.config.pasta.t);
  const std::size_t t = sb.config.pasta.t;
  Xoshiro256 rng(20260808);

  const std::size_t kTenants = 3;
  const std::size_t kBlocksOf[kTenants] = {1, 3, 7};
  std::vector<std::vector<u64>> keys(kTenants), msgs(kTenants);
  std::vector<service::TranscipherRequest> reqs;
  for (std::size_t c = 0; c < kTenants; ++c) {
    keys[c] = pasta::PastaCipher::random_key(sb.config.pasta, rng);
    // Ragged: the tenant's LAST block is also partially filled.
    msgs[c] = random_msg(rng, sb.config.pasta.p, kBlocksOf[c] * t - 2);
    pasta::PastaCipher sw(sb.config.pasta, keys[c]);
    reqs.push_back(service::TranscipherRequest{
        .client_id = c + 1,
        .nonce = 900 + c,
        .symmetric_ct = sw.encrypt(msgs[c], 900 + c)});
  }

  // Path 1: one packed cross-tenant batch (1 + 3 + 7 = 11 of 64 tiles).
  service::ServiceReport packed_rep;
  std::vector<std::vector<u64>> via_packed(kTenants);
  {
    service::TranscipherService svc(sb.config, sb.bgv, {}, sb.simd_keys);
    for (std::size_t c = 0; c < kTenants; ++c) {
      svc.open_session(c + 1, hhe::encrypt_key_batched(sb.config, sb.bgv,
                                                       sb.encoder, sb.layout,
                                                       keys[c]));
    }
    const auto results = svc.process(reqs, &packed_rep);
    ASSERT_EQ(packed_rep.batches, 1u);
    ASSERT_EQ(packed_rep.cross_tenant_batches, 1u);
    for (std::size_t c = 0; c < kTenants; ++c) {
      ASSERT_TRUE(results[c].ok()) << results[c].error;
      ASSERT_EQ(results[c].blocks.size(), kBlocksOf[c]);
      for (const auto& block : results[c].blocks) {
        const auto vals = service::TranscipherService::decode_block(
            sb.config, sb.bgv, block);
        via_packed[c].insert(via_packed[c].end(), vals.begin(), vals.end());
      }
    }
  }

  // Path 2: each tenant alone — its own process() call, its own batch.
  std::vector<std::vector<u64>> via_per_client(kTenants);
  {
    service::TranscipherService svc(sb.config, sb.bgv, {}, sb.simd_keys);
    for (std::size_t c = 0; c < kTenants; ++c) {
      svc.open_session(c + 1, hhe::encrypt_key_batched(sb.config, sb.bgv,
                                                       sb.encoder, sb.layout,
                                                       keys[c]));
    }
    for (std::size_t c = 0; c < kTenants; ++c) {
      service::ServiceReport rep;
      const auto results = svc.process(std::span(&reqs[c], 1), &rep);
      ASSERT_EQ(rep.batches, 1u);
      EXPECT_EQ(rep.cross_tenant_batches, 0u);
      ASSERT_TRUE(results[0].ok()) << results[0].error;
      for (const auto& block : results[0].blocks) {
        const auto vals = service::TranscipherService::decode_block(
            sb.config, sb.bgv, block);
        via_per_client[c].insert(via_per_client[c].end(), vals.begin(),
                                 vals.end());
      }
    }
  }

  // Path 3: the coefficient-wise server (multi-block, ragged tail).
  for (std::size_t c = 0; c < kTenants; ++c) {
    hhe::HheClient client(sc.config, sc.bgv, keys[c]);
    hhe::HheServer server(sc.config, sc.bgv, client.encrypt_key());
    const auto via_coeff = client.decrypt_result(
        server.transcipher(reqs[c].symmetric_ct, reqs[c].nonce));

    EXPECT_EQ(via_packed[c], msgs[c]) << "tenant " << c;
    EXPECT_EQ(via_per_client[c], msgs[c]) << "tenant " << c;
    EXPECT_EQ(via_coeff, msgs[c]) << "tenant " << c;
    EXPECT_EQ(via_packed[c], via_per_client[c]) << "tenant " << c;
    EXPECT_EQ(via_packed[c], via_coeff) << "tenant " << c;
  }
}

// Key-switch-on-ingest: a tenant with its OWN BGV secret (same ring)
// uploads a key encrypted in its own domain; the service switches it into
// the shared evaluation domain and packs it with a native tenant. Both
// must transcipher exactly.
TEST(TenantIsolationDifferential, IngestSwitchedTenantPacksWithNativeTenant) {
  auto& sb = batched();
  Xoshiro256 rng(606060);

  // The foreign tenant's evaluator: identical ring, different secret.
  fhe::BgvParams foreign_params = sb.config.bgv;
  foreign_params.seed = sb.config.bgv.seed + 17;
  fhe::Bgv foreign_bgv(foreign_params);
  const fhe::KswKey ingest_key = sb.bgv.make_ingest_key(foreign_bgv);

  const auto foreign_key =
      pasta::PastaCipher::random_key(sb.config.pasta, rng);
  const auto native_key =
      pasta::PastaCipher::random_key(sb.config.pasta, rng);
  const auto msg_f = random_msg(rng, sb.config.pasta.p, sb.config.pasta.t);
  const auto msg_n =
      random_msg(rng, sb.config.pasta.p, sb.config.pasta.t + 2);

  service::TranscipherService svc(sb.config, sb.bgv, {}, sb.simd_keys);
  // The foreign upload is tiled with the foreign evaluator (same encoder
  // and layout: both are parameter-only), then switched on ingest.
  svc.open_session_switched(
      1,
      hhe::encrypt_key_batched(sb.config, foreign_bgv, sb.encoder, sb.layout,
                               foreign_key),
      ingest_key);
  svc.open_session(2, hhe::encrypt_key_batched(sb.config, sb.bgv, sb.encoder,
                                               sb.layout, native_key));

  pasta::PastaCipher sw_f(sb.config.pasta, foreign_key);
  pasta::PastaCipher sw_n(sb.config.pasta, native_key);
  service::ServiceReport rep;
  const auto results = svc.process(
      std::vector{
          service::TranscipherRequest{.client_id = 1,
                                      .nonce = 71,
                                      .symmetric_ct = sw_f.encrypt(msg_f, 71)},
          service::TranscipherRequest{.client_id = 2,
                                      .nonce = 72,
                                      .symmetric_ct =
                                          sw_n.encrypt(msg_n, 72)}},
      &rep);

  ASSERT_EQ(rep.batches, 1u);
  EXPECT_EQ(rep.cross_tenant_batches, 1u);
  EXPECT_GT(rep.min_noise_budget_bits, 0.0);
  for (const auto& res : results) ASSERT_TRUE(res.ok()) << res.error;
  std::vector<u64> via_f, via_n;
  for (const auto& block : results[0].blocks) {
    const auto vals =
        service::TranscipherService::decode_block(sb.config, sb.bgv, block);
    via_f.insert(via_f.end(), vals.begin(), vals.end());
  }
  for (const auto& block : results[1].blocks) {
    const auto vals =
        service::TranscipherService::decode_block(sb.config, sb.bgv, block);
    via_n.insert(via_n.end(), vals.begin(), vals.end());
  }
  EXPECT_EQ(via_f, msg_f);
  EXPECT_EQ(via_n, msg_n);
}

// Tiles span both slot-grid rows, so co-packed tenants can share columns
// and differ only in the row. Tenant A owns tile m of row 0 and tenant B
// tile m + cols/2t — the same columns in row 1. A also owns the last tile of
// row 0 and B the first of row 1, neighbours in the row-major grid; an
// ingest-switched foreign-key tenant F holds row-1 tiles up to the last
// one, whose wrap parts are stored in B's first tile. Every tenant must
// decode what the coefficient-wise HheServer recovers, dropping B from the
// merge must leave A's output unchanged, and each extraction must be zero
// outside its owner's tiles in both rows.
TEST(TenantIsolationDifferential, CrossRowTenantsShareColumnsWithoutLeaking) {
  auto& sb = batched();
  auto& sc = coeff();
  ASSERT_EQ(sb.config.pasta.t, sc.config.pasta.t);
  const std::size_t t = sb.config.pasta.t;
  const u64 p = sb.config.pasta.p;
  hhe::SimdBatchEngine engine(sb.config, sb.bgv, sb.simd_keys);
  const std::size_t capacity = engine.capacity();
  const std::size_t per_row = sb.layout.cols() / sb.config.pasta.state_size();
  ASSERT_EQ(capacity, 2 * per_row);
  Xoshiro256 rng(424242);

  fhe::BgvParams foreign_params = sb.config.bgv;
  foreign_params.seed = sb.config.bgv.seed + 17;
  const fhe::Bgv foreign_bgv(foreign_params);

  struct Tenant {
    std::vector<std::size_t> tiles;
    std::vector<u64> key;
    fhe::Ciphertext key_ct;
  };
  const std::size_t m = 5;
  std::vector<Tenant> tenants(3);
  tenants[0].tiles = {m, per_row - 1};             // A, row 0
  tenants[1].tiles = {m + per_row, per_row};       // B, row 1
  tenants[2].tiles = {per_row + 9, capacity - 1};  // F, row 1, foreign key
  for (auto& tenant : tenants) {
    tenant.key = pasta::PastaCipher::random_key(sb.config.pasta, rng);
  }
  for (std::size_t c = 0; c < 2; ++c) {
    tenants[c].key_ct = hhe::encrypt_key_batched(sb.config, sb.bgv, sb.encoder,
                                                 sb.layout, tenants[c].key);
  }
  tenants[2].key_ct = sb.bgv.ingest_switch(
      hhe::encrypt_key_batched(sb.config, foreign_bgv, sb.encoder, sb.layout,
                               tenants[2].key),
      sb.bgv.make_ingest_key(foreign_bgv));

  // prepare() fills tiles 0..blocks-1, so every tile gets a request; the
  // tiles nobody owns carry an all-zero merged key and are never read.
  std::vector<hhe::SimdBlockRequest> reqs(capacity);
  std::vector<std::vector<u64>> msgs(capacity);
  for (std::size_t tile = 0; tile < capacity; ++tile) {
    reqs[tile].nonce = 1000 + tile;
    reqs[tile].counter = tile % 3;
    reqs[tile].symmetric_ct.assign(t, 0);
  }
  for (const auto& tenant : tenants) {
    pasta::PastaCipher sw(sb.config.pasta, tenant.key);
    for (const std::size_t tile : tenant.tiles) {
      const std::size_t len = tile == tenant.tiles.back() ? t - 3 : t;
      msgs[tile] = random_msg(rng, p, len);
      const auto ks = sw.keystream(reqs[tile].nonce, reqs[tile].counter);
      reqs[tile].symmetric_ct.resize(len);
      for (std::size_t i = 0; i < len; ++i) {
        reqs[tile].symmetric_ct[i] = (msgs[tile][i] + ks[i]) % p;
      }
    }
  }
  const hhe::PreparedSimdBatch batch = engine.prepare(reqs);

  auto evaluate_merged = [&](std::initializer_list<std::size_t> members) {
    std::vector<hhe::TenantTiles> parts;
    for (const std::size_t c : members) {
      parts.push_back({&tenants[c].key_ct, tenants[c].tiles});
    }
    return engine.evaluate(engine.merge_tenant_keys(parts), batch);
  };
  auto logical = [&](const fhe::Ciphertext& ct) {
    return sb.layout.from_slots(sb.encoder.decode(sb.bgv.decrypt(ct)));
  };
  const fhe::Ciphertext out = evaluate_merged({0, 1, 2});

  for (std::size_t c = 0; c < tenants.size(); ++c) {
    const auto& tenant = tenants[c];
    const fhe::Ciphertext mine = engine.extract_tiles(out, tenant.tiles);
    hhe::HheClient client(sc.config, sc.bgv, tenant.key);
    hhe::HheServer server(sc.config, sc.bgv, client.encrypt_key());
    for (const std::size_t tile : tenant.tiles) {
      const auto via_packed = hhe::SimdBatchEngine::decode_block(
          sb.config, sb.bgv, mine, tile, msgs[tile].size());
      const auto via_coeff = client.decrypt_result(server.transcipher_block(
          reqs[tile].symmetric_ct, reqs[tile].nonce, reqs[tile].counter));
      EXPECT_EQ(via_packed, msgs[tile]) << "tenant " << c << " tile " << tile;
      EXPECT_EQ(via_coeff, msgs[tile]) << "tenant " << c << " tile " << tile;
    }

    // Nothing outside the owner's tiles survives the extraction, in either
    // row.
    std::vector<bool> owned(capacity, false);
    for (const std::size_t tile : tenant.tiles) owned[tile] = true;
    const auto grid = logical(mine);
    const std::size_t s = sb.config.pasta.state_size();
    for (std::size_t pos = 0; pos < grid.size(); ++pos) {
      if (!owned[pos / s]) {
        ASSERT_EQ(grid[pos], 0u) << "tenant " << c << " leaks at row "
                                 << pos / sb.layout.cols() << " col "
                                 << pos % sb.layout.cols();
      }
    }
  }

  // A's whole output grid is a function of A's key and requests only:
  // quarantining B (dropping it from the merge) must not move a single
  // slot of it.
  const fhe::Ciphertext out_without_b = evaluate_merged({0, 2});
  EXPECT_EQ(logical(engine.extract_tiles(out_without_b, tenants[0].tiles)),
            logical(engine.extract_tiles(out, tenants[0].tiles)));
}


// ------------------------------------------------- fused tenant-key merge

namespace {
// The tenant-key merge as a composition of public Bgv calls: every
// tenant's key times its 0/1 tile mask (mul_plain_inplace), then a binary
// counter of pairwise sums — two sums of 2^r masked keys add as soon as
// they meet, and the leftovers fold smallest first — with match_levels
// before each addition.
fhe::Ciphertext reference_merge(const hhe::HheConfig& config,
                                const fhe::Bgv& bgv,
                                std::span<const hhe::TenantTiles> tenants) {
  const fhe::BatchEncoder encoder(config.bgv.n, config.bgv.t);
  const fhe::SlotLayout layout(config.bgv.n, config.bgv.t);
  const std::size_t s = config.pasta.state_size();
  std::vector<std::pair<std::size_t, fhe::Ciphertext>> partial;
  const auto add_into = [&](fhe::Ciphertext& into, fhe::Ciphertext& other) {
    bgv.match_levels(into, other);
    bgv.add_inplace(into, other);
  };
  for (const auto& tenant : tenants) {
    std::vector<u64> mask(config.bgv.n, 0);
    for (const std::size_t tile : tenant.tiles) {
      std::fill_n(mask.begin() + static_cast<long>(tile * s), s, 1);
    }
    fhe::Ciphertext masked = *tenant.key_ct;
    bgv.mul_plain_inplace(masked, encoder.encode(layout.to_slots(mask)));
    std::size_t rank = 0;
    while (!partial.empty() && partial.back().first == rank) {
      add_into(masked, partial.back().second);
      partial.pop_back();
      ++rank;
    }
    partial.emplace_back(rank, std::move(masked));
  }
  fhe::Ciphertext merged = std::move(partial.back().second);
  partial.pop_back();
  for (; !partial.empty(); partial.pop_back()) {
    add_into(merged, partial.back().second);
  }
  return merged;
}

::testing::AssertionResult tapes_equal(const std::vector<fhe::TapeNode>& a,
                                       const std::vector<fhe::TapeNode>& b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure()
           << "tape lengths " << a.size() << " vs " << b.size();
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].op != b[i].op || a[i].a != b[i].a || a[i].b != b[i].b ||
        a[i].scalar != b[i].scalar || a[i].terms != b[i].terms) {
      return ::testing::AssertionFailure() << "tape node " << i << " differs";
    }
  }
  return ::testing::AssertionSuccess();
}
}  // namespace

// SimdBatchEngine::merge_tenant_keys runs as one fork over the limbs; each
// limb's masked sum is exact mod its prime, so on every kernel backend the
// merged key must carry the reference merge's bits, tracked bound and tape
// nodes, with the same forward-NTT count and fewer copied bytes. Cases: one
// tenant, 64 one-tile tenants (the sparse-tenant saturation wave), ragged
// 1/3/7/20/33-tile tenants and scattered tiles in both slot-grid rows; key 0
// is switched on ingest from a foreign BGV domain, so it enters at a higher
// bound. Last, one key a level below the rest, which no serving path
// produces: the fused merge switches every key to the lowest key level
// before masking, while the reference masks first and switches the partial
// sums, so only that case may differ in bits — every tile must still carry
// its owner's PASTA key, and the tracked bound stay sound.
TEST(TenantKeyMergeDifferential, FusedMergeMatchesMaskThenPairwiseSum) {
  const hhe::HheConfig config = hhe::HheConfig::batched_test();
  const std::size_t s = config.pasta.state_size();
  const std::size_t capacity = config.bgv.n / s;
  const std::size_t per_row = capacity / 2;
  struct Case {
    std::string name;
    std::vector<std::vector<std::size_t>> tiles;  ///< per tenant
  };
  std::vector<Case> cases;
  cases.push_back({"one tenant", {{3}}});
  cases.push_back({"64 one-tile tenants", {}});
  for (std::size_t m = 0; m < capacity; ++m) cases.back().tiles.push_back({m});
  cases.push_back({"ragged 1/3/7/20/33", {}});
  std::size_t next = 0;
  for (const std::size_t count : {1, 3, 7, 20, 33}) {
    auto& owned = cases.back().tiles.emplace_back();
    for (std::size_t k = 0; k < count; ++k) owned.push_back(next++);
  }
  ASSERT_EQ(next, capacity);
  cases.push_back({"scattered over both rows",
                   {{0, per_row + 5, capacity - 1},
                    {per_row - 1, per_row},
                    {7, 9, per_row + 7, per_row + 9},
                    {12}}});

  for (const kernels::Backend* backend : kernels::available_backends()) {
    SCOPED_TRACE(backend->name());
    ExecContext exec(backend);
    const fhe::Bgv bgv(config.bgv, &exec);
    fhe::BgvParams foreign_params = config.bgv;
    foreign_params.seed = config.bgv.seed + 17;
    const fhe::Bgv foreign(foreign_params, &exec);
    const fhe::BatchEncoder encoder(config.bgv.n, config.bgv.t);
    const fhe::SlotLayout layout(config.bgv.n, config.bgv.t);
    // The merge rotates nothing, so the engine needs no rotation keys.
    const hhe::SimdBatchEngine engine(
        config, bgv, std::make_shared<const fhe::GaloisKeys>());

    Xoshiro256 rng(909090);
    std::vector<std::vector<u64>> pasta_keys(capacity);
    std::vector<fhe::Ciphertext> keys;
    for (std::size_t j = 0; j < capacity; ++j) {
      pasta_keys[j] = pasta::PastaCipher::random_key(config.pasta, rng);
      keys.push_back(j == 0 ? bgv.ingest_switch(
                                  hhe::encrypt_key_batched(config, foreign,
                                                           encoder, layout,
                                                           pasta_keys[j]),
                                  bgv.make_ingest_key(foreign))
                            : hhe::encrypt_key_batched(config, bgv, encoder,
                                                       layout, pasta_keys[j]));
    }
    const auto tenants_of = [&](const Case& c) {
      std::vector<hhe::TenantTiles> tenants;
      for (std::size_t j = 0; j < c.tiles.size(); ++j) {
        tenants.push_back({&keys[j], c.tiles[j]});
      }
      return tenants;
    };

    for (const Case& c : cases) {
      SCOPED_TRACE(c.name);
      const auto tenants = tenants_of(c);
      fhe::NoiseTape ref_tape, fused_tape;
      CounterSnapshot before = exec.snapshot();
      bgv.begin_recording(&ref_tape);
      const fhe::Ciphertext ref = reference_merge(config, bgv, tenants);
      bgv.end_recording();
      const CounterSnapshot ref_ops = exec.snapshot() - before;
      before = exec.snapshot();
      bgv.begin_recording(&fused_tape);
      const fhe::Ciphertext fused = engine.merge_tenant_keys(tenants);
      bgv.end_recording();
      const CounterSnapshot fused_ops = exec.snapshot() - before;

      EXPECT_TRUE(ciphertext_bits_equal(fused, ref));
      EXPECT_EQ(fused.noise_bits, ref.noise_bits);
      EXPECT_EQ(fused.trace_id, ref.trace_id);
      EXPECT_TRUE(tapes_equal(fused_tape.nodes(), ref_tape.nodes()));
      EXPECT_EQ(fused_ops.ntt_forward, ref_ops.ntt_forward);
      EXPECT_LT(fused_ops.bytes_copied, ref_ops.bytes_copied);
    }

    // One key a level below the rest.
    SCOPED_TRACE("key 2 one level down");
    auto tenants = tenants_of(cases[2]);
    fhe::Ciphertext lowered = keys[2];
    bgv.mod_switch_inplace(lowered);
    tenants[2].key_ct = &lowered;
    const fhe::Ciphertext fused = engine.merge_tenant_keys(tenants);
    ASSERT_EQ(fused.level, bgv.top_level() - 1);
    EXPECT_LE(bgv.predicted_budget_bits(fused), bgv.noise_budget_bits(fused));
    const auto grid = layout.from_slots(encoder.decode(bgv.decrypt(fused)));
    for (std::size_t j = 0; j < tenants.size(); ++j) {
      for (const std::size_t tile : tenants[j].tiles) {
        const std::vector<u64> got(
            grid.begin() + static_cast<long>(tile * s),
            grid.begin() + static_cast<long>((tile + 1) * s));
        EXPECT_EQ(got, pasta_keys[j]) << "tenant " << j << " tile " << tile;
      }
    }
  }
}


// ------------------------------------------------ plaintext products

namespace {
// Bgv::diagonal_sum as a composition of public single-term calls: every
// live step's rotation from one hoisted decomposition (k = 0 is ct itself,
// unrotated), multiplied by its weight with mul_plain_inplace and summed
// with add_inplace. Empty weights are skipped; no live weight, no parts.
// Each rotation is rounded by its own mod-down, so this is the noise
// reference for the double-hoisted op, not a bit-for-bit one.
fhe::Ciphertext reference_diagonal_sum(
    const fhe::Bgv& bgv, const fhe::Ciphertext& ct,
    const std::vector<fhe::Plaintext>& weights, const fhe::GaloisKeys& keys) {
  const fhe::HoistedCt hoisted = bgv.hoist(ct);
  fhe::Ciphertext sum;
  for (std::size_t k = 0; k < weights.size(); ++k) {
    if (weights[k].coeffs.empty()) continue;
    fhe::Ciphertext term = ct;
    if (k != 0) {
      bgv.rotate_hoisted_into(hoisted, static_cast<long>(k), keys, term);
    }
    bgv.mul_plain_inplace(term, weights[k]);
    if (sum.size() == 0) {
      sum = std::move(term);
    } else {
      bgv.add_inplace(sum, term);
    }
  }
  return sum;
}
}  // namespace

// The diagonal method's one Bgv op, double-hoisted, on every kernel
// backend: the affine layers' state widths (batched_test's 16 slots and
// batched_demo's 64, every step a hoisted rotation) at levels 10, 6 and 2.
// Four outputs per call: one including k = 0 and one without it (the
// in-tile and wrap shapes), both with skipped entries; one whose only term
// is k = 0; and one with no live weight, which is left empty. The outputs
// are reused across levels. Each call must decrypt to the plaintext slot
// formula sum_k w_k * rot_k(m) and give the bits of fresh outputs and of
// the scalar backend. Its single rounding by P moves the bits away from
// rotating, multiplying and adding, so that composition is the noise
// reference instead: the measured budget stays within a bit of it and at
// or above the tracked bound of NoiseEstimator::fused_affine. The k =
// 0-only output has nothing to round (delta = 0) and keeps the bits of
// mul_plain_inplace. Last, a call whose only term is k = 0 runs no
// rotation, so it needs no keys.
TEST(PlainProductDifferential, DiagonalSumMatchesSlotFormulaOnEveryBackend) {
  for (const hhe::HheConfig& config :
       {hhe::HheConfig::batched_test(), hhe::HheConfig::batched_demo()}) {
    const std::size_t s = config.pasta.state_size();
    SCOPED_TRACE(std::to_string(s) + "-slot state");
    const u64 t = config.bgv.t;
    const auto live = [&](std::size_t v, std::size_t k) {
      if (v == 2) return k == 0;
      if (v == 3) return false;
      if (s == 16) {
        return v == 0 ? k != 3 && k != 9 : k != 0 && k != 4 && k != 11;
      }
      return k % 3 == v;
    };
    constexpr std::size_t kOutputs = 4;
    const std::size_t kLevels[] = {10, 6, 2};
    const fhe::BatchEncoder encoder(config.bgv.n, t);
    const fhe::SlotLayout layout(config.bgv.n, t);
    Xoshiro256 rng(515151 + s);
    std::vector<std::vector<u64>> logical_w[kOutputs];
    std::vector<fhe::Plaintext> weights[kOutputs];
    std::vector<long> steps;
    for (std::size_t v = 0; v < kOutputs; ++v) {
      logical_w[v].resize(s);
      weights[v].resize(s);
      for (std::size_t k = 0; k < s; ++k) {
        if (!live(v, k)) continue;
        logical_w[v][k] = random_msg(rng, t, config.bgv.n);
        weights[v][k] = encoder.encode(layout.to_slots(logical_w[v][k]));
        if (k != 0) steps.push_back(static_cast<long>(k));
      }
    }
    const auto logical_m = random_msg(rng, t, config.bgv.n);

    // The scalar backend's output words (available_backends() lists it
    // first), per level and output: plain words, since a ciphertext must not
    // outlive the context its slabs return to.
    const auto words = [](const fhe::Ciphertext& c) {
      std::vector<u64> w{c.level};
      for (const auto& part : c.parts) {
        for (std::size_t i = 0; i < c.level; ++i) {
          w.insert(w.end(), part.rns(i).begin(), part.rns(i).end());
        }
      }
      return w;
    };
    std::vector<std::vector<u64>> scalar_words;
    for (const kernels::Backend* backend : kernels::available_backends()) {
      SCOPED_TRACE(backend->name());
      ExecContext exec(backend);
      const fhe::Bgv bgv(config.bgv, &exec);
      const fhe::GaloisKeys keys = bgv.make_rotation_keys(steps);
      const fhe::Ciphertext fresh_ct =
          bgv.encrypt(encoder.encode(layout.to_slots(logical_m)));
      fhe::Ciphertext reused[kOutputs];
      for (std::size_t l = 0; l < std::size(kLevels); ++l) {
        const std::size_t level = kLevels[l];
        SCOPED_TRACE("level " + std::to_string(level));
        fhe::Ciphertext ct = fresh_ct;
        bgv.mod_switch_to(ct, level);
        fhe::Ciphertext fresh[kOutputs];
        bgv.diagonal_sum(ct, weights, keys, reused);
        bgv.diagonal_sum(ct, weights, keys, fresh);
        for (std::size_t v = 0; v < kOutputs; ++v) {
          SCOPED_TRACE("output " + std::to_string(v));
          EXPECT_TRUE(ciphertext_bits_equal(reused[v], fresh[v]));
          if (backend == &kernels::scalar_backend()) {
            scalar_words.push_back(words(reused[v]));
          } else {
            EXPECT_TRUE(words(reused[v]) == scalar_words[l * kOutputs + v]);
          }
          if (v == 3) {
            EXPECT_EQ(reused[v].size(), 0u);
            continue;
          }
          if (v == 2) {
            fhe::Ciphertext want = ct;
            bgv.mul_plain_inplace(want, weights[v][0]);
            EXPECT_TRUE(ciphertext_bits_equal(reused[v], want));
          }
          std::size_t terms = 0;
          std::vector<u64> want(config.bgv.n, 0);
          for (std::size_t k = 0; k < s; ++k) {
            if (!live(v, k)) continue;
            ++terms;
            const auto rotated =
                layout.rotate_columns(logical_m, static_cast<long>(k));
            for (std::size_t i = 0; i < want.size(); ++i) {
              want[i] = (want[i] + logical_w[v][k][i] * rotated[i]) % t;
            }
          }
          EXPECT_EQ(reused[v].noise_bits,
                    bgv.estimator().fused_affine(ct.noise_bits, level, terms));
          EXPECT_EQ(layout.from_slots(encoder.decode(bgv.decrypt(reused[v]))),
                    want);
          const double measured = bgv.noise_budget_bits(reused[v]);
          EXPECT_GE(measured, bgv.predicted_budget_bits(reused[v]));
          const fhe::Ciphertext ref =
              reference_diagonal_sum(bgv, ct, weights[v], keys);
          EXPECT_GE(measured, bgv.noise_budget_bits(ref) - 1.0);
        }
      }
      // Only k = 0: a plaintext product of ct itself, no rotation keys.
      fhe::Ciphertext only_k0;
      bgv.diagonal_sum(fresh_ct, std::span(&weights[2], 1), fhe::GaloisKeys{},
                       std::span(&only_k0, 1));
      fhe::Ciphertext want = fresh_ct;
      bgv.mul_plain_inplace(want, weights[2][0]);
      EXPECT_TRUE(ciphertext_bits_equal(only_k0, want));
    }
  }
}

// The NTT-form weight overload (the Feistel mask's) against the plaintext
// one and against multiplying each part by the lifted, transformed weight
// with RnsPoly::mul_inplace: the same bits and tracked bound on every
// backend, at the top level and two levels down.
TEST(PlainProductDifferential, NttWeightMatchesPlaintextWeight) {
  const hhe::HheConfig config = hhe::HheConfig::batched_test();
  const fhe::BatchEncoder encoder(config.bgv.n, config.bgv.t);
  Xoshiro256 rng(616161);
  const fhe::Plaintext weight =
      encoder.encode(random_msg(rng, config.bgv.t, config.bgv.n));
  const fhe::Plaintext msg =
      encoder.encode(random_msg(rng, config.bgv.t, config.bgv.n));
  for (const kernels::Backend* backend : kernels::available_backends()) {
    SCOPED_TRACE(backend->name());
    ExecContext exec(backend);
    const fhe::Bgv bgv(config.bgv, &exec);
    const fhe::RnsPoly weight_ntt = bgv.ntt_weight(weight);
    fhe::Ciphertext ct = bgv.encrypt(msg);
    for (int drop = 0; drop < 2; ++drop) {
      if (drop == 1) bgv.mod_switch_to(ct, ct.level - 2);
      fhe::Ciphertext by_plain = ct;
      fhe::Ciphertext by_ntt = ct;
      fhe::Ciphertext by_parts = ct;
      bgv.mul_plain_inplace(by_plain, weight);
      bgv.mul_plain_inplace(by_ntt, weight_ntt);
      for (auto& part : by_parts.parts) part.mul_inplace(weight_ntt);
      EXPECT_TRUE(ciphertext_bits_equal(by_ntt, by_plain)) << "drop " << drop;
      EXPECT_TRUE(ciphertext_bits_equal(by_parts, by_plain)) << "drop " << drop;
      EXPECT_EQ(by_ntt.noise_bits, by_plain.noise_bits);
      EXPECT_EQ(by_plain.noise_bits,
                bgv.estimator().mul_plain(ct.noise_bits));
    }
  }
}

}  // namespace
}  // namespace poe
