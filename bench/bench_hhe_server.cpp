// End-to-end HHE benchmark (the workflow of Fig. 1): client PASTA-encrypts,
// server homomorphically decrypts under BGV, client verifies.
//
// Default: the reduced PASTA-mini instance (t = 8, identical circuit
// structure) so the whole suite stays fast. Set POE_FULL_HHE=1 to run the
// full PASTA-4 transciphering (t = 32; takes on the order of a minute).
#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "common/table.hpp"
#include "core/poe.hpp"
#include "hhe/batched_server.hpp"
#include "hhe/protocol.hpp"
#include "hhe/simd_batch.hpp"

namespace {
using namespace poe;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point begin) {
  return std::chrono::duration<double>(Clock::now() - begin).count();
}

std::string counter_line(const CounterSnapshot& ops) {
  std::ostringstream os;
  os << ops.ntts() << " NTTs, " << ops.key_switch << " key switches ("
     << ops.hoisted_rotations << " hoisted rotations, " << ops.automorphisms
     << " automorphisms), " << ops.mod_switch
     << " mod switches, pool hit rate "
     << fixed(100.0 * ops.pool_hit_rate(), 1) << "% (" << ops.pool_misses
     << " fresh allocations, " << ops.bytes_copied << " bytes copied), "
     << ops.key_bytes_read << " key bytes read";
  return os.str();
}

// What one timed transcipher leaves for its record: the ExecContext counter
// delta over the call, and the worst budget over the ciphertexts that leave
// the server — measured with the secret key and predicted from the tracked
// bound.
struct Served {
  CounterSnapshot ops;
  double noise_budget_bits = 1e9;
  double predicted_budget_bits = 1e9;
  std::size_t level = 0;

  void add_output(const fhe::Bgv& bgv, const fhe::Ciphertext& ct) {
    noise_budget_bits = std::min(noise_budget_bits, bgv.noise_budget_bits(ct));
    predicted_budget_bits =
        std::min(predicted_budget_bits, bgv.predicted_budget_bits(ct));
    level = ct.level;
  }
};

// One benchmark record for BENCH_hhe.json. Carries the BgvParams the run
// used plus the predicted-vs-measured budget slack, so the CI budget check
// (scripts/check_budgets.py) can pin both the noise safety band and the
// soundness invariant predicted <= measured.
std::string json_record(const char* name, double seconds,
                        const fhe::BgvParams& params, const Served& served) {
  const CounterSnapshot& ops = served.ops;
  std::ostringstream os;
  os << "    {\"name\": \"" << name << "\", \"ns_per_op\": "
     << static_cast<std::uint64_t>(seconds * 1e9)
     << ", \"ct_ct_mults\": " << ops.ct_ct_mul
     << ", \"ntt_forward\": " << ops.ntt_forward
     << ", \"ntt_inverse\": " << ops.ntt_inverse
     << ", \"key_switches\": " << ops.key_switch
     << ", \"automorphisms\": " << ops.automorphisms
     << ", \"hoisted_rotations\": " << ops.hoisted_rotations
     << ", \"mod_switches\": " << ops.mod_switch
     << ", \"pool_hits\": " << ops.pool_hits
     << ", \"pool_misses\": " << ops.pool_misses
     << ", \"pool_hit_rate\": " << fixed(ops.pool_hit_rate(), 4)
     << ", \"bytes_copied\": " << ops.bytes_copied
     << ", \"key_bytes_read\": " << ops.key_bytes_read
     << ", \"n\": " << params.n
     << ", \"num_primes\": " << params.num_primes
     << ", \"prime_bits\": " << params.prime_bits
     << ", \"relin_digit_bits\": " << params.relin_digit_bits
     << ", \"special_primes\": " << params.special_primes()
     << ", \"noise_budget_bits\": " << fixed(served.noise_budget_bits, 1)
     << ", \"predicted_budget_bits\": "
     << fixed(served.predicted_budget_bits, 1)
     << ", \"budget_slack_bits\": "
     << fixed(served.noise_budget_bits - served.predicted_budget_bits, 1)
     << "}";
  return os.str();
}
}  // namespace

int main() {
  const bool full = std::getenv("POE_FULL_HHE") != nullptr;
  const auto config = full ? hhe::HheConfig::demo() : hhe::HheConfig::test();
  std::cout << "=== HHE transciphering (Fig. 1 workflow) — "
            << config.pasta.name << ", BGV n=" << config.bgv.n << ", "
            << config.bgv.num_primes << "x" << config.bgv.prime_bits
            << "-bit primes ===\n";
  if (!full) {
    std::cout << "(reduced instance; POE_FULL_HHE=1 runs full PASTA-4)\n";
  }

  auto t0 = Clock::now();
  fhe::Bgv bgv(config.bgv);
  std::cout << "BGV keygen: " << fixed(seconds_since(t0), 2) << " s\n";

  Xoshiro256 rng(1);
  const auto key = pasta::PastaCipher::random_key(config.pasta, rng);
  hhe::HheClient client(config, bgv, key);

  t0 = Clock::now();
  auto key_cts = client.encrypt_key();
  const double key_enc_s = seconds_since(t0);
  hhe::HheServer server(config, bgv, std::move(key_cts));

  std::vector<std::uint64_t> msg(config.pasta.t);
  for (auto& m : msg) m = rng.below(config.pasta.p);
  const std::uint64_t nonce = 0xABCDEF;

  t0 = Clock::now();
  const auto sym_ct = client.encrypt(msg, nonce);
  const double sym_enc_s = seconds_since(t0);

  Served coeff;
  const CounterSnapshot coeff_before = bgv.rns().exec().snapshot();
  t0 = Clock::now();
  const auto fhe_cts = server.transcipher_block(sym_ct, nonce, 0);
  const double transcipher_s = seconds_since(t0);
  coeff.ops = bgv.rns().exec().snapshot() - coeff_before;
  for (const auto& ct : fhe_cts) coeff.add_output(bgv, ct);

  const auto recovered = client.decrypt_result(fhe_cts);
  const bool ok = recovered == msg;

  TextTable t;
  t.header({"Step", "Where", "Result"});
  t.row({"FHE-encrypt PASTA key (once)", "client",
         fixed(key_enc_s, 3) + " s, " +
             std::to_string(config.pasta.key_size()) + " cts"});
  t.row({"PASTA-encrypt one block", "client",
         fixed(sym_enc_s * 1e6, 0) + " us, " +
             std::to_string(pasta::ciphertext_bytes(config.pasta,
                                                    sym_ct.size())) +
             " B on the wire"});
  t.row({"Homomorphic PASTA decryption", "server",
         fixed(transcipher_s, 2) + " s, " +
             std::to_string(coeff.ops.ct_ct_mul) + " ct-ct mults"});
  t.row({"Noise budget of the server output", "server",
         fixed(coeff.noise_budget_bits, 1) + " bits at level " +
             std::to_string(coeff.level)});
  t.row({"Client decrypts server output", "client",
         ok ? "matches the original message" : "MISMATCH"});
  t.print(std::cout);
  std::cout << "exec counters: " << counter_line(coeff.ops) << "\n";

  // --- Batched (SIMD) engine, one block: the engine's one-tile serving
  // shape, which is what the service runs for a lone one-block request.
  Served one_tile;
  double bs = 0;
  const auto bcfg =
      full ? hhe::HheConfig::batched_demo() : hhe::HheConfig::batched_test();
  {
    std::cout << "\n=== Batched (SIMD) engine, one tile — hoisted diagonal "
                 "evaluation ===\n";
    t0 = Clock::now();
    fhe::Bgv bbgv(bcfg.bgv);
    fhe::BatchEncoder encoder(bcfg.bgv.n, bcfg.bgv.t);
    fhe::SlotLayout layout(bcfg.bgv.n, bcfg.bgv.t);
    hhe::HheClient bclient(bcfg, bbgv, key);
    const hhe::SimdBatchEngine engine(bcfg, bbgv);
    const fhe::Ciphertext bkey =
        hhe::encrypt_key_batched(bcfg, bbgv, encoder, layout, key);
    std::cout << "keygen + rotation keys: " << fixed(seconds_since(t0), 2)
              << " s\n";

    const std::vector<std::size_t> tile0{0};
    const std::vector<hhe::TenantTiles> tenants{{&bkey, tile0}};
    // Plaintext-side preparation runs ahead, as on the service's prepare
    // thread; the record covers the BGV work of the serving shape.
    const hhe::PreparedSimdBatch prepared = engine.prepare(
        std::vector<hhe::SimdBlockRequest>{{.nonce = nonce,
                                            .counter = 0,
                                            .symmetric_ct =
                                                bclient.encrypt(msg, nonce)}});
    auto serve = [&] {
      return engine.extract_tiles(
          engine.evaluate(engine.merge_tenant_keys(tenants), prepared), tile0);
    };
    // Warm-up block first: the measured record then reflects the
    // steady-state serving loop (zero pool misses once every slab size
    // class is cached — scripts/check_budgets.py pins this).
    serve();
    // The record covers merge, evaluate and extract, and the trimmed
    // deliverable the client receives.
    const CounterSnapshot before = bbgv.rns().exec().snapshot();
    t0 = Clock::now();
    const fhe::Ciphertext bout = serve();
    bs = seconds_since(t0);
    one_tile.ops = bbgv.rns().exec().snapshot() - before;
    one_tile.add_output(bbgv, bout);
    const auto bmsg =
        hhe::SimdBatchEngine::decode_block(bcfg, bbgv, bout, 0, msg.size());
    std::cout << "transcipher: " << fixed(bs, 2) << " s with "
              << one_tile.ops.ct_ct_mul << " ct-ct mults (vs "
              << coeff.ops.ct_ct_mul
              << " coefficient-wise) — key upload is 1 ciphertext instead of "
              << config.pasta.key_size() << "; result "
              << (bmsg == msg ? "matches" : "MISMATCH") << ", noise budget "
              << fixed(one_tile.noise_budget_bits, 1) << " bits at level "
              << one_tile.level << "\n";
    std::cout << "exec counters: " << counter_line(one_tile.ops) << "\n";
  }

  // --- Multi-tenant service: the batched circuit amortised over a SIMD
  // batch of blocks, with plaintext-side preparation pipelined against the
  // BGV evaluation (see bench_service for the full client-count sweep).
  {
    const auto scfg =
        full ? hhe::HheConfig::batched_demo() : hhe::HheConfig::batched_test();
    std::cout << "\n=== Transcipher service — SIMD batch of "
              << "one client's blocks ===\n";
    fhe::Bgv sbgv(scfg.bgv);
    fhe::BatchEncoder senc(scfg.bgv.n, scfg.bgv.t);
    fhe::SlotLayout slay(scfg.bgv.n, scfg.bgv.t);
    service::TranscipherService svc(scfg, sbgv);
    svc.open_session(1, hhe::encrypt_key_batched(scfg, sbgv, senc, slay, key));

    const std::size_t nblocks = std::min<std::size_t>(8, svc.batch_capacity());
    pasta::PastaCipher cipher(scfg.pasta, key);
    std::vector<std::uint64_t> smsg(nblocks * scfg.pasta.t);
    Xoshiro256 srng(7);
    for (auto& m : smsg) m = srng.below(scfg.pasta.p);
    service::ServiceReport srep;
    const auto sres = svc.process(
        std::vector{service::TranscipherRequest{
            .client_id = 1,
            .nonce = 99,
            .symmetric_ct = cipher.encrypt(smsg, 99)}},
        &srep);
    std::vector<std::uint64_t> sgot;
    for (const auto& block : sres[0].blocks) {
      const auto vals =
          service::TranscipherService::decode_block(scfg, sbgv, block);
      sgot.insert(sgot.end(), vals.begin(), vals.end());
    }
    std::cout << nblocks << " blocks in " << fixed(srep.total_s, 2) << " s ("
              << fixed(srep.total_s / double(nblocks), 3)
              << " s/block vs " << fixed(bs, 2)
              << " one-tile batched, " << fixed(transcipher_s, 2)
              << " coefficient-wise) — prep overlapped "
              << fixed(srep.prepare_s, 3) << " s behind evaluation; result "
              << (sgot == smsg ? "matches" : "MISMATCH") << "\n";
  }

  // --- PASTA-3 vs PASTA-4 on the SERVER (the flip side of the paper's
  // §IV-C client trade-off: fewer rounds means a cheaper homomorphic
  // decryption per element, which is why the HHE literature prefers
  // PASTA-3 server-side). Batched evaluation, full variants — only with
  // POE_FULL_HHE=1.
  if (full) {
    std::cout << "\n=== Server-side variant trade-off (batched) ===\n";
    for (const int variant : {3, 4}) {
      hhe::HheConfig vcfg = hhe::HheConfig::batched_demo();
      vcfg.pasta = variant == 3 ? pasta::pasta3() : pasta::pasta4();
      vcfg.bgv.n = 2048;  // cols = 1024, multiple of both state sizes
      fhe::Bgv vbgv(vcfg.bgv);
      Xoshiro256 vrng(9);
      const auto vkey = pasta::PastaCipher::random_key(vcfg.pasta, vrng);
      hhe::HheClient vclient(vcfg, vbgv, vkey);
      fhe::BatchEncoder venc(vcfg.bgv.n, vcfg.bgv.t);
      fhe::SlotLayout vlay(vcfg.bgv.n, vcfg.bgv.t);
      const hhe::SimdBatchEngine vengine(vcfg, vbgv);
      const fhe::Ciphertext vkey_ct =
          hhe::encrypt_key_batched(vcfg, vbgv, venc, vlay, vkey);
      std::vector<std::uint64_t> vmsg(vcfg.pasta.t, 123);
      const std::vector<std::size_t> tile0{0};
      const std::vector<hhe::TenantTiles> vtenants{{&vkey_ct, tile0}};
      const std::vector<hhe::SimdBlockRequest> vreqs{
          {.nonce = 1, .counter = 0, .symmetric_ct = vclient.encrypt(vmsg, 1)}};
      const CounterSnapshot vbefore = vbgv.rns().exec().snapshot();
      t0 = Clock::now();
      const fhe::Ciphertext vout = vengine.extract_tiles(
          vengine.evaluate(vengine.merge_tenant_keys(vtenants),
                           vengine.prepare(vreqs)),
          tile0);
      const double vs = seconds_since(t0);
      const CounterSnapshot vops = vbgv.rns().exec().snapshot() - vbefore;
      const auto vgot = hhe::SimdBatchEngine::decode_block(vcfg, vbgv, vout,
                                                           0, vmsg.size());
      std::cout << "  " << vcfg.pasta.name << ": " << fixed(vs, 2) << " s, "
                << vops.ct_ct_mul << " ct-ct mults, "
                << fixed(vs * 1000 / vcfg.pasta.t, 1)
                << " ms per element transciphered, budget "
                << fixed(vbgv.noise_budget_bits(vout), 0) << " bits — "
                << (vgot == vmsg ? "OK" : "MISMATCH") << "\n";
    }
    std::cout << "  (PASTA-3's single extra-wide block amortises the server "
                 "circuit over 4x the elements with one fewer round — the "
                 "inverse of the client-side area trade-off.)\n";
  }

  // Communication comparison: HHE vs sending a fresh BGV ciphertext.
  const std::uint64_t bgv_ct_bytes =
      2ull * config.bgv.num_primes * config.bgv.n * 8;
  const std::uint64_t pasta_bytes =
      pasta::ciphertext_bytes(config.pasta, config.pasta.t);
  std::cout << "Communication per block: PASTA " << pasta_bytes
            << " B vs direct FHE upload " << with_commas(bgv_ct_bytes)
            << " B — " << fixed(static_cast<double>(bgv_ct_bytes) / pasta_bytes, 0)
            << "x expansion avoided (the point of HHE).\n";

  // Machine-readable record for regression tracking across PRs.
  {
    std::ofstream json("BENCH_hhe.json");
    json << "{\n  \"config\": \"" << config.pasta.name << "\",\n"
         << "  \"kernel_backend\": \""
         << ExecContext::global().kernel_backend_name() << "\",\n"
         << "  \"host_cores\": " << std::thread::hardware_concurrency()
         << ",\n"
         << "  \"benchmarks\": [\n"
         << json_record("transcipher_block_coefficient", transcipher_s,
                        config.bgv, coeff)
         << ",\n"
         << json_record("transcipher_block_one_tile", bs, bcfg.bgv, one_tile)
         << "\n"
         << "  ]\n}\n";
    std::cout << "(wrote BENCH_hhe.json)\n";
  }
  return ok ? 0 : 1;
}
