// Noise-aware parameter right-sizing tool (profile -> replay -> search).
//
// Records each transcipher circuit under its checked-in config, searches
// the smallest BgvParams whose replayed output budget clears the safety
// band under the security table, and validates the result LIVE: the
// searched config must decrypt correctly through the real server — the
// coefficient-wise HheServer, or SimdBatchEngine at full capacity — with
// its measured budget inside the band and its live tracked bound at or
// above the band floor, as the replay promised.
//
// The chosen parameters are pasted into HheConfig::{test,demo,batched_*}
// (src/hhe/protocol.cpp); the param_search fixed-point test re-derives
// them so they cannot drift from this tool or the security table.
//
// Default: the PASTA-mini test profiles. POE_FULL_HHE=1 adds the full
// PASTA-4 demo profiles (minutes).
#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <vector>

#include "common/table.hpp"
#include "fhe/encoding.hpp"
#include "fhe/param_search.hpp"
#include "hhe/batched_server.hpp"
#include "hhe/profile.hpp"
#include "hhe/protocol.hpp"
#include "hhe/simd_batch.hpp"

namespace {
using namespace poe;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point begin) {
  return std::chrono::duration<double>(Clock::now() - begin).count();
}

// One live run of a searched config: its time and the worst budget over
// the ciphertexts that leave the server, measured with the secret key and
// predicted from the tracked bound.
struct LiveRun {
  double seconds = 0;  ///< one block (coefficient) or one full batch (SIMD)
  double measured_budget = 1e9;
  double predicted_budget = 1e9;
  std::size_t level = 0;
  bool decrypt_ok = false;

  void add_output(const fhe::Bgv& bgv, const fhe::Ciphertext& ct) {
    measured_budget = std::min(measured_budget, bgv.noise_budget_bits(ct));
    predicted_budget =
        std::min(predicted_budget, bgv.predicted_budget_bits(ct));
    level = ct.level;
  }
};

struct CaseResult {
  std::string name;
  fhe::SearchResult search;
  LiveRun live;
  bool in_band = false;
  bool matches_checked_in = false;
};

std::string params_literal(const fhe::BgvParams& p) {
  std::ostringstream os;
  os << "{n=" << p.n << ", num_primes=" << p.num_primes << ", prime_bits="
     << p.prime_bits << ", relin_digit_bits=" << p.relin_digit_bits
     << "} (" << p.special_primes() << " special primes)";
  return os.str();
}

bool same_params(const fhe::BgvParams& a, const fhe::BgvParams& b) {
  return a.n == b.n && a.t == b.t && a.num_primes == b.num_primes &&
         a.prime_bits == b.prime_bits &&
         a.relin_digit_bits == b.relin_digit_bits;
}

// Run one coefficient-wise transcipher block under `cfg`.
LiveRun run_coefficient(const hhe::HheConfig& cfg) {
  fhe::Bgv bgv(cfg.bgv);
  Xoshiro256 rng(3);
  const auto key = pasta::PastaCipher::random_key(cfg.pasta, rng);
  hhe::HheClient client(cfg, bgv, key);
  hhe::HheServer server(cfg, bgv, client.encrypt_key());
  std::vector<std::uint64_t> msg(cfg.pasta.t);
  for (auto& m : msg) m = rng.below(cfg.pasta.p);
  const auto sym = client.encrypt(msg, /*nonce=*/5);
  LiveRun run;
  const auto t0 = Clock::now();
  const auto out = server.transcipher_block(sym, /*nonce=*/5, 0);
  run.seconds = seconds_since(t0);
  for (const auto& ct : out) run.add_output(bgv, ct);
  run.decrypt_ok = client.decrypt_result(out) == msg;
  return run;
}

// Run one full-capacity SIMD batch (one tenant owning every tile) under
// `cfg`, warmed up, on its extracted deliverable.
LiveRun run_batched(const hhe::HheConfig& cfg) {
  fhe::Bgv bgv(cfg.bgv);
  Xoshiro256 rng(3);
  const auto key = pasta::PastaCipher::random_key(cfg.pasta, rng);
  hhe::HheClient client(cfg, bgv, key);
  fhe::BatchEncoder encoder(cfg.bgv.n, cfg.bgv.t);
  fhe::SlotLayout layout(cfg.bgv.n, cfg.bgv.t);
  const hhe::SimdBatchEngine engine(cfg, bgv);
  const fhe::Ciphertext key_ct =
      hhe::encrypt_key_batched(cfg, bgv, encoder, layout, key);

  const std::size_t tiles = engine.capacity();
  std::vector<std::uint64_t> msg(tiles * cfg.pasta.t);
  for (auto& m : msg) m = rng.below(cfg.pasta.p);
  const auto sym = client.encrypt(msg, /*nonce=*/5);
  std::vector<hhe::SimdBlockRequest> reqs(tiles);
  std::vector<std::size_t> all(tiles);
  for (std::size_t m = 0; m < tiles; ++m) {
    all[m] = m;
    reqs[m].nonce = 5;
    reqs[m].counter = m;
    reqs[m].symmetric_ct.assign(
        sym.begin() + static_cast<long>(m * cfg.pasta.t),
        sym.begin() + static_cast<long>((m + 1) * cfg.pasta.t));
  }
  const std::vector<hhe::TenantTiles> tenants{{&key_ct, all}};
  auto serve = [&] {
    return engine.extract_tiles(
        engine.evaluate(engine.merge_tenant_keys(tenants),
                        engine.prepare(reqs)),
        all);
  };
  serve();  // warm-up
  LiveRun run;
  const auto t0 = Clock::now();
  const fhe::Ciphertext out = serve();
  run.seconds = seconds_since(t0);
  run.add_output(bgv, out);
  run.decrypt_ok = true;
  for (std::size_t m = 0; m < tiles; ++m) {
    const auto got =
        hhe::SimdBatchEngine::decode_block(cfg, bgv, out, m, cfg.pasta.t);
    run.decrypt_ok &=
        std::equal(got.begin(), got.end(),
                   msg.begin() + static_cast<long>(m * cfg.pasta.t));
  }
  return run;
}

CaseResult run_case(const std::string& name, const hhe::HheConfig& checked_in,
                    bool batched) {
  CaseResult r;
  r.name = name;
  std::cout << "\n=== " << name << " ===\n";

  auto t0 = Clock::now();
  const fhe::CircuitProfile profile =
      batched ? hhe::record_batched_profile(checked_in)
              : hhe::record_coefficient_profile(checked_in);
  std::cout << "profile: " << profile.tape.size() << " tape nodes, "
            << profile.outputs.size() << " outputs, recorded in "
            << fixed(seconds_since(t0), 2) << " s under checked-in "
            << params_literal(checked_in.bgv) << "\n";

  fhe::SearchConstraints c;
  c.t = checked_in.bgv.t;
  c.seed = checked_in.bgv.seed;
  t0 = Clock::now();
  r.search = fhe::search_params(profile, c);
  POE_ENSURE(r.search.found, "search found no feasible parameters");
  r.matches_checked_in = same_params(r.search.params, checked_in.bgv);
  std::cout << "search: " << r.search.candidates_tried << " candidates in "
            << fixed(seconds_since(t0), 2) << " s\n"
            << "chosen: " << params_literal(r.search.params) << " — log2(PQ) "
            << fixed(r.search.log_q, 0) << " (cap "
            << fixed(r.search.security_cap, 0) << "), "
            << r.search.sim.mod_switches << " scheduled switches, predicted "
            << "output budget " << fixed(r.search.sim.min_output_budget, 1)
            << " bits (band_low " << fixed(c.band_low, 0) << ")\n"
            << (r.matches_checked_in
                    ? "checked-in config matches the search output\n"
                    : "NOTE: checked-in config differs — paste the params "
                      "above into protocol.cpp\n");

  // Live validation of the searched parameters.
  hhe::HheConfig searched = checked_in;
  searched.bgv = r.search.params;
  searched.bgv.t = checked_in.bgv.t;
  r.live = batched ? run_batched(searched) : run_coefficient(searched);
  // The live tracked bound must clear band_low as the replay's did: a live
  // schedule that diverged from the replayed one shows up here first.
  r.in_band = r.live.measured_budget >= c.band_low &&
              r.live.measured_budget <= c.band_high &&
              r.live.predicted_budget >= c.band_low;
  std::cout << "live: " << fixed(r.live.seconds, 3) << " s per "
            << (batched ? "full batch" : "block") << ", measured budget "
            << fixed(r.live.measured_budget, 1) << " bits at level "
            << r.live.level << " (predicted "
            << fixed(r.live.predicted_budget, 1) << ", band ["
            << fixed(c.band_low, 0) << ", " << fixed(c.band_high, 0) << "] "
            << (r.in_band ? "OK" : "OUT OF BAND") << "), decrypt "
            << (r.live.decrypt_ok ? "OK" : "MISMATCH") << "\n";
  return r;
}

}  // namespace

int main() {
  const bool full = std::getenv("POE_FULL_HHE") != nullptr;
  std::cout << "=== Circuit-profile parameter search (noise right-sizing) "
            << "===\n";
  if (!full) {
    std::cout << "(test profiles only; POE_FULL_HHE=1 adds full PASTA-4)\n";
  }

  std::vector<CaseResult> results;
  results.push_back(run_case("coefficient/test", hhe::HheConfig::test(),
                             /*batched=*/false));
  results.push_back(run_case("batched/test", hhe::HheConfig::batched_test(),
                             /*batched=*/true));
  if (full) {
    results.push_back(run_case("coefficient/demo", hhe::HheConfig::demo(),
                               /*batched=*/false));
    results.push_back(run_case("batched/demo",
                               hhe::HheConfig::batched_demo(),
                               /*batched=*/true));
  }

  bool ok = true;
  {
    std::ofstream json("BENCH_param_search.json");
    json << "{\n  \"benchmarks\": [\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
      const CaseResult& r = results[i];
      const fhe::BgvParams& p = r.search.params;
      json << "    {\"name\": \"" << r.name << "\", \"n\": " << p.n
           << ", \"num_primes\": " << p.num_primes
           << ", \"prime_bits\": " << p.prime_bits
           << ", \"relin_digit_bits\": " << p.relin_digit_bits
           << ", \"special_primes\": " << p.special_primes()
           << ", \"log_pq\": " << fixed(r.search.log_q, 0)
           << ", \"security_cap\": " << fixed(r.search.security_cap, 0)
           << ", \"mod_switches\": " << r.search.sim.mod_switches
           << ", \"predicted_budget_bits\": "
           << fixed(r.live.predicted_budget, 1)
           << ", \"noise_budget_bits\": " << fixed(r.live.measured_budget, 1)
           << ", \"live_s\": " << fixed(r.live.seconds, 4)
           << ", \"matches_checked_in\": "
           << (r.matches_checked_in ? "true" : "false")
           << ", \"decrypt_ok\": " << (r.live.decrypt_ok ? "true" : "false")
           << "}" << (i + 1 < results.size() ? "," : "") << "\n";
      ok = ok && r.live.decrypt_ok && r.in_band && r.matches_checked_in;
    }
    json << "  ]\n}\n";
    std::cout << "\n(wrote BENCH_param_search.json)\n";
  }
  return ok ? 0 : 1;
}
