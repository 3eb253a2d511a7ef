#include "hhe/profile.hpp"

#include <algorithm>
#include <utility>

#include "fhe/encoding.hpp"
#include "hhe/batched_server.hpp"
#include "hhe/simd_batch.hpp"

namespace poe::hhe {

namespace {
using u64 = std::uint64_t;

// Deterministic nonzero key material mod p (the tape's structure does not
// depend on the values, only the mul_scalar magnitudes do — fixing them
// keeps the recorded profile, and hence the search result, reproducible).
std::vector<u64> profile_key(const pasta::PastaParams& params) {
  std::vector<u64> key(params.key_size());
  u64 x = 0x9e3779b97f4a7c15ull;
  for (auto& k : key) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    k = 1 + (x >> 11) % (params.p - 1);
  }
  return key;
}

}  // namespace

fhe::CircuitProfile record_coefficient_profile(const HheConfig& config) {
  fhe::Bgv bgv(config.bgv);
  HheClient client(config, bgv, profile_key(config.pasta));

  fhe::NoiseTape tape;
  const CounterSnapshot before = bgv.rns().exec().snapshot();
  bgv.begin_recording(&tape);
  HheServer server(config, bgv, client.encrypt_key());
  const std::vector<u64> sym(config.pasta.t, 1);
  const auto outs = server.transcipher_block(sym, /*nonce=*/0, /*counter=*/0);
  bgv.end_recording();

  fhe::CircuitProfile profile;
  profile.name = "hhe/coefficient/" + config.pasta.name;
  profile.tape = tape.nodes();
  for (const auto& ct : outs) profile.outputs.push_back(ct.trace_id);
  profile.ops = bgv.rns().exec().snapshot() - before;
  return profile;
}

fhe::CircuitProfile record_batched_profile(const HheConfig& config) {
  fhe::Bgv bgv(config.bgv);
  const fhe::BatchEncoder encoder(config.bgv.n, config.bgv.t);
  SimdBatchEngine engine(config, bgv);
  const std::size_t capacity = engine.capacity();
  const std::size_t t = config.pasta.t;

  // The engine's worst serving shape: every tile owned by a different
  // tenant, so the merge sums `capacity` masked keys (its noise grows with
  // log2 of the tenant count). Tenant 0 uploads from its OWN BGV domain and
  // is switched on ingest — the noisiest admissible key ciphertext (fresh +
  // one key switch), so the search provisions for ingest-switched tenants
  // too, not just native ones.
  const auto key = profile_key(config.pasta);
  fhe::BgvParams foreign_params = config.bgv;
  foreign_params.seed = config.bgv.seed + 17;
  const fhe::Bgv foreign_bgv(foreign_params);
  std::vector<std::vector<std::size_t>> owned(capacity);
  for (std::size_t m = 0; m < capacity; ++m) owned[m] = {m};

  fhe::NoiseTape tape;
  const CounterSnapshot before = bgv.rns().exec().snapshot();
  bgv.begin_recording(&tape);

  std::vector<fhe::Ciphertext> key_cts;
  key_cts.reserve(capacity);
  key_cts.push_back(bgv.ingest_switch(
      encrypt_key_batched(config, foreign_bgv, encoder, engine.layout(), key),
      bgv.make_ingest_key(foreign_bgv)));
  for (std::size_t m = 1; m < capacity; ++m) {
    key_cts.push_back(
        encrypt_key_batched(config, bgv, encoder, engine.layout(), key));
  }
  std::vector<TenantTiles> tenants;
  for (std::size_t m = 0; m < capacity; ++m) {
    tenants.push_back({&key_cts[m], owned[m]});
  }
  const fhe::Ciphertext merged = engine.merge_tenant_keys(tenants);

  std::vector<SimdBlockRequest> requests(capacity);
  for (std::size_t m = 0; m < capacity; ++m) {
    requests[m].nonce = 1;
    requests[m].counter = m;
    requests[m].symmetric_ct.assign(t, 1);
  }
  const PreparedSimdBatch batch = engine.prepare(requests);
  const fhe::Ciphertext out = engine.evaluate(merged, batch);

  // Every deliverable is the same extraction of one batch output, so the
  // ingest-switched tenant's and one native tenant's stand for all.
  fhe::CircuitProfile profile;
  for (std::size_t m = 0; m < std::min<std::size_t>(capacity, 2); ++m) {
    profile.outputs.push_back(engine.extract_tiles(out, owned[m]).trace_id);
  }
  bgv.end_recording();
  profile.ops = bgv.rns().exec().snapshot() - before;

  profile.name = "hhe/batched/" + config.pasta.name;
  profile.tape = tape.nodes();
  return profile;
}

}  // namespace poe::hhe
