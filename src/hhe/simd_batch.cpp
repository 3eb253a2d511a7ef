#include "hhe/simd_batch.hpp"

#include <algorithm>
#include <deque>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "modular/modulus.hpp"

namespace poe::hhe {

namespace {
using fhe::Ciphertext;
using u64 = std::uint64_t;

// The engine's one tile geometry. Tile m holds PASTA state element `off` at
// logical position m*s + off of the row-major 2 x cols slot grid (s = 2t).
// s divides cols, so each tile lies inside one row and the tiles fill row 0,
// then row 1. Column rotations never mix the rows, so every tile-local
// identity of the circuit holds in both rows alike.
struct TileGrid {
  std::size_t s;        // PASTA state size 2t
  std::size_t per_row;  // tiles per slot-grid row, cols / s

  explicit TileGrid(const HheConfig& config)
      : s(config.pasta.state_size()), per_row(config.bgv.n / 2 / s) {
    POE_ENSURE(per_row >= 1 && per_row * s == config.bgv.n / 2,
               "ring too small: 2t must divide n/2 (2t=" << s << ", n="
                                                         << config.bgv.n
                                                         << ")");
  }

  std::size_t capacity() const { return 2 * per_row; }
  std::size_t slots() const { return capacity() * s; }
  /// Logical position of state element `off` of tile m.
  std::size_t pos(std::size_t m, std::size_t off) const { return m * s + off; }
  /// Position (row, col) of the wrap accumulator reads its in-row wrap
  /// source (row, (col + s) mod cols), so tile m's wrap parts sit in the
  /// tile before m in its row, cyclically.
  std::size_t wrap_target(std::size_t m) const {
    const std::size_t c = m % per_row;
    return m - c + (c + per_row - 1) % per_row;
  }
};
}  // namespace

std::vector<long> SimdBatchEngine::rotation_steps(const HheConfig& config) {
  const std::size_t s = config.pasta.state_size();
  const std::size_t cols = config.bgv.n / 2;
  std::set<long> steps;
  for (std::size_t k = 1; k < s; ++k) {
    steps.insert(static_cast<long>(k));  // hoisted diagonal rotations
  }
  // Closing rotation of the wrap accumulator: rot_{-s} == rot_{cols - s}.
  const std::size_t wrap = (cols - s) % cols;
  if (wrap != 0) steps.insert(static_cast<long>(wrap));
  steps.insert(static_cast<long>(cols - 1));  // Feistel shift rot_{-1}
  return {steps.begin(), steps.end()};
}

std::shared_ptr<const fhe::GaloisKeys> SimdBatchEngine::make_shared_rotation_keys(
    const HheConfig& config, const fhe::Bgv& bgv) {
  return std::make_shared<const fhe::GaloisKeys>(
      bgv.make_rotation_keys(rotation_steps(config)));
}

SimdBatchEngine::SimdBatchEngine(const HheConfig& config, const fhe::Bgv& bgv)
    : SimdBatchEngine(config, bgv, make_shared_rotation_keys(config, bgv)) {}

SimdBatchEngine::SimdBatchEngine(
    const HheConfig& config, const fhe::Bgv& bgv,
    std::shared_ptr<const fhe::GaloisKeys> shared_keys)
    : config_(config),
      bgv_(bgv),
      encoder_(config.bgv.n, config.bgv.t, &bgv.rns().exec()),
      layout_(config.bgv.n, config.bgv.t),
      capacity_(TileGrid(config).capacity()) {
  POE_ENSURE(shared_keys != nullptr, "rotation keys must be non-null");
  rotation_keys_ = std::move(shared_keys);
}

fhe::Plaintext SimdBatchEngine::encode_grid(
    const std::vector<u64>& logical) const {
  POE_ENSURE(logical.size() == 2 * layout_.cols(),
             "logical grid has wrong size");
  return encoder_.encode(layout_.to_slots(logical));
}

PreparedSimdBatch SimdBatchEngine::prepare(
    std::span<const SimdBlockRequest> requests) const {
  const auto& params = config_.pasta;
  const TileGrid grid(config_);
  const std::size_t t = params.t;
  const std::size_t s = grid.s;
  const std::size_t layers = params.rounds + 1;
  const std::size_t blocks = requests.size();
  POE_ENSURE(blocks >= 1 && blocks <= capacity_,
             "batch must have 1.." << capacity_ << " blocks");
  const mod::Modulus pm(params.p);

  PreparedSimdBatch batch;
  batch.blocks = blocks;
  for (const auto& req : requests) {
    POE_ENSURE(!req.symmetric_ct.empty() && req.symmetric_ct.size() <= t,
               "block must have 1.." << t << " elements");
    batch.lens.push_back(req.symmetric_ct.size());
    batch.nonces.push_back(req.nonce);
    batch.counters.push_back(req.counter);
  }

  // Per block and affine layer: the Mix-composed matrix
  //   M = Mix * diag(M_L, M_R)   (top: 2*M_L | M_R, bottom: M_L | 2*M_R)
  // and round constants rc = Mix(rc_l || rc_r), all s x s / s dense.
  std::vector<std::vector<std::vector<u64>>> comp(blocks), crc(blocks);
  for (std::size_t m = 0; m < blocks; ++m) {
    const PreparedBlock pb =
        prepare_block(params, requests[m].nonce, requests[m].counter);
    comp[m].resize(layers);
    crc[m].resize(layers);
    for (std::size_t l = 0; l < layers; ++l) {
      const pasta::Matrix& ml = pb.mat_l[l];
      const pasta::Matrix& mr = pb.mat_r[l];
      const auto& d = pb.rnd.layers[l];
      auto& M = comp[m][l];
      M.assign(s * s, 0);
      for (std::size_t i = 0; i < t; ++i) {
        for (std::size_t j = 0; j < t; ++j) {
          M[i * s + j] = pm.add(ml.at(i, j), ml.at(i, j));
          M[i * s + t + j] = mr.at(i, j);
          M[(t + i) * s + j] = ml.at(i, j);
          M[(t + i) * s + t + j] = pm.add(mr.at(i, j), mr.at(i, j));
        }
      }
      auto& rcv = crc[m][l];
      rcv.resize(s);
      for (std::size_t i = 0; i < t; ++i) {
        rcv[i] = pm.add(pm.add(d.rc_l[i], d.rc_l[i]), d.rc_r[i]);
        rcv[t + i] = pm.add(d.rc_l[i], pm.add(d.rc_r[i], d.rc_r[i]));
      }
    }
  }

  // Mask-folded diagonals. Diagonal k of the tile-local matrix product
  // (D_k = M^{(tile)}(off, (off+k) mod s)) splits into the in-tile part A
  // (off < s-k, read directly off rot_k(state)) and the wrap part B
  // (off >= s-k, logically read via rot_{k-s}); the wrap parts are
  // pre-rotated by +s (stored at grid.wrap_target) so every one of them
  // applies to the SAME hoisted rot_k output and the whole wrap accumulator
  // takes a single closing rotation by cols - s. Only occupied tiles are
  // visited; every other slot stays zero.
  batch.diags.resize(layers);
  batch.rc.resize(layers);
  for (std::size_t l = 0; l < layers; ++l) {
    batch.diags[l].resize(s);
    for (std::size_t k = 0; k < s; ++k) {
      std::vector<u64> ua(grid.slots(), 0), ub(grid.slots(), 0);
      bool any_a = false, any_b = false;
      for (std::size_t m = 0; m < blocks; ++m) {
        const auto& M = comp[m][l];
        for (std::size_t off = 0; off + k < s; ++off) {
          const u64 v = M[off * s + off + k];
          ua[grid.pos(m, off)] = v;
          any_a = any_a || v != 0;
        }
        const std::size_t wrap = grid.wrap_target(m);
        for (std::size_t off = s - k; off < s; ++off) {
          const u64 v = M[off * s + off + k - s];
          ub[grid.pos(wrap, off)] = v;
          any_b = any_b || v != 0;
        }
      }
      auto& pair = batch.diags[l][k];
      if (any_a) pair[0] = encode_grid(ua);
      if (any_b) pair[1] = encode_grid(ub);
    }
    std::vector<u64> rcv(grid.slots(), 0);
    for (std::size_t m = 0; m < blocks; ++m) {
      for (std::size_t off = 0; off < s; ++off) {
        rcv[grid.pos(m, off)] = crc[m][l][off];
      }
    }
    batch.rc[l] = encode_grid(rcv);
  }

  // Feistel mask: kill the tile heads (offsets 0 and t — those state
  // elements take no shifted addend) and every unoccupied tile.
  std::vector<u64> mask(grid.slots(), 0);
  std::vector<u64> msg(grid.slots(), 0);
  for (std::size_t m = 0; m < blocks; ++m) {
    for (std::size_t off = 0; off < s; ++off) {
      if (off != 0 && off != t) mask[grid.pos(m, off)] = 1;
    }
    for (std::size_t off = 0; off < batch.lens[m]; ++off) {
      msg[grid.pos(m, off)] = requests[m].symmetric_ct[off];
    }
  }
  batch.feistel_mask_ntt = fhe::RnsPoly::from_plaintext(
      &bgv_.rns(), bgv_.top_level(), encode_grid(mask).coeffs,
      /*to_ntt_form=*/true);
  batch.message_plain = encode_grid(msg);
  return batch;
}

Ciphertext SimdBatchEngine::evaluate(const Ciphertext& key_ct,
                                     const PreparedSimdBatch& batch) const {
  const auto& params = config_.pasta;
  const std::size_t s = 2 * params.t;
  const std::size_t cols = layout_.cols();
  POE_ENSURE(batch.blocks >= 1 && batch.blocks <= capacity_,
             "batch must have 1.." << capacity_ << " blocks");
  POE_ENSURE(batch.diags.size() == params.rounds + 1,
             "batch was prepared for a different cipher");

  Ciphertext state = key_ct;
  // One output slot per rotation step, reused across layers: the hoisted
  // rotation reshapes these slabs instead of allocating, so after the first
  // layer the whole diagonal loop runs pool-silent. Each accumulator has a
  // diagonal scratch poly whose limb i is the encode buffer of the task
  // that owns limb i.
  std::vector<long> steps;
  std::vector<Ciphertext> rots(s - 1);
  std::vector<const Ciphertext*> source(s);
  fhe::RnsPoly diag_scratch[2];
  const fhe::RnsContext& rns = bgv_.rns();
  const auto& kern = rns.exec().kernels();

  // One Mix-composed affine layer: full diagonal method over a hoisted
  // state. The in-tile parts (accumulator 0) accumulate directly; the wrap
  // parts (accumulator 1, already pre-rotated by +s in prepare())
  // accumulate separately and take ONE closing rotation by cols - s. The
  // layer runs in three fork-joins besides the hoist: every rotation at
  // once (rotate_hoisted_into over all live steps), then one fork over
  // (accumulator, limb) that lifts each live diagonal into the limb, runs
  // its forward NTT and fuses it into the accumulator with add_mul.
  // Zero-seeded accumulators make term 1 a plain multiply, and each limb
  // sees the same products in the same order as encoding every diagonal
  // whole and calling add_mul_inplace after its rotation, so the bits are
  // the same; but the calling thread no longer does the encodes and
  // products alone, and a layer meets the pool's barrier a handful of
  // times instead of twice per rotation.
  auto affine = [&](std::size_t l) {
    const std::size_t level = state.level;
    const auto& diags = batch.diags[l];
    std::size_t terms[2] = {0, 0};
    steps.clear();
    for (std::size_t k = 0; k < s; ++k) {
      const bool live_a = !diags[k][0].coeffs.empty();
      const bool live_b = !diags[k][1].coeffs.empty();
      terms[0] += live_a ? 1 : 0;
      terms[1] += live_b ? 1 : 0;
      source[k] = k == 0 ? &state : nullptr;
      if (k != 0 && (live_a || live_b)) steps.push_back(static_cast<long>(k));
    }
    POE_ENSURE(terms[0] + terms[1] > 0, "affine layer produced no terms");
    if (!steps.empty()) {
      const std::span<Ciphertext> outs(rots.data(), steps.size());
      bgv_.rotate_hoisted_into(bgv_.hoist(state), steps, *rotation_keys_,
                               outs);
      for (std::size_t j = 0; j < steps.size(); ++j) {
        source[static_cast<std::size_t>(steps[j])] = &outs[j];
      }
    }
    Ciphertext inner[2];
    for (std::size_t v = 0; v < 2; ++v) {
      if (terms[v] == 0) continue;
      inner[v].level = level;
      inner[v].parts.emplace_back(&rns, level, /*ntt_form=*/true);
      inner[v].parts.emplace_back(&rns, level, /*ntt_form=*/true);
      diag_scratch[v].reshape_uninit(&rns, level, /*ntt_form=*/true);
    }
    parallel_for(2 * level, [&](std::size_t task) {
      const std::size_t v = task / level;
      const std::size_t i = task % level;
      if (terms[v] == 0) return;
      const auto& m = rns.mod(i);
      const auto diag = diag_scratch[v].rns(i);
      for (std::size_t k = 0; k < s; ++k) {
        const auto& coeffs = diags[k][v].coeffs;
        if (coeffs.empty()) continue;
        fhe::RnsPoly::lift_plaintext(&rns, i, coeffs, diag);
        rns.ntt(i).forward(diag, kern);
        for (std::size_t p = 0; p < 2; ++p) {
          kern.add_mul(inner[v].parts[p].rns(i).data(),
                       source[k]->parts[p].rns(i).data(), diag.data(),
                       diag.size(), m);
        }
      }
    });
    auto& counters = rns.exec().counters();
    counters.bump(counters.ntt_forward, level * (terms[0] + terms[1]));
    Ciphertext& inner_a = inner[0];
    Ciphertext& inner_b = inner[1];
    const bool init_a = terms[0] > 0;
    const bool init_b = terms[1] > 0;
    const std::size_t terms_a = terms[0];
    const std::size_t terms_b = terms[1];
    // The raw add_mul loops bypassed the tracked bound; account for the
    // fused diagonal products before the accumulators re-enter the API.
    if (init_a) bgv_.note_fused_affine(inner_a, state, terms_a);
    if (init_b) bgv_.note_fused_affine(inner_b, state, terms_b);
    Ciphertext acc;
    bool acc_init = false;
    if (init_a) {
      acc = std::move(inner_a);
      acc_init = true;
    }
    if (init_b) {
      const std::size_t wrap = (cols - s) % cols;
      if (wrap != 0) {
        bgv_.rotate_columns_inplace(inner_b, static_cast<long>(wrap),
                                    *rotation_keys_);
      }
      if (!acc_init) {
        acc = std::move(inner_b);
      } else {
        bgv_.add_inplace(acc, inner_b);
      }
    }
    bgv_.add_plain_inplace(acc, batch.rc[l]);
    state = std::move(acc);
    bgv_.auto_switch_inplace(state);
  };

  // The dense diagonals inflate the noise by ~||pt|| * n per layer, so each
  // ct-ct multiplication sheds primes as the tracked bound allows: the
  // operands first drop to the level the product favours, and the first
  // drop after it runs fused on the 3-part tensor BEFORE relinearising, so
  // the relin decomposition works at the lower level.
  auto mul_reduced = [&](Ciphertext& a, Ciphertext& b) {
    bgv_.switch_for_multiply(a, b);
    Ciphertext prod = bgv_.multiply(a, b);
    bgv_.auto_switch_inplace(prod);
    bgv_.relinearize_inplace(prod);
    bgv_.auto_switch_inplace(prod);
    return prod;
  };

  auto feistel = [&] {
    Ciphertext sq = mul_reduced(state, state);
    // Tile-local shift by -1; the cross-tile leak at offset 0 is masked.
    bgv_.rotate_columns_inplace(sq, static_cast<long>(cols - 1),
                                *rotation_keys_);
    for (auto& part : sq.parts) part.mul_inplace(batch.feistel_mask_ntt);
    bgv_.note_mask_mul(sq);
    // The mask multiply is a full plaintext product (~log2(t) + log2(n)
    // bits); on an elevated trajectory (e.g. an ingest-switched tenant key)
    // that can cross a drop threshold mid-feistel, and the replayed
    // schedule drops here — the live path must offer the same drop point.
    bgv_.auto_switch_inplace(sq);
    bgv_.mod_switch_to(state, sq.level);
    bgv_.add_inplace(state, sq);
  };

  auto cube = [&] {
    Ciphertext sq = mul_reduced(state, state);
    bgv_.mod_switch_to(state, sq.level);
    state = mul_reduced(sq, state);
  };

  for (std::size_t round = 0; round < params.rounds; ++round) {
    affine(round);
    if (round == params.rounds - 1) {
      cube();
    } else {
      feistel();
    }
  }
  affine(params.rounds);  // final affine layer (Mix folded in)

  // enc(m) = c - KS, all tiles at once.
  bgv_.negate_inplace(state);
  bgv_.add_plain_inplace(state, batch.message_plain);
  return state;
}

fhe::Plaintext SimdBatchEngine::tile_mask(
    std::span<const std::size_t> tiles) const {
  const TileGrid grid(config_);
  std::vector<u64> mask(grid.slots(), 0);
  for (const std::size_t tile : tiles) {
    POE_ENSURE(tile < grid.capacity(), "tile out of range");
    for (std::size_t off = 0; off < grid.s; ++off) {
      mask[grid.pos(tile, off)] = 1;
    }
  }
  return encode_grid(mask);
}

Ciphertext SimdBatchEngine::merge_tenant_keys(
    std::span<const TenantTiles> tenants) const {
  POE_ENSURE(!tenants.empty(), "merge requires at least one tenant");
  const std::size_t count = tenants.size();
  std::vector<const Ciphertext*> keys(count);
  std::size_t level = 0;
  for (std::size_t j = 0; j < count; ++j) {
    POE_ENSURE(tenants[j].key_ct != nullptr, "merge: null tenant key");
    POE_ENSURE(!tenants[j].tiles.empty(), "merge: tenant owns no tiles");
    keys[j] = tenants[j].key_ct;
    POE_ENSURE(keys[j]->size() == keys[0]->size(), "ciphertext size mismatch");
    level = j == 0 ? keys[j]->level : std::min(level, keys[j]->level);
  }
  // A key above the lowest level is switched down to it first, on a copy.
  // Keys uploaded through the service all sit at the top level, so serving
  // copies none.
  std::deque<Ciphertext> lowered;  // stable addresses
  for (const Ciphertext*& key : keys) {
    if (key->level == level) continue;
    bgv_.mod_switch_to(lowered.emplace_back(*key), level);
    key = &lowered.back();
  }
  // The masks' slot encodes fork over the tenants; then one fork over the
  // limbs: task i lifts every tenant's mask into limb i of the scratch,
  // transforms it and add_muls it with that tenant's key parts into the
  // zero-seeded accumulators. Each limb's sum is exact mod its prime, so
  // the merged key has the bits of masking every key with
  // mul_plain_inplace and summing; but no key is copied, no masked key or
  // partial sum is built, and the calling thread no longer runs the
  // tenants one after another.
  std::vector<fhe::Plaintext> masks(count);
  parallel_for(count,
               [&](std::size_t j) { masks[j] = tile_mask(tenants[j].tiles); });
  const fhe::RnsContext& rns = bgv_.rns();
  const auto& kern = rns.exec().kernels();
  Ciphertext merged;
  merged.level = level;
  for (std::size_t p = 0; p < keys[0]->size(); ++p) {
    merged.parts.emplace_back(&rns, level, /*ntt_form=*/true);
  }
  fhe::RnsPoly mask = fhe::RnsPoly::uninit(&rns, level, /*ntt_form=*/true);
  parallel_for(level, [&](std::size_t i) {
    const auto& m = rns.mod(i);
    const auto limb = mask.rns(i);
    for (std::size_t j = 0; j < count; ++j) {
      fhe::RnsPoly::lift_plaintext(&rns, i, masks[j].coeffs, limb);
      rns.ntt(i).forward(limb, kern);
      for (std::size_t p = 0; p < merged.size(); ++p) {
        kern.add_mul(merged.parts[p].rns(i).data(),
                     keys[j]->parts[p].rns(i).data(), limb.data(),
                     limb.size(), m);
      }
    }
  });
  auto& counters = rns.exec().counters();
  counters.bump(counters.ntt_forward, level * count);
  bgv_.note_masked_sum(merged, keys);
  return merged;
}

Ciphertext SimdBatchEngine::extract_tiles(
    const Ciphertext& ct, std::span<const std::size_t> tiles) const {
  Ciphertext out = ct;
  bgv_.mul_plain_inplace(out, tile_mask(tiles));
  // Per-tenant results leave the service here — trim surplus levels so the
  // download is no larger than the safety band requires.
  bgv_.trim_output_inplace(out, config_.output_budget_bits);
  return out;
}

std::vector<u64> SimdBatchEngine::decode_block(const HheConfig& config,
                                               const fhe::Bgv& bgv,
                                               const Ciphertext& ct,
                                               std::size_t tile,
                                               std::size_t len) {
  const TileGrid grid(config);
  POE_ENSURE(tile < grid.capacity(), "tile out of range");
  POE_ENSURE(len <= config.pasta.t, "len out of range");
  fhe::BatchEncoder encoder(config.bgv.n, config.bgv.t);
  fhe::SlotLayout layout(config.bgv.n, config.bgv.t);
  const auto logical = layout.from_slots(encoder.decode(bgv.decrypt(ct)));
  const auto begin = logical.begin() + static_cast<long>(grid.pos(tile, 0));
  return {begin, begin + static_cast<long>(len)};
}

}  // namespace poe::hhe
