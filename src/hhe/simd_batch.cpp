#include "hhe/simd_batch.hpp"

#include <algorithm>
#include <deque>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "common/error.hpp"
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
      encoder_(config.bgv.n, config.bgv.t, &bgv.exec()),
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
    for (auto& part : batch.diags[l]) part.resize(s);
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
      if (any_a) batch.diags[l][0][k] = encode_grid(ua);
      if (any_b) batch.diags[l][1][k] = encode_grid(ub);
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
  batch.feistel_mask_ntt = bgv_.ntt_weight(encode_grid(mask));
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
  const long wrap_step = static_cast<long>((cols - s) % cols);

  // One Mix-composed affine layer: the full diagonal method over a hoisted
  // state, as one Bgv op. The in-tile parts (sum[0]) apply to rot_k(state)
  // directly; the wrap parts (sum[1], already pre-rotated by +s in
  // prepare()) take ONE closing rotation by cols - s.
  auto affine = [&](std::size_t l) {
    Ciphertext sum[2];
    bgv_.diagonal_sum(state, batch.diags[l], *rotation_keys_, sum);
    if (sum[1].size() != 0 && wrap_step != 0) {
      bgv_.rotate_columns_inplace(sum[1], wrap_step, *rotation_keys_);
    }
    if (sum[0].size() == 0) {
      std::swap(sum[0], sum[1]);
    } else if (sum[1].size() != 0) {
      bgv_.add_inplace(sum[0], sum[1]);
    }
    POE_ENSURE(sum[0].size() != 0, "affine layer produced no terms");
    bgv_.add_plain_inplace(sum[0], batch.rc[l]);
    state = std::move(sum[0]);
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
    bgv_.mul_plain_inplace(sq, batch.feistel_mask_ntt);
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

std::vector<u64> SimdBatchEngine::tile_slots(
    std::span<const std::size_t> tiles) const {
  const TileGrid grid(config_);
  std::vector<u64> mask(grid.slots(), 0);
  for (const std::size_t tile : tiles) {
    POE_ENSURE(tile < grid.capacity(), "tile out of range");
    for (std::size_t off = 0; off < grid.s; ++off) {
      mask[grid.pos(tile, off)] = 1;
    }
  }
  return layout_.to_slots(mask);
}

Ciphertext SimdBatchEngine::merge_tenant_keys(
    std::span<const TenantTiles> tenants) const {
  POE_ENSURE(!tenants.empty(), "merge requires at least one tenant");
  const std::size_t count = tenants.size();
  std::vector<const Ciphertext*> keys(count);
  std::vector<std::vector<u64>> masks(count);
  std::size_t level = 0;
  for (std::size_t j = 0; j < count; ++j) {
    POE_ENSURE(tenants[j].key_ct != nullptr, "merge: null tenant key");
    POE_ENSURE(!tenants[j].tiles.empty(), "merge: tenant owns no tiles");
    keys[j] = tenants[j].key_ct;
    masks[j] = tile_slots(tenants[j].tiles);
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
  return bgv_.weighted_sum(keys, encoder_.encode_each(masks));
}

Ciphertext SimdBatchEngine::extract_tiles(
    const Ciphertext& ct, std::span<const std::size_t> tiles) const {
  // A one-source weighted sum writes the product into a fresh ciphertext
  // (no copy of ct) and charges exactly mul_plain_inplace's bound and node.
  const Ciphertext* src = &ct;
  const fhe::Plaintext mask = encoder_.encode(tile_slots(tiles));
  Ciphertext out = bgv_.weighted_sum(std::span(&src, 1), std::span(&mask, 1));
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
