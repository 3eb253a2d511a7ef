#include "hhe/protocol.hpp"

#include <algorithm>
#include <span>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "fhe/noise.hpp"

namespace poe::hhe {

namespace {
using fhe::Ciphertext;
using u64 = std::uint64_t;
}  // namespace

// The BgvParams below are pasted from the output of the circuit-profile
// parameter search (build/bench/bench_param_search — record the circuit
// under the config itself, replay it under candidates, pick the cheapest
// chain whose predicted output budget clears the safety band under the
// security table). A fixed-point test re-runs profile + search and
// EXPECT_EQs these numbers, so they cannot drift from the search tool or
// the table.
HheConfig HheConfig::demo() {
  HheConfig cfg;
  cfg.pasta = pasta::pasta4();  // t = 32, 4 rounds, p = 65537
  cfg.bgv = fhe::BgvParams{.n = 1024,
                           .t = cfg.pasta.p,
                           .num_primes = 11,
                           .prime_bits = 48,
                           .relin_digit_bits = 192,
                           .seed = 11};
  return cfg;
}

HheConfig HheConfig::test() {
  HheConfig cfg;
  cfg.pasta = pasta::PastaParams{
      .t = 8, .rounds = 4, .p = 65537, .name = "PASTA-mini"};
  cfg.bgv = fhe::BgvParams{.n = 1024,
                           .t = cfg.pasta.p,
                           .num_primes = 7,
                           .prime_bits = 61,
                           .relin_digit_bits = 122,
                           .seed = 11};
  return cfg;
}

// The batched engine multiplies by *dense* encoded diagonals and masks, so
// each round inflates the noise by ~||pt|| * n (about 2^27..2^33) on top of
// the squaring — hence the wider chains.
HheConfig HheConfig::batched_demo() {
  HheConfig cfg = demo();
  cfg.bgv = fhe::BgvParams{.n = 1024,
                           .t = cfg.pasta.p,
                           .num_primes = 10,
                           .prime_bits = 60,
                           .relin_digit_bits = 120,
                           .seed = 11};
  return cfg;
}

HheConfig HheConfig::batched_test() {
  HheConfig cfg = test();
  cfg.bgv = fhe::BgvParams{.n = 1024,
                           .t = cfg.pasta.p,
                           .num_primes = 10,
                           .prime_bits = 60,
                           .relin_digit_bits = 120,
                           .seed = 11};
  return cfg;
}

HheClient::HheClient(const HheConfig& config, const fhe::Bgv& bgv,
                     std::vector<u64> pasta_key)
    : config_(config), bgv_(bgv), cipher_(config.pasta, std::move(pasta_key)) {
  POE_ENSURE(config.bgv.t == config.pasta.p,
             "BGV plaintext modulus must equal the PASTA prime");
}

std::vector<Ciphertext> HheClient::encrypt_key() const {
  std::vector<Ciphertext> out;
  out.reserve(cipher_.key().size());
  for (const u64 k : cipher_.key()) {
    fhe::Plaintext pt;
    pt.coeffs.assign(1, k);  // constant polynomial
    out.push_back(bgv_.encrypt(pt));
  }
  return out;
}

std::vector<u64> HheClient::encrypt(std::span<const u64> msg,
                                    u64 nonce) const {
  return cipher_.encrypt(msg, nonce);
}

std::vector<u64> HheClient::decrypt_result(
    const std::vector<Ciphertext>& cts) const {
  std::vector<u64> out;
  out.reserve(cts.size());
  for (const auto& ct : cts) {
    const auto pt = bgv_.decrypt(ct);
    out.push_back(pt.coeffs.empty() ? 0 : pt.coeffs[0]);
  }
  return out;
}

PreparedBlock prepare_block(const pasta::PastaParams& params, u64 nonce,
                            u64 counter) {
  const mod::Modulus pm(params.p);
  PreparedBlock prep;
  prep.nonce = nonce;
  prep.counter = counter;
  prep.rnd = pasta::derive_block_randomness(params, nonce, counter);
  prep.mat_l.reserve(prep.rnd.layers.size());
  prep.mat_r.reserve(prep.rnd.layers.size());
  for (const auto& d : prep.rnd.layers) {
    prep.mat_l.push_back(pasta::sequential_matrix(pm, d.alpha_l));
    prep.mat_r.push_back(pasta::sequential_matrix(pm, d.alpha_r));
  }
  return prep;
}

HheServer::HheServer(const HheConfig& config, const fhe::Bgv& bgv,
                     std::vector<Ciphertext> encrypted_key)
    : config_(config), bgv_(bgv), key_cts_(std::move(encrypted_key)) {
  POE_ENSURE(key_cts_.size() == config_.pasta.key_size(),
             "encrypted key must have " << config_.pasta.key_size()
                                        << " ciphertexts");
}

std::vector<Ciphertext> HheServer::keystream_circuit(
    const PreparedBlock& prep) const {
  const auto& params = config_.pasta;
  const std::size_t t = params.t;
  const auto& rnd = prep.rnd;

  std::vector<Ciphertext> left(key_cts_.begin(),
                               key_cts_.begin() + static_cast<long>(t));
  std::vector<Ciphertext> right(key_cts_.begin() + static_cast<long>(t),
                                key_cts_.end());

  const fhe::NoiseEstimator& est = bgv_.estimator();
  // Drops move whole state vectors to one collectively-safe target (greedy
  // on the worst tracked bound, the shared auto_drop_target policy) instead
  // of per-ciphertext: rows carry slightly different bounds (the mul_scalar
  // term depends on the coefficient magnitude), and a uniform target keeps
  // them level-aligned for the cross-row additions of mix and the affine
  // layers.
  auto auto_drop2 = [&](std::span<Ciphertext> a, std::span<Ciphertext> b) {
    if (a.empty()) return;
    double worst = 0.0;
    for (const auto& ct : a) worst = std::max(worst, ct.noise_bits);
    for (const auto& ct : b) worst = std::max(worst, ct.noise_bits);
    const std::size_t target =
        est.auto_drop_target(worst, a.front().level, a.front().size());
    if (target == a.front().level) return;
    for (auto& ct : a) bgv_.mod_switch_to(ct, target);
    for (auto& ct : b) bgv_.mod_switch_to(ct, target);
  };
  auto auto_drop = [&](std::span<Ciphertext> a) { auto_drop2(a, {}); };

  // y_i = sum_j M_ij x_j + rc_i; rows are independent, so they are
  // evaluated in parallel (the Bgv evaluator's const methods only read
  // shared key material).
  //
  // The accumulator must be allowed to drop primes MID-row: one affine
  // layer inflates the bound by ~log2(t/2) + log2(t) bits, which on a short
  // right-sized chain can exceed a whole prime — waiting for the
  // end-of-layer barrier piles noise past what the last primes can absorb.
  // Rows still have to stay level-aligned, so the drop positions are
  // planned once per layer from worst-case bounds (|scalar| <= t/2, worst
  // input row) — nonce- and row-independent, and the same recurrence the
  // parameter-search replay (simulate) runs, so live levels track the
  // replayed schedule term for term.
  auto affine_half = [&](std::vector<Ciphertext>& x, const pasta::Matrix& mat,
                         const std::vector<u64>& rc) {
    const std::size_t start_level = x[0].level;
    std::vector<std::size_t> lvl_after(t, start_level);
    double worst_in = 0.0;
    for (const auto& ct : x) worst_in = std::max(worst_in, ct.noise_bits);
    const double term_bits = est.mul_scalar(worst_in, config_.bgv.t / 2);
    double acc_bits = term_bits;
    std::size_t lvl = start_level;
    for (std::size_t j = 0; j < t; ++j) {
      if (j > 0) {
        double tj = term_bits;
        for (std::size_t l = start_level; l > lvl; --l) {
          tj = est.mod_switch(tj);
        }
        acc_bits = est.add(acc_bits, tj);
      }
      const std::size_t target = est.auto_drop_target(acc_bits, lvl, 2);
      while (lvl > target) {
        acc_bits = est.mod_switch(acc_bits);
        --lvl;
      }
      lvl_after[j] = lvl;
    }
    std::vector<Ciphertext> out(t);
    parallel_for(t, [&](std::size_t i) {
      Ciphertext acc = x[0];
      bgv_.mul_scalar_inplace(acc, mat.at(i, 0));
      if (acc.level > lvl_after[0]) bgv_.mod_switch_to(acc, lvl_after[0]);
      for (std::size_t j = 1; j < t; ++j) {
        Ciphertext term = x[j];
        bgv_.mul_scalar_inplace(term, mat.at(i, j));
        if (term.level > acc.level) bgv_.mod_switch_to(term, acc.level);
        bgv_.add_inplace(acc, term);
        if (acc.level > lvl_after[j]) bgv_.mod_switch_to(acc, lvl_after[j]);
      }
      bgv_.add_scalar_inplace(acc, rc[i]);
      out[i] = std::move(acc);
    });
    x = std::move(out);
  };

  auto mix = [&] {
    for (std::size_t i = 0; i < t; ++i) {
      // (l, r) <- (2l + r, l + 2r) == (l + s, r + s) with s = l + r.
      Ciphertext sum = left[i];
      bgv_.add_inplace(sum, right[i]);
      bgv_.add_inplace(left[i], sum);
      bgv_.add_inplace(right[i], sum);
    }
    // Post-mix is the noisiest point of the linear layer: drop both halves
    // together here.
    auto_drop2(left, right);
  };

  // Before a ct-ct product, both operand vectors drop together to the
  // level the shared multiply_drop_target rule picks for their worst rows
  // (simulate replays it at every multiplication node).
  auto drop_for_multiply = [&](std::span<Ciphertext> a,
                               std::span<Ciphertext> b) {
    double worst_a = 0.0, worst_b = 0.0;
    for (const auto& ct : a) worst_a = std::max(worst_a, ct.noise_bits);
    for (const auto& ct : b) worst_b = std::max(worst_b, ct.noise_bits);
    const std::size_t target =
        est.multiply_drop_target(worst_a, worst_b, a.front().level);
    for (auto& ct : a) bgv_.mod_switch_to(ct, target);
    for (auto& ct : b) bgv_.mod_switch_to(ct, target);
  };

  // Squaring of a whole vector: drop the operands, tensor in parallel, drop
  // the 3-part results while the shrink is cheapest (before
  // relinearisation's basis extension), relinearise, drop again. Each drop
  // is collective so the vector stays level-aligned.
  auto square_vec = [&](std::vector<Ciphertext>& x, std::size_t count) {
    drop_for_multiply(x, x);
    std::vector<Ciphertext> sq(count);
    parallel_for(count,
                 [&](std::size_t j) { sq[j] = bgv_.multiply(x[j], x[j]); });
    auto_drop(sq);
    parallel_for(count,
                 [&](std::size_t j) { bgv_.relinearize_inplace(sq[j]); });
    auto_drop(sq);
    return sq;
  };

  auto feistel = [&](std::vector<Ciphertext>& x) {
    const std::vector<Ciphertext> sq = square_vec(x, t - 1);
    const std::size_t level = sq.front().level;
    for (std::size_t j = t; j-- > 1;) {
      bgv_.mod_switch_to(x[j], level);
      bgv_.add_inplace(x[j], sq[j - 1]);
    }
    bgv_.mod_switch_to(x[0], level);
  };

  auto cube = [&](std::vector<Ciphertext>& x) {
    std::vector<Ciphertext> sq = square_vec(x, t);
    parallel_for(t, [&](std::size_t j) {
      bgv_.mod_switch_to(x[j], sq.front().level);
    });
    drop_for_multiply(sq, x);
    parallel_for(t, [&](std::size_t j) {
      x[j] = bgv_.multiply(sq[j], x[j]);
    });
    auto_drop(x);
    parallel_for(t, [&](std::size_t j) { bgv_.relinearize_inplace(x[j]); });
    auto_drop(x);
  };

  for (std::size_t round = 0; round < params.rounds; ++round) {
    const auto& d = rnd.layers[round];
    affine_half(left, prep.mat_l[round], d.rc_l);
    affine_half(right, prep.mat_r[round], d.rc_r);
    mix();
    if (round == params.rounds - 1) {
      cube(left);
      cube(right);
    } else {
      feistel(left);
      feistel(right);
    }
  }
  const auto& fin = rnd.layers.back();
  affine_half(left, prep.mat_l.back(), fin.rc_l);
  affine_half(right, prep.mat_r.back(), fin.rc_r);
  mix();

  // The keystream rows leave the server next: spend surplus levels down to
  // the safety band. One collective target (worst row bound) keeps the rows
  // level-aligned for the caller's final add.
  double worst = 0.0;
  for (const auto& ct : left) worst = std::max(worst, ct.noise_bits);
  const std::size_t target =
      est.trim_target(worst, left.front().level, left.front().size(),
                      config_.output_budget_bits);
  if (target < left.front().level) {
    for (auto& ct : left) bgv_.mod_switch_to(ct, target);
  }
  return left;  // truncation layer
}

std::vector<Ciphertext> HheServer::transcipher_block(
    std::span<const u64> symmetric_ct, u64 nonce, u64 counter) const {
  const std::size_t t = config_.pasta.t;
  POE_ENSURE(symmetric_ct.size() <= t && !symmetric_ct.empty(),
             "block must have 1.." << t << " elements");
  auto ks = keystream_circuit(prepare_block(config_.pasta, nonce, counter));
  std::vector<Ciphertext> out;
  out.reserve(symmetric_ct.size());
  for (std::size_t i = 0; i < symmetric_ct.size(); ++i) {
    // enc(m_i) = c_i - KS_i.
    Ciphertext m = std::move(ks[i]);
    bgv_.negate_inplace(m);
    bgv_.add_scalar_inplace(m, symmetric_ct[i]);
    out.push_back(std::move(m));
  }
  return out;
}

std::vector<Ciphertext> HheServer::transcipher(
    std::span<const u64> symmetric_ct, u64 nonce) const {
  const std::size_t t = config_.pasta.t;
  std::vector<Ciphertext> out;
  out.reserve(symmetric_ct.size());
  for (std::size_t block = 0; block * t < symmetric_ct.size(); ++block) {
    const std::size_t begin = block * t;
    const std::size_t len = std::min(t, symmetric_ct.size() - begin);
    auto cts = transcipher_block(symmetric_ct.subspan(begin, len), nonce,
                                 block);
    for (auto& ct : cts) out.push_back(std::move(ct));
  }
  return out;
}

}  // namespace poe::hhe
