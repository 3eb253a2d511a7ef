#include "fhe/bgv.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "fhe/noise.hpp"
#include "fhe/param_search.hpp"
#include "modular/primes.hpp"

namespace poe::fhe {

namespace {
using u64 = std::uint64_t;
using u128 = unsigned __int128;
}

// ---------------------------------------------------------- noise tracking

std::int32_t Bgv::record_node(std::uint8_t op, std::int32_t a,
                              std::int32_t b, std::uint64_t scalar,
                              std::uint32_t terms) const {
  NoiseTape* tape = tape_.load(std::memory_order_acquire);
  if (tape == nullptr) return -1;
  TapeNode node;
  node.op = static_cast<NoiseOp>(op);
  node.a = a;
  node.b = b;
  node.scalar = scalar;
  node.terms = terms;
  return tape->append(node);
}

std::int32_t Bgv::record_operand(std::int32_t trace_id) const {
  if (trace_id >= 0) return trace_id;
  // Ciphertext created before recording started: model it as a fresh
  // encryption (the conservative leaf — uploads are always fresh).
  return record_node(static_cast<std::uint8_t>(NoiseOp::kFresh), -1, -1);
}

void Bgv::begin_recording(NoiseTape* tape) const {
  POE_ENSURE(tape != nullptr, "begin_recording requires a tape");
  tape_.store(tape, std::memory_order_release);
}

void Bgv::end_recording() const {
  tape_.store(nullptr, std::memory_order_release);
}

double Bgv::predicted_budget_bits(const Ciphertext& ct) const {
  return est_->budget(ct.noise_bits, ct.level);
}

void Bgv::auto_switch_inplace(Ciphertext& a) const {
  const std::size_t target =
      est_->auto_drop_target(a.noise_bits, a.level, a.size());
  if (target < a.level) mod_switch_to(a, target);
}

void Bgv::switch_for_multiply(Ciphertext& a, Ciphertext& b) const {
  POE_ENSURE(a.level == b.level, "level mismatch (use match_levels)");
  const std::size_t target =
      est_->multiply_drop_target(a.noise_bits, b.noise_bits, a.level);
  mod_switch_to(a, target);
  mod_switch_to(b, target);
}

void Bgv::trim_output_inplace(Ciphertext& a, double keep_bits) const {
  const std::size_t target =
      est_->trim_target(a.noise_bits, a.level, a.size(), keep_bits);
  if (target < a.level) mod_switch_to(a, target);
}

u64 galois_elt_for_step(std::size_t n, long step) {
  const long c = static_cast<long>(n / 2);
  u64 e = static_cast<u64>(((step % c) + c) % c);
  const u64 two_n = 2 * n;
  u64 g = 1;
  u64 base = 3 % two_n;
  while (e != 0) {
    if (e & 1) g = g * base % two_n;  // operands < 2n << 2^32: no overflow
    base = base * base % two_n;
    e >>= 1;
  }
  return g;
}

// toy: two-prime groups over a three-prime chain, so the top level runs a
// truncated last group. demo: three-prime groups over eleven primes.
BgvParams BgvParams::toy() {
  return BgvParams{.n = 1024,
                   .t = 65537,
                   .num_primes = 3,
                   .prime_bits = 40,
                   .relin_digit_bits = 80,
                   .seed = 7};
}

BgvParams BgvParams::demo() {
  return BgvParams{.n = 4096,
                   .t = 65537,
                   .num_primes = 11,
                   .prime_bits = 45,
                   .relin_digit_bits = 135,
                   .seed = 7};
}

std::size_t BgvParams::special_primes() const {
  POE_ENSURE(prime_bits > 0 && relin_digit_bits > 0 &&
                 relin_digit_bits % prime_bits == 0,
             "relin_digit_bits (" << relin_digit_bits
                                  << ") must be a positive whole multiple of "
                                     "prime_bits ("
                                  << prime_bits << ")");
  const std::size_t alpha = relin_digit_bits / prime_bits;
  POE_ENSURE(alpha <= num_primes, "relin_digit_bits gives "
                                      << alpha << " primes per digit group, "
                                      << "more than the " << num_primes
                                      << " chain primes");
  return alpha;
}

Bgv::Bgv(const BgvParams& params) : Bgv(params, nullptr) {}

Bgv::Bgv(const BgvParams& params, ExecContext* exec)
    : Bgv(params, exec,
          mod::bgv_prime_chain(params.num_primes + params.special_primes(),
                               params.prime_bits, params.n, params.t)) {}

Bgv::Bgv(const BgvParams& params, ExecContext* exec,
         const std::vector<u64>& key_chain)
    : params_(params),
      alpha_(params.special_primes()),
      ctx_(params.n, params.t,
           {key_chain.begin(),
            key_chain.begin() + static_cast<std::ptrdiff_t>(params.num_primes)},
           exec),
      key_ctx_(params.n, params.t, key_chain, exec),
      est_(std::make_unique<NoiseEstimator>(params)),
      rng_(params.seed) {
  const std::size_t top = ctx_.num_primes();
  build_ksw_tables();

  // Secret key over the key basis (one ternary draw per coefficient, lifted
  // to every limb); its chain limbs are the ciphertext-side secret.
  s_key_ = RnsPoly::sample_ternary(&key_ctx_, top + alpha_, rng_);
  s_key_.to_ntt();
  s_ntt_ = RnsPoly::uninit(&ctx_, top, /*ntt_form=*/true);
  std::copy_n(s_key_.rns(0).data(), top * ctx_.n(), s_ntt_.rns(0).data());
  s_sq_ntt_ = s_ntt_;
  s_sq_ntt_.mul_inplace(s_ntt_);

  // Public key: b = -(a s) + t e.
  pk_a_ = RnsPoly::sample_uniform(&ctx_, top, rng_, /*ntt_form=*/true);
  pk_b_ = pk_a_;
  pk_b_.mul_inplace(s_ntt_).negate_inplace();
  pk_b_.add_inplace(sample_t_noise(ctx_));

  // Relinearisation keys switch the s^2 component onto s.
  rlk_ = make_ksw_key(s_sq_ntt_);
}

Bgv::~Bgv() = default;

void Bgv::build_ksw_tables() {
  const std::size_t top = ctx_.num_primes();
  const std::size_t width = top + alpha_;  // key-basis limbs
  const auto shoup = [](u64 w, u64 q) {
    return ShoupConst{w, kernels::shoup_precompute(w, q)};
  };
  // prod_{k in [begin, end), k != skip} prime_k mod key-basis prime i.
  const auto product_mod = [&](std::size_t begin, std::size_t end,
                               std::size_t skip, std::size_t i) {
    const auto& m = key_ctx_.mod(i);
    u64 acc = 1 % m.value();
    for (std::size_t k = begin; k < end; ++k) {
      if (k != skip) acc = m.mul(acc, m.reduce(key_ctx_.prime(k)));
    }
    return acc;
  };

  group_tables_.resize(top);
  for (std::size_t level = 1; level <= top; ++level) {
    GroupTables& gt = group_tables_[level - 1];
    const std::size_t groups = (level + alpha_ - 1) / alpha_;
    gt.hat_inv.resize(level);
    gt.hat.assign(groups * width * alpha_, ShoupConst{});
    for (std::size_t j = 0; j < level; ++j) {
      const std::size_t b = j / alpha_;
      const std::size_t begin = b * alpha_;
      const std::size_t end = std::min(begin + alpha_, level);
      const auto& mj = key_ctx_.mod(j);
      gt.hat_inv[j] =
          shoup(mj.inv(product_mod(begin, end, j, j)), mj.value());
      for (std::size_t i = 0; i < width; ++i) {
        if ((i >= begin && i < end) || (i >= level && i < top)) continue;
        gt.hat[(b * width + i) * alpha_ + (j - begin)] =
            shoup(product_mod(begin, end, j, i), key_ctx_.prime(i));
      }
    }
  }

  const u64 t = params_.t;
  special_scale_.resize(alpha_);
  for (std::size_t k = 0; k < alpha_; ++k) {
    const auto& m = key_ctx_.mod(top + k);
    const u64 p_hat = product_mod(top, width, top + k, top + k);
    special_scale_[k] = shoup(m.inv(m.mul(m.reduce(t), p_hat)), m.value());
  }
  special_to_q_.resize(top * alpha_);
  p_inv_.resize(top);
  p_mod_q_.resize(top);
  for (std::size_t i = 0; i < top; ++i) {
    const auto& m = ctx_.mod(i);
    for (std::size_t k = 0; k < alpha_; ++k) {
      special_to_q_[i * alpha_ + k] = shoup(
          m.mul(m.reduce(t), product_mod(top, width, top + k, i)),
          m.value());
    }
    p_mod_q_[i] = shoup(product_mod(top, width, width, i), m.value());
    p_inv_[i] = shoup(m.inv(p_mod_q_[i].w), m.value());
  }
}

RnsPoly Bgv::sample_t_noise(const RnsContext& ctx) const {
  const std::size_t limbs = ctx.num_primes();
  RnsPoly te = RnsPoly::sample_noise(&ctx, limbs, rng_);
  te.to_ntt();
  for (std::size_t i = 0; i < limbs; ++i) {
    const auto& m = ctx.mod(i);
    auto span = te.rns(i);
    for (auto& x : span) x = m.mul(x, params_.t % m.value());
  }
  return te;
}

KswKey Bgv::make_ksw_key(const RnsPoly& target_ntt) const {
  // Row b = -(a s) + t e + P Q~_b target over the key basis. P Q~_b is P
  // on group b's chain limbs and 0 on every other limb (P vanishes mod each
  // special prime), so the target term only enters those limbs, scaled by
  // P mod q_j.
  const std::size_t top = ctx_.num_primes();
  const std::size_t groups = (top + alpha_ - 1) / alpha_;
  KswKey out;
  out.rows.reserve(groups);
  for (std::size_t b = 0; b < groups; ++b) {
    KswKey::Row row;
    row.a = RnsPoly::sample_uniform(&key_ctx_, top + alpha_, rng_, true);
    row.b = row.a;
    row.b.mul_inplace(s_key_).negate_inplace();
    row.b.add_inplace(sample_t_noise(key_ctx_));
    for (std::size_t j = b * alpha_; j < std::min((b + 1) * alpha_, top);
         ++j) {
      const auto& m = ctx_.mod(j);
      auto dst = row.b.rns(j);
      auto src = target_ntt.rns(j);
      for (std::size_t idx = 0; idx < dst.size(); ++idx) {
        dst[idx] = m.add(dst[idx], m.mul(p_mod_q_[j].w, src[idx]));
      }
    }
    out.rows.push_back(std::move(row));
  }
  return out;
}

void Bgv::convert_limb(const kernels::Backend& kern, u64* dst,
                       const u64* src, const ShoupConst* w,
                       std::size_t terms, std::size_t n,
                       const mod::Modulus& m) {
  // Runs in L1-sized chunks with one stack block as the product scratch.
  constexpr std::size_t kChunk = 512;
  u64 tmp[kChunk];
  const u64 q = m.value();
  for (std::size_t off = 0; off < n; off += kChunk) {
    const std::size_t len = std::min(kChunk, n - off);
    kern.mul_shoup(dst + off, src + off, len, w[0].w, w[0].w_shoup, q);
    for (std::size_t k = 1; k < terms; ++k) {
      kern.mul_shoup(tmp, src + k * n + off, len, w[k].w, w[k].w_shoup, q);
      kern.add(dst + off, tmp, len, m);
    }
  }
}

HoistedCt Bgv::decompose(RnsPoly c0, RnsPoly c, const Ciphertext& from) const {
  const std::size_t level = from.level;
  const std::size_t n = ctx_.n();
  const std::size_t top = ctx_.num_primes();
  const std::size_t width = top + alpha_;
  const std::size_t groups = (level + alpha_ - 1) / alpha_;
  const GroupTables& gt = group_tables_[level - 1];
  const auto& kern = ctx_.exec().kernels();
  HoistedCt h{.c0 = std::move(c0),
              .digits = {},
              .level = level,
              .noise_bits = from.noise_bits,
              .trace_id = from.trace_id};
  h.digits.resize(groups);
  for (auto& d : h.digits) {
    d = RnsPoly::uninit(&key_ctx_, width, /*ntt_form=*/true);
  }
  // Per chain limb j: digit j/alpha's own limb j is c's NTT limb as it is
  // (the digit is c mod Q_b); then c_j leaves NTT form, scaled by
  // (Q_b / q_j)^{-1} for the conversion.
  parallel_for(level, [&](std::size_t j) {
    auto cj = c.rns(j);
    std::copy(cj.begin(), cj.end(), h.digits[j / alpha_].rns(j).begin());
    ctx_.ntt(j).inverse(cj, kern);
    kern.mul_shoup(cj.data(), cj.data(), n, gt.hat_inv[j].w,
                   gt.hat_inv[j].w_shoup, ctx_.prime(j));
  });
  // Per (group, target limb) outside the group: the fast conversion
  // sum_j [c_j (Q_b/q_j)^{-1}]_{q_j} (Q_b/q_j) mod the target prime, then
  // its forward NTT. Targets are the active chain limbs and the special
  // limbs; each task writes only its own limb.
  const std::size_t targets = level + alpha_;
  parallel_for(groups * targets, [&](std::size_t task) {
    const std::size_t b = task / targets;
    const std::size_t r = task % targets;
    const std::size_t begin = b * alpha_;
    const std::size_t size = std::min(alpha_, level - begin);
    if (r >= begin && r < begin + size) return;  // the group's own limb
    const std::size_t i = r < level ? r : top + (r - level);
    auto dst = h.digits[b].rns(i);
    convert_limb(kern, dst.data(), c.rns(begin).data(),
                 &gt.hat[(b * width + i) * alpha_], size, n,
                 key_ctx_.mod(i));
    key_ctx_.ntt(i).forward(dst, kern);
  });
  auto& counters = ctx_.exec().counters();
  counters.bump(counters.ntt_inverse, level);
  counters.bump(counters.ntt_forward, groups * targets - level);
  return h;
}

namespace {
// g^-1 mod 2n (g odd, 2n a power of two, so the inverse exists). Keygen
// only — a few Newton iterations beat carrying an extended-gcd helper.
std::uint64_t inverse_mod_2n(std::uint64_t g, std::size_t n) {
  const std::uint64_t mask = 2 * static_cast<std::uint64_t>(n) - 1;
  std::uint64_t inv = g;  // correct mod 8 for odd g
  for (int it = 0; it < 6; ++it) inv = (inv * (2 - g * inv)) & mask;
  POE_ENSURE(((g * inv) & mask) == 1, "automorphism element not invertible");
  return inv;
}
}  // namespace

KswKey Bgv::make_galois_key(u64 galois_element,
                            const RnsPoly& s_coeff) const {
  // Key switches tau_g(s) onto s. The key is stored PRE-PERMUTED by
  // tau_g^-1: since the eventual inner product pairs digit slot perm_g(i)
  // with key slot i, storing k'[j] = k[perm_g^-1(j)] lets the hot path run
  // the inner product contiguously (full SIMD width, no gathers) and apply
  // tau_g once to the two output polys instead of to every digit row:
  //   sum_w d_w[perm_g(i)] * k_w[i]  ==  perm_g( sum_w d_w[j] * k'_w[j] ).
  // Slot-for-slot the same products and the same lazy-flush schedule, so
  // rotation outputs are bit-identical to the permuted-digit formulation.
  RnsPoly tau_s = s_coeff.apply_automorphism(galois_element);
  tau_s.to_ntt();
  KswKey key = make_ksw_key(tau_s);
  const u64 g_inv = inverse_mod_2n(galois_element, ctx_.n());
  for (auto& row : key.rows) {
    row.b = row.b.apply_automorphism_ntt(g_inv);
    row.a = row.a.apply_automorphism_ntt(g_inv);
  }
  return key;
}

KswKey Bgv::make_ingest_key(const Bgv& tenant) const {
  POE_ENSURE(tenant.ctx_.n() == ctx_.n(), "ingest requires matching rings");
  POE_ENSURE(tenant.ctx_.num_primes() == ctx_.num_primes(),
             "ingest requires matching RNS chains");
  POE_ENSURE(tenant.params_.t == params_.t,
             "ingest requires matching plaintext moduli");
  for (std::size_t j = 0; j < ctx_.num_primes(); ++j) {
    POE_ENSURE(tenant.ctx_.prime(j) == ctx_.prime(j),
               "ingest requires identical RNS primes");
  }
  // Same ring + same primes => identical NTT tables, so the tenant's secret
  // (NTT form, foreign context) is read span-for-span. The key lives over
  // THIS evaluator's key basis and the target only enters chain limbs, so
  // the tenant's special primes play no part.
  return make_ksw_key(tenant.s_ntt_);
}

Ciphertext Bgv::ingest_switch(const Ciphertext& ct,
                              const KswKey& ingest_key) const {
  POE_ENSURE(ct.size() == 2, "ingest switch requires a 2-part ciphertext");
  const std::size_t level = ct.level;
  POE_ENSURE(level >= 1 && level <= ctx_.num_primes(),
             "ingest switch: bad level");
  // Rebind both parts into this evaluator's context (the upload was built
  // over the same ring by the tenant's own Bgv, so the raw RNS data carries
  // over verbatim); then c1 is key-switched from the tenant's secret onto
  // ours with the identity automorphism.
  RnsPoly c0 = RnsPoly::uninit(&ctx_, level, /*ntt_form=*/true);
  RnsPoly c1 = RnsPoly::uninit(&ctx_, level, /*ntt_form=*/true);
  for (std::size_t i = 0; i < level; ++i) {
    const auto s0 = ct.parts[0].rns(i);
    const auto s1 = ct.parts[1].rns(i);
    std::copy(s0.begin(), s0.end(), c0.rns(i).begin());
    std::copy(s1.begin(), s1.end(), c1.rns(i).begin());
  }
  Ciphertext out;
  key_switch(decompose(std::move(c0), std::move(c1), ct), nullptr, ingest_key,
             1, out);
  return out;
}

HoistedCt Bgv::hoist(const Ciphertext& ct) const {
  POE_ENSURE(ct.size() == 2, "hoisting requires a 2-part ciphertext");
  return decompose(ct.parts[0], ct.parts[1], ct);
}

std::vector<RnsPoly> Bgv::key_slabs(std::size_t count) const {
  // Chaos site: simulated scratch-acquisition failure, typed like any other
  // allocation fault so the service retry path absorbs it organically.
  fault_point(ctx_.exec(), "fhe.hoist.scratch.alloc_fail");
  std::vector<RnsPoly> slabs;
  slabs.reserve(count);
  for (std::size_t k = 0; k < count; ++k) {
    slabs.push_back(
        RnsPoly::uninit(&key_ctx_, key_ctx_.num_primes(), /*ntt_form=*/true));
  }
  return slabs;
}

template <class Fill>
void Bgv::mod_down(std::span<RnsPoly> acc, std::size_t level,
                   std::span<const DownTarget> targets, Fill&& fill) const {
  const std::size_t n = ctx_.n();
  const std::size_t top = ctx_.num_primes();
  const std::size_t count = targets.size();
  // tau distributes over the mod-down (a slot permutation commutes with the
  // limb-wise arithmetic) and folds over the addends for free: perm(c0 + y)
  // == perm(c0) + perm(y). Nothing is read from an out before it is
  // written, so reusing one cannot change the result.
  std::vector<const std::uint32_t*> perms(count, nullptr);
  for (std::size_t j = 0; j < count; ++j) {
    const DownTarget& target = targets[j];
    if (target.g != 1) perms[j] = ctx_.galois_ntt_perm(target.g).data();
    target.out->level = level;
    target.out->parts.resize(2);
    for (auto& part : target.out->parts) {
      part.reshape_uninit(&ctx_, level, /*ntt_form=*/true);
    }
  }
  const auto& kern = ctx_.exec().kernels();
  parallel_for(level + alpha_, [&](std::size_t r) {
    const std::size_t i = r < level ? r : top + (r - level);
    fill(i);
    if (r < level) return;
    const ShoupConst& w = special_scale_[r - level];
    for (std::size_t k = 0; k < 2 * count; ++k) {
      auto x = acc[k].rns(i);
      key_ctx_.ntt(i).inverse(x, kern);
      kern.mul_shoup(x.data(), x.data(), n, w.w, w.w_shoup,
                     key_ctx_.prime(i));
    }
  });
  // delta_i = t (sum_k v_k (P/p_k)) mod q_i, built in out's limb.
  parallel_for(count * level, [&](std::size_t task) {
    const std::size_t j = task / level;
    const std::size_t i = task % level;
    const DownTarget& target = targets[j];
    const auto& m = ctx_.mod(i);
    const ShoupConst& pinv = p_inv_[i];
    const RnsPoly* addends[2] = {target.add0, target.add1};
    for (std::size_t p = 0; p < 2; ++p) {
      const RnsPoly* add = addends[p];
      RnsPoly& x = acc[2 * j + p];
      u64* xi = x.rns(i).data();
      const auto dst = target.out->parts[p].rns(i);
      convert_limb(kern, dst.data(), x.rns(top).data(),
                   &special_to_q_[i * alpha_], alpha_, n, m);
      ctx_.ntt(i).forward(dst, kern);
      kern.sub(xi, dst.data(), n, m);
      // A rotation finishes in the accumulator and permutes into out.
      u64* res = perms[j] == nullptr ? dst.data() : xi;
      kern.mul_shoup(res, xi, n, pinv.w, pinv.w_shoup, m.value());
      if (add != nullptr) kern.add(res, add->rns(i).data(), n, m);
      if (perms[j] != nullptr) kern.permute(dst.data(), xi, perms[j], n);
    }
  });
  auto& counters = ctx_.exec().counters();
  counters.bump(counters.ntt_inverse, 2 * alpha_ * count);
  counters.bump(counters.ntt_forward, 2 * level * count);
}

void Bgv::key_switch(const HoistedCt& h, const RnsPoly* c1, const KswKey& key,
                     u64 g, Ciphertext& out) const {
  const std::size_t n = ctx_.n();
  const std::size_t level = h.level;
  const std::size_t nd = h.digits.size();
  POE_ENSURE(nd <= key.rows.size(), "key-switching key has too few rows");
  auto& counters = ctx_.exec().counters();
  counters.bump(counters.key_switch);
  counters.bump(counters.key_bytes_read,
                nd * (level + alpha_) * 2 * n * sizeof(u64));
  if (g != 1) counters.bump(counters.automorphism);
  std::vector<RnsPoly> acc = key_slabs(2);
  const auto& kern = ctx_.exec().kernels();
  // The inner product runs on the unpermuted digits against keys stored
  // tau^-1-permuted (make_galois_key); the finish applies tau once per
  // output limb.
  const DownTarget target{&out, &h.c0, c1, g};
  mod_down(acc, level, std::span(&target, 1), [&](std::size_t i) {
    std::vector<const u64*> dig(nd), kb(nd), ka(nd);
    for (std::size_t w = 0; w < nd; ++w) {
      dig[w] = h.digits[w].rns(i).data();
      kb[w] = key.rows[w].b.rns(i).data();
      ka[w] = key.rows[w].a.rns(i).data();
    }
    kern.ksw_accumulate(acc[0].rns(i).data(), acc[1].rns(i).data(),
                        dig.data(), kb.data(), ka.data(), nd, n, nullptr,
                        key_ctx_.mod(i), /*acc0=*/false, /*acc1=*/false);
  });
  out.noise_bits = est_->key_switch(h.noise_bits, level);
  out.trace_id = record_node(static_cast<std::uint8_t>(NoiseOp::kKeySwitch),
                             record_operand(h.trace_id), -1);
}

void Bgv::rotate_hoisted_into(const HoistedCt& hoisted, long step,
                              const GaloisKeys& keys, Ciphertext& out) const {
  const std::size_t n = ctx_.n();
  const long c = static_cast<long>(n / 2);
  const long s = ((step % c) + c) % c;
  POE_ENSURE(s != 0, "rotate_hoisted_into requires a nonzero step");
  const auto it = keys.keys.find(s);
  POE_ENSURE(it != keys.keys.end(), "no rotation key for step " << s);
  auto& counters = ctx_.exec().counters();
  counters.bump(counters.hoisted_rotation);
  key_switch(hoisted, nullptr, it->second, galois_elt_for_step(n, s), out);
}

GaloisKeys Bgv::make_rotation_keys(const std::vector<long>& steps) const {
  const std::size_t n = ctx_.n();
  GaloisKeys out;
  RnsPoly s_coeff = s_ntt_;
  s_coeff.from_ntt();
  for (long step : steps) {
    const long c = static_cast<long>(n / 2);
    const long s = ((step % c) + c) % c;
    if (out.keys.count(s) != 0 || s == 0) continue;
    out.keys.emplace(s, make_galois_key(galois_elt_for_step(n, s), s_coeff));
  }
  return out;
}

void Bgv::rotate_columns_inplace(Ciphertext& a, long step,
                                 const GaloisKeys& keys) const {
  const std::size_t n = ctx_.n();
  const long c = static_cast<long>(n / 2);
  const long s = ((step % c) + c) % c;
  if (s == 0) return;
  POE_ENSURE(a.size() == 2, "rotation requires a 2-part ciphertext");
  const auto it = keys.keys.find(s);
  POE_ENSURE(it != keys.keys.end(), "no rotation key for step " << s);
  // c0 and c1 move into the pipeline; the finish writes fresh parts.
  key_switch(decompose(std::move(a.parts[0]), std::move(a.parts[1]), a),
             nullptr, it->second, galois_elt_for_step(n, s), a);
}

Ciphertext Bgv::encrypt(const Plaintext& pt) const {
  const std::size_t top = ctx_.num_primes();
  RnsPoly u = RnsPoly::sample_ternary(&ctx_, top, rng_);
  u.to_ntt();

  Ciphertext ct;
  ct.level = top;
  ct.parts.resize(2);

  ct.parts[0] = pk_b_;
  ct.parts[0].mul_inplace(u);
  ct.parts[1] = pk_a_;
  ct.parts[1].mul_inplace(u);

  ct.parts[0].add_inplace(sample_t_noise(ctx_));
  ct.parts[1].add_inplace(sample_t_noise(ctx_));

  RnsPoly m = RnsPoly::from_plaintext(&ctx_, top, pt.coeffs, true);
  ct.parts[0].add_inplace(m);
  ct.noise_bits = est_->fresh();
  ct.trace_id = record_node(static_cast<std::uint8_t>(NoiseOp::kFresh), -1, -1);
  return ct;
}

template <class Visit>
void Bgv::for_each_centred_coeff(const Ciphertext& ct, Visit&& visit) const {
  POE_ENSURE(ct.size() >= 2 && ct.size() <= 3, "unsupported ciphertext size");
  // The secret (and its square) live at the top level; the fused accumulate
  // reads only the ciphertext's active components.
  RnsPoly v = ct.parts[0];
  v.add_mul_inplace(ct.parts[1], s_ntt_);
  if (ct.size() == 3) {
    v.add_mul_inplace(ct.parts[2], s_sq_ntt_);
  }
  v.from_ntt();
  const LevelData& lvl = ctx_.level(ct.level);
  for (std::size_t idx = 0; idx < ctx_.n(); ++idx) {
    // CRT reconstruction: sum [v_i * q_hat_inv_i]_{q_i} * q_hat_i mod q.
    UBig acc;
    for (std::size_t i = 0; i < ct.level; ++i) {
      const auto& m = ctx_.mod(i);
      const u64 term = m.mul(v.rns(i)[idx], lvl.q_hat_inv[i]);
      UBig contrib = lvl.q_hat[i];
      contrib.mul_u64(term);
      acc.add(contrib);
    }
    acc.mod_by_subtraction(lvl.q);
    // Centred lift: a residue above q/2 stands for residue - q.
    const bool negative = acc > lvl.q_half;
    if (negative) {
      UBig tmp = lvl.q;
      tmp.sub(acc);
      acc = std::move(tmp);
    }
    visit(idx, acc, negative);
  }
}

Plaintext Bgv::decrypt(const Ciphertext& ct) const {
  Plaintext out;
  out.coeffs.resize(ctx_.n());
  for_each_centred_coeff(
      ct, [&](std::size_t idx, const UBig& magnitude, bool negative) {
        const u64 r = magnitude.mod_u64(params_.t);
        out.coeffs[idx] = negative ? (r == 0 ? 0 : params_.t - r) : r;
      });
  return out;
}

double Bgv::noise_budget_bits(const Ciphertext& ct) const {
  unsigned max_bits = 0;
  for_each_centred_coeff(ct, [&](std::size_t, const UBig& magnitude, bool) {
    max_bits = std::max(max_bits, magnitude.bit_length());
  });
  return static_cast<double>(ctx_.level(ct.level).q.bit_length()) - 1.0 -
         static_cast<double>(max_bits);
}

void Bgv::add_inplace(Ciphertext& a, const Ciphertext& b) const {
  POE_ENSURE(a.level == b.level, "level mismatch (use match_levels)");
  POE_ENSURE(a.size() == b.size(), "ciphertext size mismatch");
  for (std::size_t i = 0; i < a.size(); ++i) {
    a.parts[i].add_inplace(b.parts[i]);
  }
  a.noise_bits = est_->add(a.noise_bits, b.noise_bits);
  a.trace_id = record_node(static_cast<std::uint8_t>(NoiseOp::kAdd),
                           record_operand(a.trace_id),
                           record_operand(b.trace_id));
}

void Bgv::sub_inplace(Ciphertext& a, const Ciphertext& b) const {
  POE_ENSURE(a.level == b.level, "level mismatch (use match_levels)");
  POE_ENSURE(a.size() == b.size(), "ciphertext size mismatch");
  for (std::size_t i = 0; i < a.size(); ++i) {
    a.parts[i].sub_inplace(b.parts[i]);
  }
  a.noise_bits = est_->add(a.noise_bits, b.noise_bits);
  a.trace_id = record_node(static_cast<std::uint8_t>(NoiseOp::kAdd),
                           record_operand(a.trace_id),
                           record_operand(b.trace_id));
}

void Bgv::negate_inplace(Ciphertext& a) const {
  for (auto& part : a.parts) part.negate_inplace();
}

void Bgv::add_plain_inplace(Ciphertext& a, const Plaintext& pt) const {
  RnsPoly m = RnsPoly::from_plaintext(&ctx_, a.level, pt.coeffs, true);
  a.parts[0].add_inplace(m);
  a.noise_bits = est_->add_plain(a.noise_bits);
  a.trace_id = record_node(static_cast<std::uint8_t>(NoiseOp::kAddPlain),
                           record_operand(a.trace_id), -1);
}

void Bgv::sub_plain_inplace(Ciphertext& a, const Plaintext& pt) const {
  RnsPoly m = RnsPoly::from_plaintext(&ctx_, a.level, pt.coeffs, true);
  a.parts[0].sub_inplace(m);
  a.noise_bits = est_->add_plain(a.noise_bits);
  a.trace_id = record_node(static_cast<std::uint8_t>(NoiseOp::kAddPlain),
                           record_operand(a.trace_id), -1);
}

std::vector<std::size_t> Bgv::plain_products(std::span<const PlainTerm> terms,
                                             std::span<Ciphertext> outs) const {
  std::vector<std::size_t> count(outs.size(), 0);
  if (terms.empty()) return count;
  const std::size_t level = terms[0].src->level;
  const std::size_t parts = terms[0].src->size();
  std::size_t lifted = 0;
  for (const PlainTerm& term : terms) {
    POE_ENSURE(term.out < outs.size() && term.src->level == level &&
                   term.src->size() == parts &&
                   (term.ntt == nullptr || term.ntt->level() >= level),
               "plaintext product terms must share a level and a size");
    for (const auto& part : term.src->parts) {
      POE_ENSURE(part.context() == &ctx_ && part.is_ntt(),
                 "pointwise multiply requires NTT form in this context");
    }
    lifted += term.ntt == nullptr ? 1 : 0;
    ++count[term.out];
  }
  // An in-place output reshapes onto its own slab, keeping its words.
  for (std::size_t o = 0; o < outs.size(); ++o) {
    if (count[o] == 0) continue;
    outs[o].level = level;
    outs[o].parts.resize(parts);
    for (auto& part : outs[o].parts) {
      part.reshape_uninit(&ctx_, level, /*ntt_form=*/true);
    }
  }
  const std::size_t n = ctx_.n();
  const auto& kern = ctx_.exec().kernels();
  // A product with fewer limb transforms than this (an extraction near the
  // bottom of the chain, an NTT-form weight) is a few microseconds of work,
  // less than waking the pool costs, so it runs on the calling thread.
  constexpr std::size_t kMinForkTransforms = 4;
  const unsigned executors = level * lifted < kMinForkTransforms ? 1 : 0;
  parallel_for(outs.size() * level, [&](std::size_t task) {
    const std::size_t o = task / level;
    const std::size_t i = task % level;
    std::vector<u64> limb;
    bool first = true;
    for (const PlainTerm& term : terms) {
      if (term.out != o) continue;
      const u64* w = term.ntt != nullptr ? term.ntt->rns(i).data() : nullptr;
      if (w == nullptr) {
        limb.resize(n);
        RnsPoly::lift_plaintext(&ctx_, i, term.coeffs, limb);
        ctx_.ntt(i).forward(limb, kern);
        w = limb.data();
      }
      for (std::size_t p = 0; p < parts; ++p) {
        u64* dst = outs[o].parts[p].rns(i).data();
        const u64* src = term.src->parts[p].rns(i).data();
        if (first) {
          if (dst != src) std::copy_n(src, n, dst);
          kern.mul(dst, w, n, ctx_.mod(i));
        } else {
          kern.add_mul(dst, src, w, n, ctx_.mod(i));
        }
      }
      first = false;
    }
  }, executors);
  auto& counters = ctx_.exec().counters();
  counters.bump(counters.ntt_forward, level * lifted);
  return count;
}

void Bgv::mul_plain_term(Ciphertext& a, const PlainTerm& term) const {
  plain_products(std::span<const PlainTerm>(&term, 1),
                 std::span<Ciphertext>(&a, 1));
  a.noise_bits = est_->mul_plain(a.noise_bits);
  a.trace_id = record_node(static_cast<std::uint8_t>(NoiseOp::kMulPlain),
                           record_operand(a.trace_id), -1);
}

void Bgv::mul_plain_inplace(Ciphertext& a, const Plaintext& pt) const {
  mul_plain_term(a, PlainTerm{.src = &a, .coeffs = pt.coeffs});
}

void Bgv::mul_plain_inplace(Ciphertext& a, const RnsPoly& weight_ntt) const {
  mul_plain_term(a, PlainTerm{.src = &a, .ntt = &weight_ntt});
}

RnsPoly Bgv::ntt_weight(const Plaintext& pt) const {
  return RnsPoly::from_plaintext(&ctx_, ctx_.num_primes(), pt.coeffs,
                                 /*to_ntt_form=*/true);
}

Ciphertext Bgv::weighted_sum(std::span<const Ciphertext* const> srcs,
                             std::span<const Plaintext> weights) const {
  POE_ENSURE(!srcs.empty() && srcs.size() == weights.size(),
             "weighted sum needs one weight per source");
  std::vector<PlainTerm> terms(srcs.size());
  for (std::size_t j = 0; j < srcs.size(); ++j) {
    terms[j] = {.src = srcs[j], .coeffs = weights[j].coeffs};
  }
  Ciphertext sum;
  plain_products(terms, std::span<Ciphertext>(&sum, 1));
  // The same estimator steps and tape nodes, in the same order, as
  // mul_plain_inplace on each source and add_inplace on the partial sums.
  struct Partial {
    std::size_t rank = 0;
    double noise_bits = 0;
    std::int32_t trace_id = -1;
  };
  const auto add_into = [&](Partial& into, const Partial& other) {
    into.noise_bits = est_->add(into.noise_bits, other.noise_bits);
    into.trace_id = record_node(static_cast<std::uint8_t>(NoiseOp::kAdd),
                                record_operand(into.trace_id),
                                record_operand(other.trace_id));
  };
  std::vector<Partial> partial;
  for (const Ciphertext* src : srcs) {
    Partial masked{0, est_->mul_plain(src->noise_bits),
                   record_node(static_cast<std::uint8_t>(NoiseOp::kMulPlain),
                               record_operand(src->trace_id), -1)};
    for (; !partial.empty() && partial.back().rank == masked.rank;
         partial.pop_back(), ++masked.rank) {
      add_into(masked, partial.back());
    }
    partial.push_back(masked);
  }
  Partial merged = partial.back();
  for (partial.pop_back(); !partial.empty(); partial.pop_back()) {
    add_into(merged, partial.back());
  }
  sum.noise_bits = merged.noise_bits;
  sum.trace_id = merged.trace_id;
  return sum;
}

void Bgv::diagonal_sum(const Ciphertext& ct,
                       std::span<const std::vector<Plaintext>> weights,
                       const GaloisKeys& keys,
                       std::span<Ciphertext> outs) const {
  POE_ENSURE(weights.size() == outs.size(),
             "diagonal sum needs one weight list per output");
  POE_ENSURE(ct.size() == 2, "diagonal sum requires a 2-part ciphertext");
  const std::size_t n = ctx_.n();
  const std::size_t level = ct.level;
  const auto live = [&](std::size_t v, std::size_t k) {
    return k < weights[v].size() && !weights[v][k].coeffs.empty();
  };
  std::size_t width = 0;  // steps 0..width-1
  for (const auto& w : weights) width = std::max(width, w.size());
  // Every output with a live term takes one accumulator pair and one
  // mod-down target; one with none is left empty.
  std::vector<std::size_t> count(outs.size(), 0), output_of;
  std::vector<DownTarget> targets;
  std::size_t terms = 0, switched_terms = 0;  // live; those with k >= 1
  for (std::size_t v = 0; v < outs.size(); ++v) {
    for (std::size_t k = 0; k < width; ++k) count[v] += live(v, k) ? 1 : 0;
    if (count[v] == 0) {
      outs[v] = Ciphertext{};
      continue;
    }
    terms += count[v];
    switched_terms += count[v] - (live(v, 0) ? 1 : 0);
    output_of.push_back(v);
    targets.push_back({.out = &outs[v]});
  }
  if (targets.empty()) return;
  struct Step {
    std::size_t k;
    const KswKey* key;
    const std::uint32_t* perm;
  };
  std::vector<Step> steps;
  const long c = static_cast<long>(n / 2);
  for (std::size_t k = 1; k < width; ++k) {
    bool any = false;
    for (const std::size_t v : output_of) any = any || live(v, k);
    if (!any) continue;
    const long s = static_cast<long>(k) % c;
    POE_ENSURE(s != 0, "diagonal sum step " << k << " is a zero rotation");
    const auto it = keys.keys.find(s);
    POE_ENSURE(it != keys.keys.end(), "no rotation key for step " << s);
    steps.push_back({k, &it->second,
                     ctx_.galois_ntt_perm(galois_elt_for_step(n, s)).data()});
  }
  // c0 enters below as P * c0 straight from ct, so the hoist takes no copy.
  const HoistedCt h =
      steps.empty() ? HoistedCt{} : decompose(RnsPoly{}, ct.parts[1], ct);
  const std::size_t nd = h.digits.size();
  for (const Step& step : steps) {
    POE_ENSURE(nd <= step.key->rows.size(),
               "key-switching key has too few rows");
  }
  const std::size_t pairs = targets.size();
  // Per-limb temporaries after the accumulator pairs: the inner product,
  // its permutation, the lifted diagonal and P * c0.
  enum { kIp0, kIp1, kRot0, kRot1, kWeight, kPc0, kTemps };
  std::vector<RnsPoly> acc = key_slabs(2 * pairs + kTemps);
  const auto& kern = ctx_.exec().kernels();
  // Per limb i of Q_l u P, output v's accumulator pair is
  //   sum_{k >= 1} d_k * tau_k(ip_k + (P c0, 0)) + P d_0 ct,
  // with ip_k the raw inner product pair against the tau_k^-1-permuted key.
  // The P multiples vanish on the special limbs, so the mod-down's delta
  // sees only the switched terms and (x + P y - delta) / P = (x - delta) /
  // P + y: the output is the rotate-multiply-add sum, rounded once.
  mod_down(acc, level, targets, [&](std::size_t i) {
    const bool chain = i < level;
    const auto& m = key_ctx_.mod(i);
    const auto temp = [&](std::size_t which) {
      return acc[2 * pairs + which].rns(i).data();
    };
    u64* w = temp(kWeight);
    const auto lift = [&](const Plaintext& pt) {
      RnsPoly::lift_plaintext(&key_ctx_, i, pt.coeffs, {w, n});
      key_ctx_.ntt(i).forward({w, n}, kern);
    };
    for (std::size_t x = 0; x < 2 * pairs; ++x) {
      std::fill_n(acc[x].rns(i).data(), n, u64{0});
    }
    if (chain) {
      const ShoupConst& p = p_mod_q_[i];
      for (std::size_t j = 0; j < pairs; ++j) {
        const std::size_t v = output_of[j];
        if (!live(v, 0)) continue;
        lift(weights[v][0]);
        kern.mul_shoup(w, w, n, p.w, p.w_shoup, m.value());
        for (std::size_t q = 0; q < 2; ++q) {
          kern.add_mul(acc[2 * j + q].rns(i).data(),
                       ct.parts[q].rns(i).data(), w, n, m);
        }
      }
      if (!steps.empty()) {
        kern.mul_shoup(temp(kPc0), ct.parts[0].rns(i).data(), n, p.w,
                       p.w_shoup, m.value());
      }
    }
    std::vector<const u64*> dig(nd), kb(nd), ka(nd);
    for (std::size_t d = 0; d < nd; ++d) dig[d] = h.digits[d].rns(i).data();
    for (const Step& step : steps) {
      for (std::size_t d = 0; d < nd; ++d) {
        kb[d] = step.key->rows[d].b.rns(i).data();
        ka[d] = step.key->rows[d].a.rns(i).data();
      }
      kern.ksw_accumulate(temp(kIp0), temp(kIp1), dig.data(), kb.data(),
                          ka.data(), nd, n, nullptr, m, /*acc0=*/false,
                          /*acc1=*/false);
      if (chain) kern.add(temp(kIp0), temp(kPc0), n, m);
      kern.permute(temp(kRot0), temp(kIp0), step.perm, n);
      kern.permute(temp(kRot1), temp(kIp1), step.perm, n);
      for (std::size_t j = 0; j < pairs; ++j) {
        const std::size_t v = output_of[j];
        if (!live(v, step.k)) continue;
        lift(weights[v][step.k]);
        kern.add_mul(acc[2 * j].rns(i).data(), temp(kRot0), w, n, m);
        kern.add_mul(acc[2 * j + 1].rns(i).data(), temp(kRot1), w, n, m);
      }
    }
  });
  auto& counters = ctx_.exec().counters();
  counters.bump(counters.hoisted_rotation, steps.size());
  counters.bump(counters.key_switch, steps.size());
  counters.bump(counters.automorphism, steps.size());
  counters.bump(counters.key_bytes_read,
                steps.size() * nd * (level + alpha_) * 2 * n * sizeof(u64));
  counters.bump(counters.ntt_forward,
                level * terms + alpha_ * switched_terms);
  for (const std::size_t v : output_of) {
    outs[v].noise_bits = est_->fused_affine(ct.noise_bits, level, count[v]);
    outs[v].trace_id =
        record_node(static_cast<std::uint8_t>(NoiseOp::kFusedAffine),
                    record_operand(ct.trace_id), -1, 0,
                    static_cast<std::uint32_t>(count[v]));
  }
}

void Bgv::mul_scalar_inplace(Ciphertext& a, u64 scalar) const {
  for (auto& part : a.parts) part.mul_scalar_inplace(scalar);
  a.noise_bits = est_->mul_scalar(a.noise_bits, scalar);
  a.trace_id = record_node(static_cast<std::uint8_t>(NoiseOp::kMulScalar),
                           record_operand(a.trace_id), -1, scalar);
}

void Bgv::add_scalar_inplace(Ciphertext& a, u64 scalar) const {
  POE_ENSURE(scalar < params_.t, "scalar out of range");
  // The NTT of a constant polynomial is that constant in every slot.
  const bool negative = scalar > params_.t / 2;
  const u64 magnitude = negative ? params_.t - scalar : scalar;
  for (std::size_t i = 0; i < a.level; ++i) {
    const auto& m = ctx_.mod(i);
    const u64 lifted = negative ? m.neg(magnitude) : magnitude;
    auto span = a.parts[0].rns(i);
    for (auto& x : span) x = m.add(x, lifted);
  }
  a.noise_bits = est_->add_scalar(a.noise_bits);
  a.trace_id = record_node(static_cast<std::uint8_t>(NoiseOp::kAddScalar),
                           record_operand(a.trace_id), -1);
}

Ciphertext Bgv::multiply(const Ciphertext& a, const Ciphertext& b) const {
  POE_ENSURE(a.level == b.level, "level mismatch (use match_levels)");
  POE_ENSURE(a.size() == 2 && b.size() == 2,
             "multiply requires relinearised inputs");
  auto& counters = ctx_.exec().counters();
  counters.bump(counters.ct_ct_mul);
  Ciphertext out;
  out.level = a.level;
  out.parts.resize(3);
  // (a0 b0, a0 b1 + a1 b0, a1 b1)
  out.parts[0] = a.parts[0];
  out.parts[0].mul_inplace(b.parts[0]);
  RnsPoly cross = a.parts[0];
  cross.mul_inplace(b.parts[1]);
  cross.add_mul_inplace(a.parts[1], b.parts[0]);
  out.parts[1] = std::move(cross);
  out.parts[2] = a.parts[1];
  out.parts[2].mul_inplace(b.parts[1]);
  out.noise_bits = est_->multiply(a.noise_bits, b.noise_bits);
  out.trace_id = record_node(static_cast<std::uint8_t>(NoiseOp::kMultiply),
                             record_operand(a.trace_id),
                             record_operand(b.trace_id));
  return out;
}

Ciphertext Bgv::multiply_relin(const Ciphertext& a,
                               const Ciphertext& b) const {
  Ciphertext out = multiply(a, b);
  relinearize_inplace(out);
  mod_switch_inplace(out);
  return out;
}

void Bgv::relinearize_inplace(Ciphertext& a) const {
  if (a.size() == 2) return;
  POE_ENSURE(a.size() == 3, "unexpected ciphertext size");
  // c2 is switched onto s with the identity automorphism; the finish adds
  // the result to c0 and c1.
  const RnsPoly c1 = std::move(a.parts[1]);
  key_switch(decompose(std::move(a.parts[0]), std::move(a.parts[2]), a), &c1,
             rlk_, 1, a);
}

void Bgv::mod_switch_inplace(Ciphertext& a) const {
  POE_ENSURE(a.level >= 2, "cannot switch below the last prime");
  mod_switch_to(a, a.level - 1);
}

void Bgv::mod_switch_to(Ciphertext& a, std::size_t level) const {
  POE_ENSURE(level >= 1 && level <= a.level, "invalid target level");
  if (level == a.level) return;
  auto& counters = ctx_.exec().counters();
  counters.bump(counters.mod_switch, a.level - level);
  // The whole chain of prime drops runs in coefficient form, so a k-level
  // switch costs ONE inverse/forward transform pair per part instead of k —
  // bit-identical to sequential switching, since the NTT round trips between
  // drops are exact identities.
  for (auto& part : a.parts) {
    part.from_ntt();
    for (std::size_t cur = a.level; cur > level; --cur) {
      const LevelData& lvl = ctx_.level(cur);
      const std::size_t last = cur - 1;
      const u64 qlast = ctx_.prime(last);
      const u64 qlast_half = qlast / 2;
      // u = [c * t^{-1}]_{q_last} depends only on the coefficient, so it is
      // computed once, in place over the limb about to be dropped.
      const auto u_last = part.rns(last);
      const auto& mlast = ctx_.mod(last);
      for (auto& c : u_last) c = mlast.mul(c, lvl.t_inv_mod_qlast);
      for (std::size_t i = 0; i < last; ++i) {
        const auto& m = ctx_.mod(i);
        const u64 t_mod = params_.t % m.value();
        const u64 t_qlast_mod = m.mul(t_mod, qlast % m.value());
        auto ci = part.rns(i);
        for (std::size_t idx = 0; idx < ci.size(); ++idx) {
          // u centered; delta = t * u = t * (u mod q_i), one wide Barrett
          // reduction of the < 2^124 product instead of a division.
          const u64 u = u_last[idx];
          u64 delta = m.reduce128_barrett(u128{t_mod} * u);
          if (u > qlast_half) delta = m.sub(delta, t_qlast_mod);
          // c' = (c - delta) / q_last.
          ci[idx] = m.mul(m.sub(ci[idx], delta), lvl.qlast_inv[i]);
        }
      }
      part.drop_last_component();
    }
    part.to_ntt();
  }
  // One estimator step per dropped prime; the tape deliberately records
  // nothing (the parameter-search replay schedules its own switches).
  for (std::size_t cur = a.level; cur > level; --cur) {
    a.noise_bits = est_->mod_switch(a.noise_bits, a.size());
  }
  a.level = level;
}

void Bgv::match_levels(Ciphertext& a, Ciphertext& b) const {
  const std::size_t target = std::min(a.level, b.level);
  mod_switch_to(a, target);
  mod_switch_to(b, target);
}

}  // namespace poe::fhe
