#include "fhe/context.hpp"

#include <unordered_map>

#include "common/error.hpp"
#include "modular/primes.hpp"

namespace poe::fhe {

RnsContext::RnsContext(std::size_t n, std::uint64_t t,
                       std::vector<std::uint64_t> primes, ExecContext* exec)
    : exec_(exec != nullptr ? exec : &ExecContext::global()),
      n_(n),
      t_(t),
      t_mod_(t),
      primes_(std::move(primes)) {
  POE_ENSURE(!primes_.empty(), "empty RNS basis");
  POE_ENSURE(mod::is_prime(t_), "plaintext modulus must be prime");
  for (std::uint64_t q : primes_) {
    POE_ENSURE(mod::is_prime(q), "RNS modulus " << q << " is not prime");
    POE_ENSURE(q % t_ != 0 && q != t_, "RNS modulus shares a factor with t");
    mods_.emplace_back(q);
    ntts_.push_back(std::make_unique<Ntt>(q, n));
  }
  for (std::size_t i = 0; i < primes_.size(); ++i) {
    for (std::size_t j = i + 1; j < primes_.size(); ++j) {
      POE_ENSURE(primes_[i] != primes_[j], "duplicate RNS prime");
    }
  }

  levels_.resize(primes_.size());
  for (std::size_t lvl = 1; lvl <= primes_.size(); ++lvl) {
    LevelData& d = levels_[lvl - 1];
    d.num_primes = lvl;
    d.q = UBig::product({primes_.begin(),
                         primes_.begin() + static_cast<std::ptrdiff_t>(lvl)});
    d.q_half = d.q;
    d.q_half.shr1();
    d.q_hat.resize(lvl);
    d.q_hat_inv.resize(lvl);
    for (std::size_t j = 0; j < lvl; ++j) {
      UBig hat = UBig::one();
      for (std::size_t i = 0; i < lvl; ++i) {
        if (i != j) hat.mul_u64(primes_[i]);
      }
      const std::uint64_t hat_mod_qj = hat.mod_u64(primes_[j]);
      d.q_hat_inv[j] = mods_[j].inv(hat_mod_qj);
      d.q_hat[j] = hat;
    }
    if (lvl >= 2) {
      const std::uint64_t qlast = primes_[lvl - 1];
      d.qlast_inv.resize(lvl - 1);
      for (std::size_t i = 0; i + 1 < lvl; ++i) {
        d.qlast_inv[i] = mods_[i].inv(qlast % primes_[i]);
      }
    }
    d.t_inv_mod_qlast = mods_[lvl - 1].inv(t_ % primes_[lvl - 1]);
  }
}

const LevelData& RnsContext::level(std::size_t num_active) const {
  POE_ENSURE(num_active >= 1 && num_active <= levels_.size(),
             "invalid level " << num_active);
  return levels_[num_active - 1];
}

void RnsContext::build_exponent_table() const {
  // Forward-transform the monomial X in the first RNS component: slot i then
  // holds psi^{e_i}, the root the butterflies routed there. The exponent map
  // is structural — it depends only on n and the bit-reversed butterfly
  // schedule — so discovering it against prime 0 is valid for every
  // component.
  std::vector<std::uint64_t> x(n_, 0);
  x[1] = 1;
  ntts_[0]->forward(x);
  const mod::Modulus& m = mods_[0];
  const std::uint64_t psi = mod::root_of_unity(primes_[0], 2 * n_);
  std::unordered_map<std::uint64_t, std::uint32_t> dlog;
  dlog.reserve(2 * n_);
  std::uint64_t pw = 1;
  for (std::uint32_t e = 0; e < 2 * n_; ++e) {
    dlog.emplace(pw, e);
    pw = m.mul(pw, psi);
  }
  ntt_exponent_.resize(n_);
  index_of_exponent_.assign(2 * n_, 0);
  for (std::size_t i = 0; i < n_; ++i) {
    const auto it = dlog.find(x[i]);
    POE_ENSURE(it != dlog.end() && it->second % 2 == 1,
               "NTT slot value is not an odd power of psi");
    ntt_exponent_[i] = it->second;
    index_of_exponent_[it->second] = static_cast<std::uint32_t>(i);
  }
}

std::span<const std::uint32_t> RnsContext::galois_ntt_perm(
    std::uint64_t g) const {
  const std::uint64_t two_n = 2 * n_;
  g %= two_n;
  POE_ENSURE(g % 2 == 1, "Galois element must be odd: " << g);
  std::lock_guard<std::mutex> lock(perm_mu_);
  const auto it = galois_perms_.find(g);
  if (it != galois_perms_.end()) return it->second;
  if (ntt_exponent_.empty()) build_exponent_table();
  // tau_g maps slot value f(psi^e) to f(psi^{e*g}), so the slot that held
  // exponent e*g before the automorphism supplies slot i after it.
  std::vector<std::uint32_t> perm(n_);
  for (std::size_t i = 0; i < n_; ++i) {
    const std::uint64_t e = (ntt_exponent_[i] * g) % two_n;
    perm[i] = index_of_exponent_[e];
  }
  // Map nodes are stable and entries immutable once inserted, so the span
  // survives the unlock.
  return galois_perms_.emplace(g, std::move(perm)).first->second;
}

}  // namespace poe::fhe
