#include "fhe/context.hpp"

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
  // The exponent map is structural, so prime 0's serves every component.
  ntt_exponent_ = ntts_[0]->slot_exponents();
  index_of_exponent_.assign(2 * n_, 0);
  for (std::size_t i = 0; i < n_; ++i) {
    index_of_exponent_[ntt_exponent_[i]] = static_cast<std::uint32_t>(i);
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
