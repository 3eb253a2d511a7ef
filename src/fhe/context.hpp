// RNS context for the BGV substrate: the prime chain, per-prime NTTs, and
// the CRT / modulus-switching precomputations for every level.
//
// A ciphertext at *level* L uses the first L primes of the chain
// (q = q_0 * ... * q_{L-1}); modulus switching drops the last active prime.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "common/bignum.hpp"
#include "common/exec_context.hpp"
#include "fhe/ntt.hpp"
#include "modular/modulus.hpp"

namespace poe::fhe {

/// Precomputations for one level (L = number of active primes).
struct LevelData {
  std::size_t num_primes = 0;
  UBig q;       ///< product of active primes
  UBig q_half;  ///< floor(q / 2), centering threshold
  std::vector<UBig> q_hat;                ///< q / q_i
  std::vector<std::uint64_t> q_hat_inv;   ///< (q/q_i)^{-1} mod q_i
  /// Modulus switching from this level (dropping q_{L-1}):
  std::vector<std::uint64_t> qlast_inv;  ///< q_{L-1}^{-1} mod q_i, i < L-1
  std::uint64_t t_inv_mod_qlast = 0;     ///< t^{-1} mod q_{L-1}
};

class RnsContext {
 public:
  /// n: ring degree (power of two); t: plaintext modulus; primes: the RNS
  /// chain, each ≡ 1 (mod 2n) and coprime to t. Polynomials built on this
  /// context draw their slabs from (and report their operations to) `exec`;
  /// nullptr means the process-wide ExecContext::global().
  RnsContext(std::size_t n, std::uint64_t t, std::vector<std::uint64_t> primes,
             ExecContext* exec = nullptr);

  /// Execution resources (slab pool, thread pool, op counters).
  ExecContext& exec() const { return *exec_; }

  std::size_t n() const { return n_; }
  std::size_t num_primes() const { return primes_.size(); }
  std::uint64_t prime(std::size_t i) const { return primes_[i]; }
  const mod::Modulus& mod(std::size_t i) const { return mods_[i]; }
  const Ntt& ntt(std::size_t i) const { return *ntts_[i]; }
  std::uint64_t t() const { return t_; }
  const mod::Modulus& t_mod() const { return t_mod_; }

  /// Level data for L active primes (1 <= L <= num_primes).
  const LevelData& level(std::size_t num_active) const;

  /// The Galois automorphism X -> X^g (g odd, taken mod 2n) as a permutation
  /// of NTT slots: applying tau_g to a polynomial in evaluation form is
  /// out[i] = in[perm[i]], identically in every RNS component — the
  /// negacyclic NTT evaluates at the odd powers of a 2n-th root of unity, so
  /// tau_g only relabels which root each slot holds, and the butterfly
  /// ordering of those roots is structural (prime-independent). Permutations
  /// are built lazily, cached per g, and immutable once published, so the
  /// returned span stays valid for the context's lifetime and calls are
  /// thread-safe.
  std::span<const std::uint32_t> galois_ntt_perm(std::uint64_t g) const;

 private:
  /// Maps NTT slot i to the exponent e_i with slot value f(psi^{e_i})
  /// (Ntt::slot_exponents, which SlotLayout also reads for the plaintext
  /// slot order) and back. Caller must hold perm_mu_.
  void build_exponent_table() const;

  ExecContext* exec_;
  std::size_t n_;
  std::uint64_t t_;
  mod::Modulus t_mod_;
  std::vector<std::uint64_t> primes_;
  std::vector<mod::Modulus> mods_;
  std::vector<std::unique_ptr<Ntt>> ntts_;
  std::vector<LevelData> levels_;  // index L-1

  mutable std::mutex perm_mu_;
  mutable std::vector<std::uint32_t> ntt_exponent_;       // slot -> exponent
  mutable std::vector<std::uint32_t> index_of_exponent_;  // exponent -> slot
  mutable std::map<std::uint64_t, std::vector<std::uint32_t>> galois_perms_;
};

}  // namespace poe::fhe
