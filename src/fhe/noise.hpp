// Static noise-bound tracking for BGV ciphertexts.
//
// The server cannot measure noise (that needs the secret key); it must
// *bound* it. NoiseEstimator mirrors every homomorphic operation with a
// conservative bound in log2 — the invariant, checked by property tests, is
// that the estimated budget is never larger than the true (secret-key
// measured) budget. Circuit designers use it to place modulus switches
// without oracle access; Bgv maintains one bound per ciphertext
// (Ciphertext::noise_bits) and the automatic mod-switch scheduler
// (Bgv::auto_switch_inplace) consults it to drop primes as early as the
// bound allows.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "fhe/bgv.hpp"
#include "modular/primes.hpp"

namespace poe::fhe {

class NoiseEstimator {
 public:
  /// Reads the key basis's primes from the chain generator (the same
  /// primes Bgv builds its contexts from), so construct one per parameter
  /// set, not per operation.
  explicit NoiseEstimator(const BgvParams& params)
      : params_(params),
        log_n_(std::log2(static_cast<double>(params.n))),
        log_t_(std::log2(static_cast<double>(params.t))),
        alpha_(params.special_primes()) {
    const auto chain = mod::bgv_prime_chain(params.num_primes + alpha_,
                                            params.prime_bits, params.n,
                                            params.t);
    log_group_.assign(alpha_ + 1, 0.0);
    for (std::size_t j = 0; j < alpha_; ++j) {
      log_group_[j + 1] =
          log_group_[j] + std::log2(static_cast<double>(chain[j]));
      log_p_ += std::log2(
          static_cast<double>(chain[params.num_primes + j]));
    }
  }

  /// Bound (bits) on a fresh encryption's invariant |c0 + c1 s|.
  double fresh() const {
    // t * (e0 + u*e_pk + s*e1) + m: eta=2 noise, ternary u/s.
    return log_t_ + std::log2(3.0) + log_n_ + 2.0;
  }

  double add(double a, double b) const { return std::max(a, b) + 1.0; }

  double add_scalar(double a) const { return std::max(a, log_t_) + 1.0; }

  /// Add a plaintext polynomial (coefficients < t, centered <= t/2).
  double add_plain(double a) const { return std::max(a, log_t_) + 1.0; }

  double mul_scalar(double a, std::uint64_t scalar) const {
    const std::uint64_t t = params_.t;
    const std::uint64_t mag = scalar > t / 2 ? t - scalar : scalar;
    return a + std::log2(static_cast<double>(mag) + 1.0);
  }

  /// Multiply by an arbitrary plaintext polynomial (coefficients < t).
  double mul_plain(double a) const { return a + log_t_ + log_n_; }

  double multiply(double a, double b) const { return a + b + log_n_ + 1.0; }

  /// Key-switching additive term (relinearisation, rotation or ingest) of
  /// the special-modulus switch at `level`, with dnum =
  /// ceil(level / alpha) digit groups. The inner product over Q_l u P
  /// leaves x0 + x1 s = P c s' + t E with E = sum_b digit_b e_b, and the
  /// mod-down adds (t E - delta0 - delta1 s) / P to the invariant, where
  /// delta = t [x t^{-1}]_P:
  ///   * each basis-extended digit is below alpha Q_b (the fast conversion
  ///     adds at most alpha - 1 multiples of Q_b to c mod Q_b);
  ///   * key noise is |e_b| <= 2 (eta = 2), so |t E| / P <= t * 2 dnum n
  ///     alpha Q_b / P;
  ///   * the mod-down remainder satisfies r / P < 1, and its fast
  ///     conversion to the chain overshoots by u < alpha multiples of P, so
  ///     |delta0 + delta1 s| / P <= t (1 + n)(1 + alpha) for ternary s.
  /// Hence t [2 dnum n alpha (Q_b / P) + (1 + n)(1 + alpha)], with Q_b the
  /// largest group product at `level` (the first group: the chain is
  /// descending) and P the special primes' product, both from the actual
  /// primes.
  double ksw_bound(std::size_t level) const {
    const std::size_t groups = (level + alpha_ - 1) / alpha_;
    const double q_over_p =
        std::exp2(log_group_[std::min(alpha_, level)] - log_p_);
    const double n = static_cast<double>(params_.n);
    const double a = static_cast<double>(alpha_);
    return log_t_ + std::log2(2.0 * static_cast<double>(groups) * n * a *
                                  q_over_p +
                              (1.0 + n) * (1.0 + a));
  }

  /// Bound after one key switch at `level` — the one formula for every
  /// switch Bgv runs (they all share one pipeline).
  double key_switch(double a, std::size_t level) const {
    return std::max(a, ksw_bound(level)) + 1.0;
  }

  /// Bound after one double-hoisted diagonal accumulation
  /// (Bgv::diagonal_sum): `terms` plaintext-times-rotation products of one
  /// hoisted state summed over Q_l u P and closed by ONE mod-down. With v
  /// the state's invariant noise, d_k the diagonals (|d_k y| <= t n |y|),
  /// E_k the key noise of step k and delta the accumulator's correction,
  /// the output's invariant noise is
  ///   sum_k d_k (tau_k(v) + t E_k / P) - (delta0 + delta1 s) / P,
  /// the unrotated k = 0 term carrying no E. tau_k keeps |v|, and
  /// ksw_bound B covers |t E_k| / P and |delta0 + delta1 s| / P together,
  /// so with M = max(|v|, B) the sum is at most terms t n (|v| + |t E| /
  /// P) + |delta s| / P <= terms t n (M + B) <= terms t n 2M, which is
  /// mul_plain(key_switch(v)) + log2(terms). The rounding enters once,
  /// unscaled by any diagonal, where this formula charges it once per term
  /// times t n, so the bound holds with that much slack.
  double fused_affine(double state_noise, std::size_t level,
                      std::size_t terms) const {
    return mul_plain(key_switch(state_noise, level)) +
           std::log2(static_cast<double>(terms));
  }

  /// Rounding floor of a modulus switch on a ciphertext with `parts`
  /// components: the correction delta_i = t [c_i t^{-1}]_{q_last} adds
  /// (delta_0 + delta_1 s + delta_2 s^2) / q_last to the invariant, so a
  /// 3-part (pre-relinearisation) switch pays an extra ||s^2||_1 <= n
  /// factor on its floor.
  double mod_switch_floor(std::size_t parts) const {
    return parts >= 3 ? log_t_ + 2.0 * log_n_ + 2.0 : log_t_ + log_n_ + 2.0;
  }

  double mod_switch(double a, std::size_t parts) const {
    return std::max(a - params_.prime_bits, mod_switch_floor(parts));
  }

  /// 2-part convenience overload (the post-relinearisation common case).
  double mod_switch(double a) const { return mod_switch(a, 2); }

  /// Bits of budget each greedy drop may sacrifice to the rounding floor.
  static constexpr double kSwitchMargin = 2.0;

  /// Greedy scheduler core: the lowest level reachable from (noise_bits,
  /// level) by switches that each sacrifice at most kSwitchMargin bits of
  /// budget to the rounding floor — i.e. while noise - prime_bits >=
  /// floor - kSwitchMargin. The tolerance makes the policy CONTRACTING:
  /// two runs whose bounds differ slightly (different nonce scalars, a
  /// native vs an ingest-switched tenant key) drop at the same points and
  /// both clamp to the floor, instead of bifurcating into different
  /// schedules when one of them misses a strict budget-free threshold by a
  /// fraction of a bit.
  /// One policy, three users: Bgv::auto_switch_inplace, the servers'
  /// row-aligned vector variant, and the parameter-search replay
  /// (simulate).
  std::size_t auto_drop_target(double noise_bits, std::size_t level,
                               std::size_t parts) const {
    const double floor = mod_switch_floor(parts);
    while (level > 1 &&
           noise_bits - params_.prime_bits >= floor - kSwitchMargin) {
      noise_bits = mod_switch(noise_bits, parts);
      --level;
    }
    return level;
  }

  /// Pre-multiplication drop: the level both operands of a ct-ct product
  /// (2-part, aligned at `level`) are switched to first. The product's bound
  /// is the sum of the operands' (multiply), so one more drop pays whenever
  /// it takes more than one prime's worth of bits off the two bounds
  /// together: always when both sit a prime above the floor (the greedy
  /// policy already takes those), and also when a squared operand sits more
  /// than half a prime above it. Without this rule the schedule is not
  /// monotone in the bound: a trajectory that just misses a greedy drop
  /// squares at the higher level with about twice the excess noise and ends
  /// a prime behind one that took it — so the live evaluator, which tracks
  /// the actual scalar magnitudes, could end below the worst-case replay.
  /// One rule, three users like auto_drop_target: Bgv, the coefficient
  /// server's collective drops, and simulate.
  std::size_t multiply_drop_target(double a, double b,
                                   std::size_t level) const {
    while (level > 1) {
      const double next_a = mod_switch(a);
      const double next_b = mod_switch(b);
      if ((a - next_a) + (b - next_b) <= params_.prime_bits) break;
      a = next_a;
      b = next_b;
      --level;
    }
    return level;
  }

  /// Terminal right-sizing for ciphertexts leaving the server: the lowest
  /// level reachable while the bound-derived budget stays >= keep_bits.
  /// Unlike auto_drop_target (which only takes near-free switches mid-
  /// circuit), the trim deliberately SPENDS surplus budget — once no more
  /// noise-heavy ops follow, any level beyond the safety band is wasted
  /// modulus: larger download, slower decryption, and the very parameter
  /// surplus the search exists to eliminate.
  std::size_t trim_target(double noise_bits, std::size_t level,
                          std::size_t parts, double keep_bits) const {
    while (level > 1) {
      const double dropped = mod_switch(noise_bits, parts);
      if (budget(dropped, level - 1) < keep_bits) break;
      noise_bits = dropped;
      --level;
    }
    return level;
  }

  /// Budget (bits) left at `level` given a noise bound.
  double budget(double noise_bits, std::size_t level) const {
    return static_cast<double>(level) * params_.prime_bits - 1.0 -
           noise_bits;
  }

 private:
  BgvParams params_;
  double log_n_;
  double log_t_;
  std::size_t alpha_;
  /// log2 of the product of the first j chain primes (j <= alpha), and of
  /// the special primes' product P.
  std::vector<double> log_group_;
  double log_p_ = 0.0;
};

}  // namespace poe::fhe
