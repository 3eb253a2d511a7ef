// RNS-BGV: the FHE substrate used by the HHE server to evaluate PASTA's
// decryption circuit homomorphically (paper Fig. 1).
//
// Scheme summary (plaintext modulus t, ciphertext modulus q = prod q_i):
//   sk:  ternary s.            pk: (b = -(a s) + t e, a), a uniform.
//   enc: c = (b u + t e0 + m, a u + t e1)   with ternary u.
//   dec: m = [[c0 + c1 s (+ c2 s^2)]_q]_t   (centered reduction mod q).
//   mul: tensor product; relinearisation, rotations and cross-domain
//        ingest all run one special-modulus ("hybrid") key switch
//        (Han-Ki, CT-RSA 2020; BGV form with the t-correction of
//        Kim-Polyakov-Zucca, Asiacrypt 2021). A digit is a group of alpha
//        consecutive chain primes, basis-extended to the active primes plus
//        alpha special primes P; the keys live over Q u P, one row per
//        group, and encrypt P * Q~_b * target, where the group idempotent
//        Q~_b is 1 on the group's limbs and 0 on the others. Restricted to a
//        lower level, Q~_b is the idempotent of that level's (possibly
//        truncated) group b, so one key set generated at the top level
//        serves every level. The switch ends by dividing by P with the
//        BGV t-correction ("mod-down"); P = 1 (mod t) leaves the plaintext
//        unchanged and the switch noise is scaled down by P.
//   modulus switching: divide by the last prime with the t-divisibility
//        correction delta = t [c t^{-1}]_{q_last} (centered), preserving the
//        plaintext while shrinking noise.
//
// This is an exact-arithmetic BGV sufficient for transciphering; it is not a
// hardened implementation (no constant-time sampling, seeded randomness) —
// see DESIGN.md for the substitution rationale.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "fhe/poly.hpp"

namespace poe::fhe {

struct BgvParams {
  std::size_t n = 4096;
  std::uint64_t t = 65537;
  std::size_t num_primes = 10;
  unsigned prime_bits = 45;
  /// Width of one key-switching digit: a group of alpha chain primes, so
  /// alpha * prime_bits. alpha is also the number of special primes, which
  /// are the next alpha primes of the same chain generator. Must be a
  /// positive whole multiple of prime_bits with alpha <= num_primes
  /// (checked by special_primes(), hence by the Bgv constructor).
  unsigned relin_digit_bits = 135;
  std::uint64_t seed = 1;  ///< deterministic randomness for reproducibility

  /// alpha = relin_digit_bits / prime_bits; throws for an invalid width.
  std::size_t special_primes() const;

  /// Tiny parameters for fast unit tests (depth ~2).
  static BgvParams toy();
  /// Parameters deep enough for homomorphic PASTA-4 decryption. NOTE:
  /// demo-grade security at n = 4096 (documented in EXPERIMENTS.md).
  static BgvParams demo();
};

struct Plaintext {
  std::vector<std::uint64_t> coeffs;  ///< mod t, length <= n
};

struct Ciphertext {
  std::vector<RnsPoly> parts;  ///< NTT form, 2 (fresh) or 3 (post-tensor)
  std::size_t level = 0;       ///< active primes
  /// Static log2 bound on the invariant noise |c0 + c1 s (+ c2 s^2)|,
  /// maintained by every Bgv operation (NoiseEstimator formulas). The
  /// server-side analogue of the secret-key-measured noise_budget_bits; the
  /// automatic mod-switch scheduler consults it.
  double noise_bits = 0.0;
  /// Node id on the active NoiseTape (circuit-profile recording); -1 when
  /// not recorded. Only meaningful for ciphertexts produced while the
  /// creating Bgv's recording mode is on.
  std::int32_t trace_id = -1;

  std::size_t size() const { return parts.size(); }
};

/// A key-switching key: for each digit group b (chain primes [b*alpha,
/// (b+1)*alpha), the last group possibly shorter), a row (b, a) over the key
/// basis Q u P with b = -(a s) + t e + P Q~_b target. Switches a ciphertext
/// component known to multiply `target` onto the secret s. Generated at the
/// top level; restricts to any lower level (Q~_b's image is 1 on the
/// group's limbs and 0 elsewhere at every level). Row b pairs with digit b,
/// and a level-l switch reads the first ceil(l / alpha) rows, each on its
/// limbs 0..l-1 and the alpha special limbs.
struct KswKey {
  struct Row {
    RnsPoly b, a;  // key basis (all L + alpha limbs), NTT form
  };
  std::vector<Row> rows;
};

/// Rotation keys: column-rotation step -> key for tau_{3^step}(s). Each
/// key's NTT-form components are stored tau^-1-permuted (see
/// make_galois_key) so rotations run the key inner product contiguously and
/// permute only the outputs.
struct GaloisKeys {
  std::map<long, KswKey> keys;
};

/// The reusable half of a rotation — Halevi–Shoup hoisting. The basis
/// extension of c1 (one inverse NTT per limb, the fast conversion and the
/// forward NTTs of every extended limb) is rotation-independent: c1 =
/// sum_b digit_b * Q~_b with integer digits and integer idempotents, both
/// fixed by every automorphism, so tau(c1) = sum_b tau(digit_b) * Q~_b for
/// ANY tau. Decompose once with Bgv::hoist, then serve each step with
/// Bgv::rotate_hoisted_into, which runs the key inner product over the
/// already-NTT digits, the mod-down by P and the closing permutation.
struct HoistedCt {
  RnsPoly c0;  ///< NTT form, at `level`
  /// NTT form over the key basis: digits[b] pairs with key row b. Limb i
  /// of a digit is key-basis prime i, so the digit fills limbs 0..level-1
  /// and the alpha special limbs; the limbs in between are never read.
  std::vector<RnsPoly> digits;
  std::size_t level = 0;
  double noise_bits = 0.0;     ///< carried over from the hoisted ciphertext
  std::int32_t trace_id = -1;  ///< carried over (profile recording)
};

class NoiseTape;       // fhe/param_search.hpp
class NoiseEstimator;  // fhe/noise.hpp

class Bgv {
 public:
  explicit Bgv(const BgvParams& params);
  /// Same, but pinned to a caller-owned ExecContext (nullptr = the
  /// process-wide one). Tests use this to run otherwise-identical schemes
  /// on different kernel backends side by side.
  Bgv(const BgvParams& params, ExecContext* exec);
  ~Bgv();

  const BgvParams& params() const { return params_; }
  const RnsContext& rns() const { return ctx_; }
  /// The context whose kernels, pool and op counters every operation uses.
  ExecContext& exec() const { return ctx_.exec(); }
  /// The key basis Q u P: the ciphertext chain's primes, then the alpha
  /// special primes the key-switching keys and digits also live on.
  const RnsContext& key_basis() const { return key_ctx_; }
  std::size_t top_level() const { return ctx_.num_primes(); }
  /// The noise formulas for these parameters (built once; the key-switch
  /// bound reads the key basis's primes).
  const NoiseEstimator& estimator() const { return *est_; }

  // --- Encryption / decryption.
  Ciphertext encrypt(const Plaintext& pt) const;
  Plaintext decrypt(const Ciphertext& ct) const;

  // --- Homomorphic operations (operands must share a level; use
  // --- match_levels / mod_switch_to to align).
  void add_inplace(Ciphertext& a, const Ciphertext& b) const;
  void sub_inplace(Ciphertext& a, const Ciphertext& b) const;
  void negate_inplace(Ciphertext& a) const;
  void add_plain_inplace(Ciphertext& a, const Plaintext& pt) const;
  void sub_plain_inplace(Ciphertext& a, const Plaintext& pt) const;
  /// Multiply by the plaintext polynomial (NTT product).
  void mul_plain_inplace(Ciphertext& a, const Plaintext& pt) const;
  /// The same by a weight already in NTT form (ntt_weight(pt), read on the
  /// first a.level limbs), for a weight reused across products.
  void mul_plain_inplace(Ciphertext& a, const RnsPoly& weight_ntt) const;
  /// `pt` lifted to every chain prime, in NTT form.
  RnsPoly ntt_weight(const Plaintext& pt) const;
  /// sum_j weights[j] * srcs[j] over sources of one level and size, none
  /// copied. Charged as mul_plain_inplace of each source summed pairwise by
  /// a binary counter (two sums of 2^r products merge as soon as they
  /// meet; the leftovers fold smallest first), so the bound grows by
  /// ceil(log2 T) bits for T sources, as the noise does.
  Ciphertext weighted_sum(std::span<const Ciphertext* const> srcs,
                          std::span<const Plaintext> weights) const;
  /// The diagonal method, double-hoisted: outs[v] = sum_k weights[v][k] *
  /// rot_k(ct), with rot_0(ct) = ct and an empty Plaintext a skipped term.
  /// Hoists ct (2 parts) once, then one fork over the limbs of Q_l u P in
  /// which each task takes every live step k >= 1 in turn: its key inner
  /// product over the shared digits, the permutation tau_k, and an add_mul
  /// of the result with each output's diagonal (lifted and transformed on
  /// that limb, special limbs included) into that output's accumulator.
  /// c0's share and the k = 0 term enter the chain limbs as multiples of P,
  /// which the mod-down's correction does not see, so each accumulator
  /// closes with ONE mod-down by P instead of one per rotation, and no
  /// rotated ciphertext is ever written. The rounding therefore differs
  /// from rotating, multiplying and adding: the plaintext is the same, the
  /// bits are not. Each output is charged one kFusedAffine over ct with its
  /// live term count (NoiseEstimator::fused_affine), whose work model also
  /// prices the steps' inner products, so no step records a node of its
  /// own; one with no live term is left empty. The outputs must not alias
  /// ct.
  void diagonal_sum(const Ciphertext& ct,
                    std::span<const std::vector<Plaintext>> weights,
                    const GaloisKeys& keys, std::span<Ciphertext> outs) const;
  /// Multiply by an integer constant mod t (no NTT, cheap).
  void mul_scalar_inplace(Ciphertext& a, std::uint64_t scalar) const;
  /// Add an integer constant mod t.
  void add_scalar_inplace(Ciphertext& a, std::uint64_t scalar) const;

  /// Tensor product; result has 3 parts until relinearised.
  Ciphertext multiply(const Ciphertext& a, const Ciphertext& b) const;
  /// multiply + relinearise + one modulus switch (the common idiom).
  Ciphertext multiply_relin(const Ciphertext& a, const Ciphertext& b) const;
  void relinearize_inplace(Ciphertext& a) const;

  // --- Slot rotations (for SIMD/batched evaluation).
  /// Keys for the given column-rotation steps (see fhe/galois.hpp for the
  /// slot-grid semantics).
  GaloisKeys make_rotation_keys(const std::vector<long>& steps) const;
  /// new(row, col) = old(row, col + step): applies tau_{3^step} and
  /// key-switches back to s. Requires a relinearised (2-part) ciphertext.
  void rotate_columns_inplace(Ciphertext& a, long step,
                              const GaloisKeys& keys) const;

  /// Decompose a 2-part ciphertext once, so that any number of rotations of
  /// it can be served by rotate_hoisted_into at a fraction of the usual
  /// cost. Every key switch runs this same decomposition, so
  /// rotate_hoisted_into(hoist(ct), step) and rotate_columns_inplace(ct,
  /// step) produce bit-identical ciphertexts.
  HoistedCt hoist(const Ciphertext& ct) const;
  /// Rotation by `step` (!= 0 mod n/2) from a hoisted decomposition, written
  /// into `out`: a key inner product over the shared digits, in overwrite
  /// mode into two key-basis slabs drawn from the pool for this call, the
  /// mod-down by P, then the closing automorphism as a permute straight
  /// into out's slabs, which are reshaped in place. No decomposition work:
  /// the only NTTs are the mod-down's (2 alpha inverse, 2 level forward),
  /// and a warmed-up loop never misses the pool and copies zero bytes. The
  /// result depends only on (hoisted, step, keys): a reused `out` ends up
  /// bit-identical to a freshly allocated one. `out` may be empty or any
  /// previous result; it must not alias a live operand. Thread-safe: every
  /// call draws its own slabs.
  void rotate_hoisted_into(const HoistedCt& hoisted, long step,
                           const GaloisKeys& keys, Ciphertext& out) const;

  // --- Cross-domain ingest (multi-tenant serving).
  /// Key-switching key that moves a 2-part ciphertext encrypted under
  /// `tenant`'s secret onto THIS evaluator's secret ("key-switch on
  /// ingest"). Both instances must share the ring exactly (n and the RNS
  /// prime chain); the plaintext modulus t must match too. In the real
  /// protocol the tenant derives this from the evaluator's public key-switch
  /// material; here the tenant Bgv carries its secret, so the helper reads
  /// it directly — the same trust shape as decrypt living on Bgv.
  KswKey make_ingest_key(const Bgv& tenant) const;
  /// Re-encrypt `ct` (2 parts, any level) from the tenant's domain into this
  /// evaluator's domain without decrypting: the result decrypts under THIS
  /// secret. Costs one key switch of noise; the plaintext is unchanged.
  Ciphertext ingest_switch(const Ciphertext& ct, const KswKey& ingest_key)
      const;

  /// Drop the last active prime (noise /= q_last).
  void mod_switch_inplace(Ciphertext& a) const;
  void mod_switch_to(Ciphertext& a, std::size_t level) const;
  /// Bring both to the lower of the two levels.
  void match_levels(Ciphertext& a, Ciphertext& b) const;

  // --- Diagnostics.
  /// log2 of the remaining noise budget (decryption fails below ~0).
  double noise_budget_bits(const Ciphertext& ct) const;
  /// Budget implied by the tracked static bound (ct.noise_bits) — no secret
  /// key involved, so the server can report it. Sound lower bound on
  /// noise_budget_bits (property-tested).
  double predicted_budget_bits(const Ciphertext& ct) const;

  // --- Noise-aware scheduling / circuit profiling.
  /// Automatic mod-switch scheduler: drop primes (one fused mod_switch_to)
  /// while the tracked bound says each switch sacrifices at most
  /// NoiseEstimator::kSwitchMargin bits to the rounding floor — i.e.
  /// noise_bits - prime_bits >= floor - kSwitchMargin, where the floor
  /// accounts for the part count (a 3-part tensor switch pays an extra
  /// ||s^2||_1 on its rounding term). Replaces hand-placed switches;
  /// simulate() in fhe/param_search.hpp replays the identical policy
  /// (NoiseEstimator::auto_drop_target).
  void auto_switch_inplace(Ciphertext& a) const;
  /// Before a ct-ct multiplication: switch both operands (2-part, same
  /// level; a and b may be the same ciphertext) down to
  /// NoiseEstimator::multiply_drop_target, which simulate() replays at
  /// every multiplication node.
  void switch_for_multiply(Ciphertext& a, Ciphertext& b) const;
  /// Terminal output trim: drop primes while the tracked bound keeps at
  /// least `keep_bits` of budget at the reduced level. Applied once to
  /// ciphertexts leaving the server (no further noise-heavy ops), where
  /// surplus levels are pure waste (NoiseEstimator::trim_target).
  void trim_output_inplace(Ciphertext& a, double keep_bits) const;
  /// Start/stop appending this evaluator's operations to `tape` (SSA node
  /// per op; ciphertexts carry their node id in trace_id). Operands created
  /// before recording started appear as fresh-encryption leaves. Modulus
  /// switches are deliberately NOT recorded — the parameter-search replay
  /// schedules its own.
  void begin_recording(NoiseTape* tape) const;
  void end_recording() const;

 private:
  /// Builds both contexts from one chain of L + alpha primes: the
  /// ciphertext chain is its first L.
  Bgv(const BgvParams& params, ExecContext* exec,
      const std::vector<std::uint64_t>& key_chain);

  /// Append one node to the active tape (no-op when not recording);
  /// returns the node id (-1 when not recording).
  std::int32_t record_node(std::uint8_t op, std::int32_t a, std::int32_t b,
                           std::uint64_t scalar = 0,
                           std::uint32_t terms = 0) const;
  /// Operand id for recording: the ciphertext's own node if it has one, a
  /// conservative fresh leaf otherwise.
  std::int32_t record_operand(std::int32_t trace_id) const;

  /// Each coefficient of c0 + c1 s (+ c2 s^2) mod the ciphertext's q,
  /// CRT-reconstructed and lifted to (-q/2, q/2]: calls visit(idx, |x|,
  /// x < 0) for idx = 0..n-1. The one decryption core of decrypt and
  /// noise_budget_bits.
  template <class Visit>
  void for_each_centred_coeff(const Ciphertext& ct, Visit&& visit) const;
  /// t * fresh-noise polynomial in NTT form over every limb of `ctx`.
  RnsPoly sample_t_noise(const RnsContext& ctx) const;

  /// One term of a ciphertext x plaintext product: `src` times a weight
  /// (coefficients mod t, or `ntt`, a poly already in NTT form on at least
  /// the product's level), summed into output `out`.
  struct PlainTerm {
    std::size_t out = 0;
    const Ciphertext* src = nullptr;
    std::span<const std::uint64_t> coeffs = {};
    const RnsPoly* ntt = nullptr;
  };
  /// The ciphertext x plaintext kernel of mul_plain_inplace and
  /// weighted_sum (diagonal_sum runs its products fused with its rotations'
  /// inner products instead): outs[o] = sum of weight * src over the terms
  /// with out == o, at the sources' common level; returns each output's
  /// term count. One fork over (output, limb): a task lifts each
  /// coefficient-form weight into its own n-word buffer (not a pool slab,
  /// so forked callers draw nothing from the pool), transforms it and
  /// multiplies it into the limb, the first term over a copy of its source
  /// (the residues of add_mul into a zeroed limb), the rest with add_mul. An
  /// output may be the source of its only term (in place) and no other; one
  /// with no term is left as it is. The bound and tape node are the
  /// caller's.
  std::vector<std::size_t> plain_products(std::span<const PlainTerm> terms,
                                          std::span<Ciphertext> outs) const;
  /// mul_plain_inplace of `a` by the weight of `term` (whose src is &a).
  void mul_plain_term(Ciphertext& a, const PlainTerm& term) const;
  /// Key-switching key for an arbitrary target polynomial (NTT form, read
  /// on the chain limbs only).
  KswKey make_ksw_key(const RnsPoly& target_ntt) const;
  /// `s_coeff` is the secret in coefficient form (callers generating many
  /// keys convert it once).
  KswKey make_galois_key(std::uint64_t galois_element,
                         const RnsPoly& s_coeff) const;

  // --- The one key-switch pipeline: decompose -> inner product -> mod-down.
  // Every switch (relinearisation, both rotation paths, ingest) runs
  // decompose and key_switch; diagonal_sum runs decompose and its own
  // inner products, and closes with the same mod_down.
  /// Stage 1, the switched component's basis extension: takes c0 as is and
  /// `c` (NTT form, at `from.level`) by value, and returns them as a
  /// HoistedCt carrying `from`'s level, noise bound and tape node. Digit b
  /// is c mod Q_b (the product of group b's primes), lifted to every other
  /// active prime and to the special primes by fast basis conversion (so it
  /// may exceed c mod Q_b by up to alpha - 1 multiples of Q_b); its own
  /// limbs are c's NTT limbs as they are. Costs `level` inverse NTTs and
  /// ceil(level / alpha) * (level + alpha) - level forward NTTs.
  HoistedCt decompose(RnsPoly c0, RnsPoly c, const Ciphertext& from) const;
  /// Stages 2 and 3 of one switch: the key inner product over h.digits on
  /// Q_l u P, then the mod-down and the finish
  ///   out = tau_g(h.c0 + ip_b / P, c1 + ip_a / P),
  /// with c1 == nullptr read as zero (g = 1 for relinearisation and
  /// ingest). The kernel inner product flushes into an accumulator pair of
  /// key_slabs in overwrite mode, one task per key-basis limb of the
  /// mod-down's first fork. The result depends only on (h, c1, key, g);
  /// `out` may not alias h.c0 or *c1. Also sets out's noise bound and tape
  /// node, and counts the switch.
  void key_switch(const HoistedCt& h, const RnsPoly* c1, const KswKey& key,
                  std::uint64_t g, Ciphertext& out) const;

  /// `count` uninitialised slabs over the whole key basis, drawn from the
  /// pool on the calling thread before a fork: a switch's accumulator
  /// pairs, then diagonal_sum's per-limb temporaries. Each task of the fork
  /// writes only its own limb of them; they go back to the pool when the
  /// caller returns.
  std::vector<RnsPoly> key_slabs(std::size_t count) const;

  /// Where one accumulator pair goes after the mod-down: out = tau_g(add0 +
  /// x0 / P, add1 + x1 / P), an absent addend read as zero.
  struct DownTarget {
    Ciphertext* out = nullptr;
    const RnsPoly* add0 = nullptr;
    const RnsPoly* add1 = nullptr;
    std::uint64_t g = 1;
  };
  /// The one mod-down every switch and every diagonal sum closes with, over
  /// accumulator pairs acc[2j], acc[2j + 1] on Q_l u P (one per target j),
  /// which it turns into the switched limbs in place. Fork 1, per limb i of
  /// Q_l u P: fill(i) writes limb i of every pair; on a special limb the
  /// pairs then leave NTT form scaled by (t (P/p_k))^{-1}, the first half of
  /// delta = t [x t^{-1}]_P's fast conversion. Fork 2, per (target, chain
  /// limb): delta's conversion (built in out's limb, which the finish
  /// overwrites), its forward NTT, (x - delta) P^{-1} and the finish: the
  /// scaled limb plus the addend, written straight into out when g == 1,
  /// else in the accumulator and then permuted into out.
  /// Each out's parts are reshaped in place to `level` (no pool traffic once
  /// warm). Counts the mod-downs' 2 alpha inverse and 2 level forward NTTs
  /// per target; the bound, tape node and switch counters are the caller's.
  /// No out may alias an addend or another target's out.
  template <class Fill>
  void mod_down(std::span<RnsPoly> acc, std::size_t level,
                std::span<const DownTarget> targets, Fill&& fill) const;

  /// A constant w < q with its Shoup companion floor(w 2^64 / q).
  struct ShoupConst {
    std::uint64_t w = 0, w_shoup = 0;
  };
  /// Fast basis conversion constants of one level's digit groups (index
  /// level - 1): for chain prime j < level in group b = j / alpha with
  /// primes G_b, hat_inv[j] = (Q_b / q_j)^{-1} mod q_j, and hat[(b * K + i)
  /// * alpha + j - b * alpha] = (Q_b / q_j) mod key-basis prime i (K = L +
  /// alpha limbs). Only the last group of a level depends on the level.
  struct GroupTables {
    std::vector<ShoupConst> hat_inv;
    std::vector<ShoupConst> hat;
  };
  void build_ksw_tables();
  /// dst = sum_k src[k * n + x] * w[k] mod m for x < n, over `terms`
  /// consecutive source limbs: one limb of a fast basis conversion, through
  /// the backend's mul_shoup and add (Shoup multiplication reduces any
  /// 64-bit input, so the source limbs may belong to larger primes).
  static void convert_limb(const kernels::Backend& kern, std::uint64_t* dst,
                           const std::uint64_t* src, const ShoupConst* w,
                           std::size_t terms, std::size_t n,
                           const mod::Modulus& m);

  BgvParams params_;
  std::size_t alpha_;   ///< special primes = primes per digit group
  RnsContext ctx_;      ///< the ciphertext chain Q (L primes)
  RnsContext key_ctx_;  ///< the key basis Q u P (the same L primes, then P)
  std::unique_ptr<const NoiseEstimator> est_;
  std::vector<GroupTables> group_tables_;
  /// Mod-down constants: (t (P/p_k))^{-1} mod p_k per special prime k,
  /// t (P/p_k) mod q_i at [i * alpha + k], and P^{-1} mod q_i; P mod q_i
  /// scales the key rows' target term and diagonal_sum's unswitched terms.
  std::vector<ShoupConst> special_scale_, special_to_q_, p_inv_, p_mod_q_;
  mutable Xoshiro256 rng_;
  RnsPoly s_key_;    // key basis, NTT
  RnsPoly s_ntt_;    // top level
  RnsPoly s_sq_ntt_;
  RnsPoly pk_a_;     // NTT
  RnsPoly pk_b_;
  KswKey rlk_;
  /// Active circuit-profile recorder (nullptr = off). Atomic so the
  /// parallel_for server loops read it without tearing; appends themselves
  /// are serialized inside NoiseTape.
  mutable std::atomic<NoiseTape*> tape_{nullptr};
};

/// Galois element 3^step mod 2n for a column rotation by `step` (normalised
/// to [0, n/2)). One modpow — shared by key generation, rotation, and the
/// slot layout, replacing the former O(step) repeated-multiplication loops.
std::uint64_t galois_elt_for_step(std::size_t n, long step);

}  // namespace poe::fhe
