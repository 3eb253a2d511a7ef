// Circuit-profile-driven BGV parameter right-sizing.
//
// The pipeline has three stages:
//
//   1. RECORD. A dry run of the transcipher circuit under any working
//      parameter set appends one TapeNode per noise-relevant operation to a
//      NoiseTape (Bgv::begin_recording). The tape is an SSA-style flattened
//      DAG — node ids are operand references — and is deliberately
//      PARAMETER-INDEPENDENT: modulus switches are never recorded (the
//      replay schedules its own) and no node carries n, t, prime counts or
//      digit sizes. Together with the ExecContext counter delta this forms
//      a CircuitProfile.
//
//   2. REPLAY. simulate() re-evaluates the tape's NoiseEstimator bounds
//      under a *candidate* BgvParams, applying the same greedy
//      drop-as-early-as-the-bound-allows policy Bgv::auto_switch_inplace
//      uses live, and reports the worst budget seen anywhere plus a
//      relative work estimate (limb-weighted op costs).
//
//   3. SEARCH. search_params() sweeps (n, num_primes, prime_bits, alpha) —
//      alpha primes per key-switching digit group, which is also the count
//      of special primes, so relin_digit_bits = alpha * prime_bits — under
//      a security ceiling on log2(PQ), the chain plus the special primes
//      the keys live over (HE-standard style table checked in below). It
//      keeps candidates whose replayed budget clears the requested band and
//      returns the cheapest by the work model. The chosen configs are
//      pasted into protocol.cpp and a fixed-point test re-derives them so
//      they cannot drift.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/exec_context.hpp"
#include "fhe/bgv.hpp"

namespace poe::fhe {

/// Operation kinds mirrored by the noise replay. kKeySwitch is every key
/// switch — relinearisation, rotation and cross-domain ingest run one
/// pipeline with one noise formula. kFusedAffine is one output of
/// Bgv::diagonal_sum (terms plaintext-times-rotation products of one
/// hoisted ciphertext, accumulated into one ciphertext).
enum class NoiseOp : std::uint8_t {
  kFresh,
  kAdd,
  kAddPlain,
  kAddScalar,
  kMulScalar,
  kMulPlain,
  kMultiply,
  kKeySwitch,
  kFusedAffine,
};

struct TapeNode {
  NoiseOp op = NoiseOp::kFresh;
  std::int32_t a = -1;      ///< first operand node id (-1 = none)
  std::int32_t b = -1;      ///< second operand node id (-1 = none)
  std::uint64_t scalar = 0; ///< kMulScalar: the scalar (mod t)
  std::uint32_t terms = 0;  ///< kFusedAffine: accumulated diagonal count
};

/// Append-only op recorder. Thread-safe: the servers evaluate rows in
/// parallel_for, so concurrent appends take a mutex (recording is a dry-run
/// diagnostic mode, never the serving hot path).
class NoiseTape {
 public:
  std::int32_t append(const TapeNode& node) {
    std::lock_guard<std::mutex> lock(mu_);
    nodes_.push_back(node);
    return static_cast<std::int32_t>(nodes_.size() - 1);
  }
  const std::vector<TapeNode>& nodes() const { return nodes_; }

 private:
  std::mutex mu_;
  std::vector<TapeNode> nodes_;
};

/// Everything the parameter search needs from one instrumented dry run.
struct CircuitProfile {
  std::string name;
  std::vector<TapeNode> tape;
  /// Node ids of the ciphertexts handed back to clients — their replayed
  /// budget must clear the safety band (interior nodes only need to stay
  /// decryptable).
  std::vector<std::int32_t> outputs;
  /// ExecContext counter delta over the dry run (NTTs, key switches,
  /// rotations, ...), for reports and bench emission.
  CounterSnapshot ops;
};

struct SimResult {
  bool feasible = false;        ///< every node decryptable, outputs clear band_low
  double min_budget = 0.0;      ///< worst bound-derived budget at any node
  double min_output_budget = 0.0;
  std::size_t final_level = 0;  ///< level of the last output node
  std::size_t mod_switches = 0; ///< prime drops the scheduler inserted
  double work = 0.0;            ///< relative cost (limb-weighted op model)
};

/// Replay `profile` under `params`: NoiseEstimator bounds per node, the
/// live evaluator's greedy mod-switch policy after every node
/// (NoiseEstimator::auto_drop_target), operand levels aligned like
/// match_levels. band_low is the budget the output nodes must clear.
SimResult simulate(const CircuitProfile& profile, const BgvParams& params,
                   double band_low);

enum class SecurityLevel {
  /// The repo's documented demo posture (EXPERIMENTS.md): rings sized for
  /// speed, not security. The ceiling only enforces "no more modulus than
  /// the legacy demo configs already shipped", so right-sizing can shrink q
  /// (strictly improving security at fixed n) but never grow past the
  /// documented baseline.
  kDemo,
  /// HE-standard-style 128-bit classical ceiling (ternary secret).
  k128Classical,
};

/// Maximum log2(q) admissible at ring size n for the given level.
double max_log_q(std::size_t n, SecurityLevel level);

/// log2(PQ) in nominal bits, (num_primes + alpha) * prime_bits: the largest
/// modulus the scheme uses, because the key-switching keys live over the
/// chain and the alpha special primes. The security ceiling bounds this,
/// not the ciphertext modulus alone.
double key_log_q(const BgvParams& params);

/// Whether `params` fits under the security ceiling: key_log_q(params) <=
/// max_log_q(params.n, level). search_params tries no candidate that fails
/// this.
bool within_security_ceiling(const BgvParams& params, SecurityLevel level);

struct SearchConstraints {
  SecurityLevel security = SecurityLevel::kDemo;
  /// Safety band for the steady-state output budget: the search requires
  /// predicted output budget >= band_low; band_high is not a search input
  /// (the CI smoke enforces measured budget <= band_high to catch surplus
  /// regressions) but is carried into reports.
  double band_low = 8.0;
  double band_high = 40.0;
  std::uint64_t t = 65537;      ///< plaintext modulus (must match the cipher)
  std::size_t min_n = 1024;     ///< slot-layout floor: 2t_pasta | n/2
  std::size_t max_n = 32768;    ///< batch-encoder ceiling: 2n | t-1
  std::uint64_t seed = 11;      ///< copied into the emitted BgvParams
};

struct SearchResult {
  bool found = false;
  BgvParams params;
  SimResult sim;
  double log_q = 0.0;         ///< key_log_q(params): log2(PQ)
  double security_cap = 0.0;  ///< max_log_q at the chosen n
  std::size_t candidates_tried = 0;
};

/// Exhaustive sweep of (n, num_primes, prime_bits, alpha) under the
/// constraints; returns the feasible candidate with the least replayed
/// work. Deterministic: ties break toward smaller (n, log2(PQ), alpha).
SearchResult search_params(const CircuitProfile& profile,
                           const SearchConstraints& constraints);

}  // namespace poe::fhe
