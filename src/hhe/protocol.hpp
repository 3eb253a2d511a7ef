// The hybrid homomorphic encryption protocol of the paper's Fig. 1.
//
//   1. The client FHE-encrypts its PASTA key K (once) and ships it.
//   2. The client symmetric-encrypts messages with PASTA — ciphertexts have
//      zero expansion (t field elements per block).
//   3. The server evaluates PASTA's *keystream generation* homomorphically
//      (matrices and round constants are public, derived from nonce‖counter)
//      and subtracts it from the received symmetric ciphertext, obtaining a
//      BGV encryption of the plaintext it can then compute on.
//   4. The client decrypts any FHE result with its secret key.
//
// The key is encrypted coefficient-wise: one BGV ciphertext per key element,
// each a constant polynomial. All circuit operations are then scalar
// multiplications/additions (affine layers, Mix) and ciphertext-ciphertext
// multiplications (S-boxes), keeping plaintexts constant polynomials
// throughout.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "fhe/bgv.hpp"
#include "pasta/cipher.hpp"
#include "pasta/matrix.hpp"

namespace poe::hhe {

struct HheConfig {
  pasta::PastaParams pasta;
  fhe::BgvParams bgv;
  /// Safety-band floor for ciphertexts handed back to clients: the servers
  /// trim surplus levels off their outputs (Bgv::trim_output_inplace) while
  /// the tracked bound keeps at least this much budget. Matches
  /// SearchConstraints::band_low.
  double output_budget_bits = 8.0;

  /// PASTA-4 over p = 65537 with a BGV ring deep enough for the full
  /// 4-round decryption circuit. NOTE: ring dimension is sized for speed,
  /// not security — see EXPERIMENTS.md. The BgvParams of all four configs
  /// below are the OUTPUT of the circuit-profile parameter search
  /// (bench/bench_param_search.cpp), recorded under the configs themselves;
  /// a fixed-point test re-derives them so they cannot drift from the
  /// security table in fhe/param_search.cpp.
  static HheConfig demo();
  /// A reduced PASTA-like instance (t = 8, 4 rounds) for fast tests; the
  /// circuit structure is identical.
  static HheConfig test();
  /// Parameters for the batched (SIMD) engine: same ciphers, wider chain
  /// for the dense-diagonal noise growth.
  static HheConfig batched_demo();
  static HheConfig batched_test();
};

/// Plaintext-side precomputation for one keystream block: the public
/// randomness (SHAKE squeeze + rejection sampling) with the affine matrices
/// materialised. Building one touches only the XOF and CPU-side modular
/// arithmetic — no ciphertext operations — so the batched engine's prepare()
/// can run it on the service's prepare thread, overlapped with the BGV
/// evaluation of the *previous* batch: the software analogue of the paper's
/// Fig. 3 schedule (MatGen hidden behind the other units).
struct PreparedBlock {
  std::uint64_t nonce = 0;
  std::uint64_t counter = 0;
  pasta::BlockRandomness rnd;
  std::vector<pasta::Matrix> mat_l, mat_r;  ///< one per affine layer
};

/// Derive and materialise everything the keystream circuit needs for block
/// (nonce, counter) — pure CPU work, usable by both servers.
PreparedBlock prepare_block(const pasta::PastaParams& params,
                            std::uint64_t nonce, std::uint64_t counter);

class HheClient {
 public:
  HheClient(const HheConfig& config, const fhe::Bgv& bgv,
            std::vector<std::uint64_t> pasta_key);

  /// One-time upload: the PASTA key under BGV, coefficient-wise.
  std::vector<fhe::Ciphertext> encrypt_key() const;

  /// Symmetric encryption (what actually travels for every message).
  std::vector<std::uint64_t> encrypt(std::span<const std::uint64_t> msg,
                                     std::uint64_t nonce) const;

  /// Decrypt a server-side FHE result (one element per ciphertext).
  std::vector<std::uint64_t> decrypt_result(
      const std::vector<fhe::Ciphertext>& cts) const;

  const pasta::PastaCipher& cipher() const { return cipher_; }

 private:
  const HheConfig& config_;
  const fhe::Bgv& bgv_;
  pasta::PastaCipher cipher_;
};

class HheServer {
 public:
  /// The server holds only public material: the evaluator and the encrypted
  /// key. (The Bgv object also carries the secret key in this simulation;
  /// the server code path never calls decrypt.)
  HheServer(const HheConfig& config, const fhe::Bgv& bgv,
            std::vector<fhe::Ciphertext> encrypted_key);

  /// Homomorphically decrypt one PASTA block: returns t BGV ciphertexts,
  /// the i-th encrypting message element i as a constant polynomial. Op
  /// counts are on the evaluator's ExecContext; noise budgets are read off
  /// the returned ciphertexts (Bgv::noise_budget_bits, or the secret-free
  /// Bgv::predicted_budget_bits).
  std::vector<fhe::Ciphertext> transcipher_block(
      std::span<const std::uint64_t> symmetric_ct, std::uint64_t nonce,
      std::uint64_t counter) const;

  /// Transcipher a multi-block message (block i uses counter i).
  std::vector<fhe::Ciphertext> transcipher(
      std::span<const std::uint64_t> symmetric_ct, std::uint64_t nonce) const;

 private:
  /// Evaluate the keystream circuit on the encrypted key.
  std::vector<fhe::Ciphertext> keystream_circuit(
      const PreparedBlock& prep) const;

  const HheConfig& config_;
  const fhe::Bgv& bgv_;
  std::vector<fhe::Ciphertext> key_cts_;
};

}  // namespace poe::hhe
