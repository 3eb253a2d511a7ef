// Negacyclic number-theoretic transform over Z_q[X]/(X^n + 1).
//
// Standard Longa–Naehrig formulation: the forward transform folds the
// twisting by psi (a primitive 2n-th root of unity) into the butterflies, so
// pointwise multiplication of two transformed polynomials corresponds to
// multiplication modulo X^n + 1.
//
// This class owns the twiddle tables; the butterfly loops themselves live in
// src/kernels/ behind poe::kernels::Backend (scalar reference + SIMD). The
// overloads taking a Backend are what RnsPoly uses — the ExecContext picked
// the backend once at construction; the no-argument overloads run on the
// process-wide kernels::default_backend() for standalone callers
// (BatchEncoder, tests, diagnostics).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "kernels/backend.hpp"
#include "modular/modulus.hpp"

namespace poe::fhe {

class Ntt {
 public:
  /// q must be prime with 2n | q-1; n a power of two.
  Ntt(std::uint64_t q, std::size_t n);

  void forward(std::span<std::uint64_t> a) const;
  void inverse(std::span<std::uint64_t> a) const;
  void forward(std::span<std::uint64_t> a, const kernels::Backend& b) const;
  void inverse(std::span<std::uint64_t> a, const kernels::Backend& b) const;

  /// Non-owning view of the twiddle tables in the form the kernel layer
  /// consumes. Valid only while this Ntt is alive and unmoved.
  kernels::NttTables tables() const;

  std::size_t n() const { return n_; }
  const mod::Modulus& modulus() const { return mod_; }

  /// The exponent e_i of the root each slot evaluates at: forward() leaves
  /// f(psi^{e_i}) in slot i, psi = root_of_unity(q, 2n). Found by
  /// transforming the monomial X and taking discrete logs base psi; every
  /// e_i is odd. The map depends only on n and the bit-reversed butterfly
  /// schedule, so every Ntt of one degree returns the same one.
  std::vector<std::uint32_t> slot_exponents() const;

  /// Negacyclic convolution via NTT (test/diagnostic convenience).
  std::vector<std::uint64_t> multiply(std::span<const std::uint64_t> a,
                                      std::span<const std::uint64_t> b) const;

 private:
  mod::Modulus mod_;
  std::size_t n_;
  unsigned log_n_;
  std::vector<std::uint64_t> psi_;      ///< psi^brv(i), bit-reversed order
  std::vector<std::uint64_t> psi_inv_;  ///< psi^-brv(i)
  // Shoup precomputation (floor(w * 2^64 / q) per twiddle): turns the
  // butterfly's modular multiplication into one mulhi + one mullo + a
  // conditional subtract — the standard software-NTT optimisation.
  std::vector<std::uint64_t> psi_shoup_;
  std::vector<std::uint64_t> psi_inv_shoup_;
  std::uint64_t n_inv_;
  std::uint64_t n_inv_shoup_;
};

}  // namespace poe::fhe
