// Batching encoder: packs n integers mod t into the n CRT slots of
// R_t = Z_t[X]/(X^n + 1), available because t = 65537 ≡ 1 (mod 2n) for
// n <= 2^15. Slot-wise, homomorphic add/mul act componentwise (SIMD).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/exec_context.hpp"
#include "fhe/bgv.hpp"
#include "fhe/ntt.hpp"

namespace poe::fhe {

class BatchEncoder {
 public:
  /// Encodes report to `exec`'s op counters; nullptr means the process-wide
  /// ExecContext::global().
  BatchEncoder(std::size_t n, std::uint64_t t, ExecContext* exec = nullptr);

  /// values (mod t, up to n of them; the rest zero-filled) -> plaintext.
  Plaintext encode(const std::vector<std::uint64_t>& values) const;
  /// encode() of every list, forked over the lists.
  std::vector<Plaintext> encode_each(
      std::span<const std::vector<std::uint64_t>> values) const;
  std::vector<std::uint64_t> decode(const Plaintext& pt) const;

 private:
  ExecContext* exec_;
  Ntt ntt_;
};

}  // namespace poe::fhe
