#include "fhe/galois.hpp"

#include "common/error.hpp"

namespace poe::fhe {

SlotLayout::SlotLayout(std::size_t n, std::uint64_t t) : n_(n) {
  POE_ENSURE((t - 1) % (2 * n) == 0, "t must be ≡ 1 (mod 2n)");
  // BatchEncoder's slots are its Ntt(t, n)'s: slot i holds psi^{e_i}.
  const std::vector<std::uint32_t> exponents = Ntt(t, n).slot_exponents();
  std::vector<std::size_t> slot_of_exponent(2 * n, SIZE_MAX);
  for (std::size_t i = 0; i < n; ++i) slot_of_exponent[exponents[i]] = i;

  // Orbit coordinates: (row 0, col j) -> exponent 3^j; (row 1, col j) ->
  // exponent -3^j (mod 2n).
  const std::size_t cols = n / 2;
  slot_of_logical_.assign(2 * cols, SIZE_MAX);
  std::uint64_t e = 1;
  for (std::size_t j = 0; j < cols; ++j) {
    const std::uint64_t neg = 2 * n - e;
    POE_ENSURE(slot_of_exponent[e] != SIZE_MAX, "missing exponent");
    POE_ENSURE(slot_of_exponent[neg] != SIZE_MAX, "missing exponent");
    slot_of_logical_[j] = slot_of_exponent[e];
    slot_of_logical_[cols + j] = slot_of_exponent[neg];
    e = (e * 3) % (2 * n);
  }
  POE_ENSURE(e == 1, "3 does not have order n/2 mod 2n");
}

std::size_t SlotLayout::slot_index(std::size_t row, std::size_t col) const {
  POE_ENSURE(row < 2 && col < cols(), "logical position out of range");
  return slot_of_logical_[row * cols() + col];
}

std::vector<std::uint64_t> SlotLayout::to_slots(
    const std::vector<std::uint64_t>& logical) const {
  POE_ENSURE(logical.size() <= n_, "too many values");
  std::vector<std::uint64_t> slots(n_, 0);
  for (std::size_t i = 0; i < logical.size(); ++i) {
    slots[slot_of_logical_[i]] = logical[i];
  }
  return slots;
}

std::vector<std::uint64_t> SlotLayout::from_slots(
    const std::vector<std::uint64_t>& slots) const {
  POE_ENSURE(slots.size() == n_, "slot vector size mismatch");
  std::vector<std::uint64_t> logical(n_);
  for (std::size_t i = 0; i < n_; ++i) {
    logical[i] = slots[slot_of_logical_[i]];
  }
  return logical;
}

std::vector<std::uint64_t> SlotLayout::rotate_columns(
    const std::vector<std::uint64_t>& logical, long step) const {
  POE_ENSURE(logical.size() == n_, "logical vector size mismatch");
  const long c = static_cast<long>(cols());
  const long s = ((step % c) + c) % c;
  std::vector<std::uint64_t> out(n_);
  for (std::size_t row = 0; row < 2; ++row) {
    for (long j = 0; j < c; ++j) {
      out[row * cols() + j] = logical[row * cols() + ((j + s) % c)];
    }
  }
  return out;
}

}  // namespace poe::fhe
