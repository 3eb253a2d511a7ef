#include "fhe/encoding.hpp"

#include "common/error.hpp"
#include "common/parallel.hpp"

namespace poe::fhe {

BatchEncoder::BatchEncoder(std::size_t n, std::uint64_t t, ExecContext* exec)
    : exec_(exec != nullptr ? exec : &ExecContext::global()), ntt_(t, n) {}

Plaintext BatchEncoder::encode(
    const std::vector<std::uint64_t>& values) const {
  POE_ENSURE(values.size() <= ntt_.n(), "too many values to encode");
  Plaintext pt;
  pt.coeffs.assign(ntt_.n(), 0);
  for (std::size_t i = 0; i < values.size(); ++i) {
    POE_ENSURE(values[i] < ntt_.modulus().value(), "value out of range");
    pt.coeffs[i] = values[i];
  }
  // Slots are the evaluations; encoding is the inverse transform.
  ntt_.inverse(pt.coeffs);
  auto& c = exec_->counters();
  c.bump(c.encode);
  return pt;
}

std::vector<Plaintext> BatchEncoder::encode_each(
    std::span<const std::vector<std::uint64_t>> values) const {
  std::vector<Plaintext> out(values.size());
  parallel_for(values.size(),
               [&](std::size_t j) { out[j] = encode(values[j]); });
  return out;
}

std::vector<std::uint64_t> BatchEncoder::decode(const Plaintext& pt) const {
  POE_ENSURE(pt.coeffs.size() == ntt_.n(), "plaintext size mismatch");
  std::vector<std::uint64_t> slots = pt.coeffs;
  ntt_.forward(slots);
  return slots;
}

}  // namespace poe::fhe
