#include "fhe/ntt.hpp"

#include <unordered_map>

#include "common/bits.hpp"
#include "common/error.hpp"
#include "modular/primes.hpp"

namespace poe::fhe {

namespace {
std::uint64_t bit_reverse(std::uint64_t x, unsigned bits) {
  std::uint64_t out = 0;
  for (unsigned i = 0; i < bits; ++i) {
    out = (out << 1) | ((x >> i) & 1);
  }
  return out;
}
}  // namespace

Ntt::Ntt(std::uint64_t q, std::size_t n) : mod_(q), n_(n) {
  POE_ENSURE(n >= 2 && (n & (n - 1)) == 0, "n must be a power of two: " << n);
  POE_ENSURE((q - 1) % (2 * n) == 0, "q-1 must be divisible by 2n");
  log_n_ = ceil_log2(n);

  const std::uint64_t psi = mod::root_of_unity(q, 2 * n);
  const std::uint64_t psi_inv = mod_.inv(psi);
  psi_.resize(n);
  psi_inv_.resize(n);
  psi_shoup_.resize(n);
  psi_inv_shoup_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t e = bit_reverse(i, log_n_);
    psi_[i] = mod_.pow(psi, e);
    psi_inv_[i] = mod_.pow(psi_inv, e);
    psi_shoup_[i] = kernels::shoup_precompute(psi_[i], q);
    psi_inv_shoup_[i] = kernels::shoup_precompute(psi_inv_[i], q);
  }
  n_inv_ = mod_.inv(n);
  n_inv_shoup_ = kernels::shoup_precompute(n_inv_, q);
}

kernels::NttTables Ntt::tables() const {
  kernels::NttTables t;
  t.n = n_;
  t.q = mod_.value();
  t.psi = psi_.data();
  t.psi_shoup = psi_shoup_.data();
  t.psi_inv = psi_inv_.data();
  t.psi_inv_shoup = psi_inv_shoup_.data();
  t.n_inv = n_inv_;
  t.n_inv_shoup = n_inv_shoup_;
  return t;
}

void Ntt::forward(std::span<std::uint64_t> a,
                  const kernels::Backend& b) const {
  POE_ENSURE(a.size() == n_, "size mismatch");
  b.ntt_inplace(a.data(), tables());
}

void Ntt::inverse(std::span<std::uint64_t> a,
                  const kernels::Backend& b) const {
  POE_ENSURE(a.size() == n_, "size mismatch");
  b.intt_inplace(a.data(), tables());
}

void Ntt::forward(std::span<std::uint64_t> a) const {
  forward(a, kernels::default_backend());
}

void Ntt::inverse(std::span<std::uint64_t> a) const {
  inverse(a, kernels::default_backend());
}

std::vector<std::uint32_t> Ntt::slot_exponents() const {
  std::vector<std::uint64_t> x(n_, 0);
  x[1] = 1;
  forward(x);
  const std::uint64_t psi = mod::root_of_unity(mod_.value(), 2 * n_);
  std::unordered_map<std::uint64_t, std::uint32_t> dlog;
  dlog.reserve(2 * n_);
  std::uint64_t pw = 1;
  for (std::uint32_t e = 0; e < 2 * n_; ++e) {
    dlog.emplace(pw, e);
    pw = mod_.mul(pw, psi);
  }
  std::vector<std::uint32_t> exponents(n_);
  for (std::size_t i = 0; i < n_; ++i) {
    const auto it = dlog.find(x[i]);
    POE_ENSURE(it != dlog.end() && it->second % 2 == 1,
               "NTT slot value is not an odd power of psi");
    exponents[i] = it->second;
  }
  return exponents;
}

std::vector<std::uint64_t> Ntt::multiply(
    std::span<const std::uint64_t> a, std::span<const std::uint64_t> b) const {
  POE_ENSURE(a.size() == n_ && b.size() == n_, "size mismatch");
  std::vector<std::uint64_t> fa(a.begin(), a.end());
  std::vector<std::uint64_t> fb(b.begin(), b.end());
  forward(fa);
  forward(fb);
  for (std::size_t i = 0; i < n_; ++i) fa[i] = mod_.mul(fa[i], fb[i]);
  inverse(fa);
  return fa;
}

}  // namespace poe::fhe
