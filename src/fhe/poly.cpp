#include "fhe/poly.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace poe::fhe {

RnsPoly::RnsPoly(const RnsContext* ctx, std::size_t level, bool ntt_form)
    : ctx_(ctx), level_(level), ntt_form_(ntt_form) {
  POE_ENSURE(ctx != nullptr, "null context");
  POE_ENSURE(level >= 1 && level <= ctx->num_primes(), "bad level " << level);
  buf_ = ctx->exec().pool().acquire(level * ctx->n(), /*zero=*/true);
}

RnsPoly::RnsPoly(const RnsPoly& o)
    : ctx_(o.ctx_), level_(o.level_), ntt_form_(o.ntt_form_) {
  if (ctx_ != nullptr) {
    const std::size_t words = level_ * ctx_->n();
    buf_ = ctx_->exec().pool().acquire(words, /*zero=*/false);
    std::copy_n(o.buf_.data(), words, buf_.data());
    auto& c = ctx_->exec().counters();
    c.bump(c.bytes_copied, words * sizeof(std::uint64_t));
  }
}

RnsPoly& RnsPoly::operator=(const RnsPoly& o) {
  if (this == &o) return *this;
  ctx_ = o.ctx_;
  level_ = o.level_;
  ntt_form_ = o.ntt_form_;
  if (ctx_ == nullptr) {
    buf_.reset();
    return *this;
  }
  const std::size_t words = level_ * ctx_->n();
  // Reuse the slab in place when it is big enough; otherwise swap it for
  // one from the pool.
  if (buf_.size() < words) {
    buf_ = ctx_->exec().pool().acquire(words, /*zero=*/false);
  }
  std::copy_n(o.buf_.data(), words, buf_.data());
  auto& c = ctx_->exec().counters();
  c.bump(c.bytes_copied, words * sizeof(std::uint64_t));
  return *this;
}

RnsPoly& RnsPoly::reshape_uninit(const RnsContext* ctx, std::size_t level,
                                 bool ntt_form) {
  POE_ENSURE(ctx != nullptr, "null context");
  POE_ENSURE(level >= 1 && level <= ctx->num_primes(), "bad level " << level);
  const std::size_t words = level * ctx->n();
  // Same slab-reuse rule as copy assignment: a slab this poly already
  // holds that is big enough for the request never goes back to the pool,
  // so a warmed output poly reshapes with zero pool traffic.
  if (ctx_ != ctx || buf_.size() < words) {
    buf_ = ctx->exec().pool().acquire(words, /*zero=*/false);
  }
  ctx_ = ctx;
  level_ = level;
  ntt_form_ = ntt_form;
  return *this;
}

void RnsPoly::check_compatible(const RnsPoly& o) const {
  POE_ENSURE(ctx_ == o.ctx_, "polynomials from different contexts");
  POE_ENSURE(level_ == o.level_, "level mismatch: " << level_ << " vs "
                                                    << o.level_);
  POE_ENSURE(ntt_form_ == o.ntt_form_, "representation mismatch");
}

void RnsPoly::check_operand(const RnsPoly& o) const {
  POE_ENSURE(ctx_ == o.ctx_, "polynomials from different contexts");
  POE_ENSURE(level_ <= o.level_, "operand level " << o.level_
                                                  << " below " << level_);
  POE_ENSURE(ntt_form_ == o.ntt_form_, "representation mismatch");
}

void RnsPoly::to_ntt() {
  POE_ENSURE(!ntt_form_, "already in NTT form");
  const auto& k = ctx_->exec().kernels();
  for (std::size_t i = 0; i < level_; ++i) ctx_->ntt(i).forward(rns(i), k);
  auto& c = ctx_->exec().counters();
  c.bump(c.ntt_forward, level_);
  ntt_form_ = true;
}

void RnsPoly::from_ntt() {
  POE_ENSURE(ntt_form_, "already in coefficient form");
  const auto& k = ctx_->exec().kernels();
  for (std::size_t i = 0; i < level_; ++i) ctx_->ntt(i).inverse(rns(i), k);
  auto& c = ctx_->exec().counters();
  c.bump(c.ntt_inverse, level_);
  ntt_form_ = false;
}

RnsPoly& RnsPoly::add_inplace(const RnsPoly& o) {
  check_compatible(o);
  const auto& k = ctx_->exec().kernels();
  for (std::size_t i = 0; i < level_; ++i) {
    auto dst = rns(i);
    k.add(dst.data(), o.rns(i).data(), dst.size(), ctx_->mod(i));
  }
  return *this;
}

RnsPoly& RnsPoly::sub_inplace(const RnsPoly& o) {
  check_compatible(o);
  const auto& k = ctx_->exec().kernels();
  for (std::size_t i = 0; i < level_; ++i) {
    auto dst = rns(i);
    k.sub(dst.data(), o.rns(i).data(), dst.size(), ctx_->mod(i));
  }
  return *this;
}

RnsPoly& RnsPoly::negate_inplace() {
  for (std::size_t i = 0; i < level_; ++i) {
    const auto& m = ctx_->mod(i);
    for (auto& x : rns(i)) x = m.neg(x);
  }
  return *this;
}

RnsPoly& RnsPoly::mul_inplace(const RnsPoly& o) {
  check_operand(o);
  POE_ENSURE(ntt_form_, "pointwise multiply requires NTT form");
  const auto& k = ctx_->exec().kernels();
  for (std::size_t i = 0; i < level_; ++i) {
    auto dst = rns(i);
    k.mul(dst.data(), o.rns(i).data(), dst.size(), ctx_->mod(i));
  }
  return *this;
}

RnsPoly& RnsPoly::add_mul_inplace(const RnsPoly& a, const RnsPoly& b) {
  check_operand(a);
  check_operand(b);
  POE_ENSURE(ntt_form_, "pointwise multiply requires NTT form");
  const auto& k = ctx_->exec().kernels();
  for (std::size_t i = 0; i < level_; ++i) {
    auto dst = rns(i);
    k.add_mul(dst.data(), a.rns(i).data(), b.rns(i).data(), dst.size(),
              ctx_->mod(i));
  }
  return *this;
}

RnsPoly& RnsPoly::mul_scalar_inplace(std::uint64_t scalar_mod_t) {
  const std::uint64_t t = ctx_->t();
  POE_ENSURE(scalar_mod_t < t, "scalar out of plaintext range");
  // Centered lift keeps the noise growth proportional to |scalar|.
  const bool negative = scalar_mod_t > t / 2;
  const std::uint64_t magnitude = negative ? t - scalar_mod_t : scalar_mod_t;
  const auto& k = ctx_->exec().kernels();
  for (std::size_t i = 0; i < level_; ++i) {
    const auto& m = ctx_->mod(i);
    const std::uint64_t s =
        negative ? m.neg(magnitude % m.value()) : magnitude % m.value();
    auto dst = rns(i);
    // Broadcast scalar multiply via Shoup — exact residues, so identical
    // to the Barrett formulation it replaces.
    k.mul_shoup(dst.data(), dst.data(), dst.size(), s,
                kernels::shoup_precompute(s, m.value()), m.value());
  }
  return *this;
}

RnsPoly RnsPoly::apply_automorphism(std::uint64_t g) const {
  POE_ENSURE(!ntt_form_, "automorphism operates on coefficient form");
  POE_ENSURE(g % 2 == 1, "Galois element must be odd");
  const std::size_t n = ctx_->n();
  RnsPoly out(ctx_, level_, false);
  for (std::size_t i = 0; i < level_; ++i) {
    const auto& m = ctx_->mod(i);
    const auto src = rns(i);
    auto dst = out.rns(i);
    for (std::size_t idx = 0; idx < n; ++idx) {
      const std::uint64_t j = (idx * g) % (2 * n);
      if (j < n) {
        dst[j] = src[idx];
      } else {
        dst[j - n] = m.neg(src[idx]);
      }
    }
  }
  return out;
}

RnsPoly RnsPoly::apply_automorphism_ntt(std::uint64_t g) const {
  POE_ENSURE(ntt_form_, "apply_automorphism_ntt operates on NTT form");
  const std::size_t n = ctx_->n();
  const auto perm = ctx_->galois_ntt_perm(g);
  RnsPoly out = uninit(ctx_, level_, true);
  const auto& k = ctx_->exec().kernels();
  for (std::size_t i = 0; i < level_; ++i) {
    k.permute(out.rns(i).data(), rns(i).data(), perm.data(), n);
  }
  return out;
}

void RnsPoly::drop_last_component() {
  POE_ENSURE(level_ >= 2, "cannot drop below one prime");
  --level_;
}

RnsPoly RnsPoly::from_plaintext(const RnsContext* ctx, std::size_t level,
                                std::span<const std::uint64_t> coeffs_mod_t,
                                bool to_ntt_form) {
  RnsPoly p = uninit(ctx, level, false);
  for (std::size_t i = 0; i < level; ++i) {
    lift_plaintext(ctx, i, coeffs_mod_t, p.rns(i));
  }
  if (to_ntt_form) p.to_ntt();
  return p;
}

void RnsPoly::lift_plaintext(const RnsContext* ctx, std::size_t i,
                             std::span<const std::uint64_t> coeffs_mod_t,
                             std::span<std::uint64_t> dst) {
  POE_ENSURE(coeffs_mod_t.size() <= dst.size(), "plaintext too long");
  const std::uint64_t t = ctx->t();
  const std::uint64_t half = t / 2;
  // Centered lift: c > t/2 stands for c - t, i.e. q - (t - c) mod q. The
  // loop is branch-free so it vectorises; the range check folds into one
  // flag tested after it (an out-of-range c only writes a discarded word).
  const std::uint64_t wrap = ctx->prime(i) - t;
  std::uint64_t out_of_range = 0;
  for (std::size_t j = 0; j < coeffs_mod_t.size(); ++j) {
    const std::uint64_t c = coeffs_mod_t[j];
    out_of_range |= static_cast<std::uint64_t>(c >= t);
    dst[j] = c + (c > half ? wrap : 0);
  }
  POE_ENSURE(out_of_range == 0, "plaintext coefficient out of range");
  std::fill(dst.begin() + static_cast<std::ptrdiff_t>(coeffs_mod_t.size()),
            dst.end(), 0);
}

RnsPoly RnsPoly::sample_uniform(const RnsContext* ctx, std::size_t level,
                                Xoshiro256& rng, bool ntt_form) {
  RnsPoly p(ctx, level, ntt_form);
  for (std::size_t i = 0; i < level; ++i) {
    const std::uint64_t q = ctx->prime(i);
    for (auto& x : p.rns(i)) x = rng.below(q);
  }
  return p;
}

RnsPoly RnsPoly::from_signed_coeffs(const RnsContext* ctx, std::size_t level,
                                    std::span<const std::int64_t> coeffs) {
  POE_ENSURE(coeffs.size() == ctx->n(), "size mismatch");
  RnsPoly p(ctx, level, false);
  for (std::size_t i = 0; i < level; ++i) {
    const auto& m = ctx->mod(i);
    auto dst = p.rns(i);
    for (std::size_t j = 0; j < coeffs.size(); ++j) {
      const std::int64_t c = coeffs[j];
      dst[j] = c >= 0 ? static_cast<std::uint64_t>(c) % m.value()
                      : m.neg(static_cast<std::uint64_t>(-c) % m.value());
    }
  }
  return p;
}

RnsPoly RnsPoly::sample_ternary(const RnsContext* ctx, std::size_t level,
                                Xoshiro256& rng) {
  std::vector<std::int64_t> coeffs(ctx->n());
  for (auto& c : coeffs) c = static_cast<std::int64_t>(rng.below(3)) - 1;
  return from_signed_coeffs(ctx, level, coeffs);
}

RnsPoly RnsPoly::uninit(const RnsContext* ctx, std::size_t level,
                        bool ntt_form) {
  RnsPoly p;
  p.ctx_ = ctx;
  p.level_ = level;
  p.ntt_form_ = ntt_form;
  POE_ENSURE(ctx != nullptr, "null context");
  POE_ENSURE(level >= 1 && level <= ctx->num_primes(), "bad level " << level);
  p.buf_ = ctx->exec().pool().acquire(level * ctx->n(), /*zero=*/false);
  return p;
}

RnsPoly RnsPoly::sample_noise(const RnsContext* ctx, std::size_t level,
                              Xoshiro256& rng) {
  // Centered binomial with eta = 2: sum of 2 bits minus sum of 2 bits,
  // values in [-2, 2], variance 1.
  std::vector<std::int64_t> coeffs(ctx->n());
  for (auto& c : coeffs) {
    const std::uint64_t bits = rng.next();
    const int a = static_cast<int>(bits & 1) + static_cast<int>((bits >> 1) & 1);
    const int b =
        static_cast<int>((bits >> 2) & 1) + static_cast<int>((bits >> 3) & 1);
    c = a - b;
  }
  return from_signed_coeffs(ctx, level, coeffs);
}

}  // namespace poe::fhe
