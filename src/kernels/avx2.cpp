// Avx2Backend — 4 coefficients per lane group.
//
// AVX2 has no 64-bit unsigned compare, no 64-bit mullo, and no 64x64->128
// multiply, so everything is composed:
//   * full/hi/lo 64-bit products from four _mm256_mul_epu32 partials
//     (schoolbook on 32-bit halves),
//   * unsigned compares via the sign-bit-flip trick over _mm256_cmpgt_epi64,
//   * conditional subtraction as subtract-then-masked-add-back (coefficients
//     ride up to 4q < 2^64, so signed compares would be wrong).
// Every routine evaluates the scalar backend's exact integer formula — same
// Barrett estimates, same Shoup products, same flush schedule — so outputs
// are bit-identical by construction, and the differential suite checks it.
//
// The NTT vectorizes stages with butterfly span t >= 4 directly (one
// broadcast twiddle per group); the two tail stages re-tile 8 coefficients
// across two registers:
//   t == 2: 128-bit-lane swaps (_mm256_permute2x128_si256 0x20/0x31), a
//           self-inverse scramble, twiddles widened [s0 s1] -> [s0 s0 s1 s1]
//           with _mm256_permute4x64_epi64 imm 0x50;
//   t == 1: unpacklo/hi_epi64 (also self-inverse, pair order [0,2,1,3]),
//           twiddles matched with _mm256_permute4x64_epi64 imm 0xD8.
#include "kernels/backend_impl.hpp"

#ifdef POE_HAVE_AVX2

#include <immintrin.h>

#include "kernels/backend.hpp"

namespace poe::kernels {
namespace {

using u64 = std::uint64_t;
using u128 = unsigned __int128;

inline __m256i load4(const u64* p) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}
inline void store4(u64* p, __m256i v) {
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
}
inline __m256i bcast(u64 v) {
  return _mm256_set1_epi64x(static_cast<long long>(v));
}

/// a > b, unsigned: flip sign bits, then the signed compare is correct.
inline __m256i cmpgt_epu64(__m256i a, __m256i b) {
  const __m256i sign = bcast(0x8000000000000000ULL);
  return _mm256_cmpgt_epi64(_mm256_xor_si256(a, sign),
                            _mm256_xor_si256(b, sign));
}

/// a >= m ? a - m : a — subtract, then add m back in lanes that wrapped.
inline __m256i csub_epu64(__m256i a, __m256i m) {
  const __m256i t = _mm256_sub_epi64(a, m);
  return _mm256_add_epi64(t, _mm256_and_si256(m, cmpgt_epu64(m, a)));
}

/// Low 64 bits of a*b (3 partial products; the hi*hi term never reaches
/// the low word).
inline __m256i mullo_epu64(__m256i a, __m256i b) {
  const __m256i lh = _mm256_mul_epu32(a, _mm256_srli_epi64(b, 32));
  const __m256i hl = _mm256_mul_epu32(_mm256_srli_epi64(a, 32), b);
  const __m256i ll = _mm256_mul_epu32(a, b);
  return _mm256_add_epi64(ll,
                          _mm256_slli_epi64(_mm256_add_epi64(lh, hl), 32));
}

/// Full 64x64 -> 128 product, schoolbook on 32-bit halves. The carry
/// chain is the standard one: t = hl + (ll >> 32) and t2 = lh + (t & m32)
/// cannot overflow because each partial is <= (2^32-1)^2.
inline void mul_epu64_full(__m256i a, __m256i b, __m256i& hi, __m256i& lo) {
  const __m256i m32 = bcast(0xFFFFFFFFULL);
  const __m256i a_hi = _mm256_srli_epi64(a, 32);
  const __m256i b_hi = _mm256_srli_epi64(b, 32);
  const __m256i ll = _mm256_mul_epu32(a, b);
  const __m256i lh = _mm256_mul_epu32(a, b_hi);
  const __m256i hl = _mm256_mul_epu32(a_hi, b);
  const __m256i hh = _mm256_mul_epu32(a_hi, b_hi);
  const __m256i t = _mm256_add_epi64(hl, _mm256_srli_epi64(ll, 32));
  const __m256i t2 = _mm256_add_epi64(lh, _mm256_and_si256(t, m32));
  hi = _mm256_add_epi64(hh, _mm256_add_epi64(_mm256_srli_epi64(t, 32),
                                             _mm256_srli_epi64(t2, 32)));
  lo = _mm256_add_epi64(_mm256_slli_epi64(t2, 32),
                        _mm256_and_si256(ll, m32));
}

inline __m256i mulhi_epu64(__m256i a, __m256i b) {
  __m256i hi, lo;
  mul_epu64_full(a, b, hi, lo);
  return hi;
}

/// Lazy Shoup product: x*w - floor(x*w'/2^64)*q, result in [0, 2q).
inline __m256i mul_shoup_lazy4(__m256i x, __m256i w, __m256i w_shoup,
                               __m256i q) {
  const __m256i hi = mulhi_epu64(x, w_shoup);
  return _mm256_sub_epi64(mullo_epu64(x, w), mullo_epu64(hi, q));
}

/// Vector transliteration of Modulus::mul — identical quotient estimate
/// t = ((z >> (k-1)) * mu) >> (k+2), so identical results lane for lane.
/// Shift counts are runtime (k = bit width of p); _mm256_srl/sll_epi64
/// return 0 for counts >= 64, which makes the k == 62 corner (k+2 == 64,
/// the high word carries the whole estimate) fall out correctly.
struct BarrettVec {
  __m256i p, two_p, mu;
  __m128i sh_z_lo, sh_z_hi, sh_t_lo, sh_t_hi;

  explicit BarrettVec(const mod::Modulus& m)
      : p(bcast(m.value())),
        two_p(bcast(2 * m.value())),
        mu(bcast(m.barrett_mu())),
        sh_z_lo(_mm_cvtsi32_si128(static_cast<int>(m.bit_width() - 1))),
        sh_z_hi(_mm_cvtsi32_si128(static_cast<int>(65 - m.bit_width()))),
        sh_t_lo(_mm_cvtsi32_si128(static_cast<int>(m.bit_width() + 2))),
        sh_t_hi(_mm_cvtsi32_si128(static_cast<int>(62 - m.bit_width()))) {}

  __m256i mul(__m256i a, __m256i b) const {
    __m256i zhi, zlo;
    mul_epu64_full(a, b, zhi, zlo);
    // z >> (k-1): fits 64 bits since z < p^2 < 2^(2k).
    const __m256i zshift = _mm256_or_si256(_mm256_srl_epi64(zlo, sh_z_lo),
                                           _mm256_sll_epi64(zhi, sh_z_hi));
    __m256i phi, plo;
    mul_epu64_full(zshift, mu, phi, plo);
    const __m256i t = _mm256_or_si256(_mm256_srl_epi64(plo, sh_t_lo),
                                      _mm256_sll_epi64(phi, sh_t_hi));
    __m256i r = _mm256_sub_epi64(zlo, mullo_epu64(t, p));  // < 3p
    r = csub_epu64(r, two_p);
    return csub_epu64(r, p);
  }
};

/// Vector transliteration of Modulus::reduce128_barrett: same ratio words,
/// same truncated-cross-product quotient estimate, remainder < 4p closed
/// with three conditional subtracts (== the scalar while loop).
struct Reduce128Vec {
  __m256i p, rlo, rhi;

  explicit Reduce128Vec(const mod::Modulus& m)
      : p(bcast(m.value())),
        rlo(bcast(m.ratio_lo())),
        rhi(bcast(m.ratio_hi())) {}

  __m256i reduce(__m256i xlo, __m256i xhi) const {
    const __m256i c1 = mulhi_epu64(xlo, rlo);
    __m256i mlhi, mllo, hlhi, hllo;
    mul_epu64_full(xlo, rhi, mlhi, mllo);
    mul_epu64_full(xhi, rlo, hlhi, hllo);
    // mid = xlo*rhi + xhi*rlo + c1 as a 128-bit sum; carries detected by
    // wrap (mask is all-ones == -1, so subtracting it adds the carry).
    const __m256i s1 = _mm256_add_epi64(mllo, hllo);
    const __m256i carry1 = cmpgt_epu64(mllo, s1);
    const __m256i s2 = _mm256_add_epi64(s1, c1);
    const __m256i carry2 = cmpgt_epu64(s1, s2);
    __m256i mid_hi = _mm256_add_epi64(mlhi, hlhi);
    mid_hi = _mm256_sub_epi64(mid_hi, carry1);
    mid_hi = _mm256_sub_epi64(mid_hi, carry2);
    const __m256i qest = _mm256_add_epi64(mullo_epu64(xhi, rhi), mid_hi);
    __m256i r = _mm256_sub_epi64(xlo, mullo_epu64(qest, p));  // < 4p
    r = csub_epu64(r, p);
    r = csub_epu64(r, p);
    return csub_epu64(r, p);
  }
};

/// 128-bit lane-accumulator add: acc += (phi:plo), carry by wrap detection.
inline void acc128_add(__m256i& acc_lo, __m256i& acc_hi, __m256i plo,
                       __m256i phi) {
  const __m256i nlo = _mm256_add_epi64(acc_lo, plo);
  const __m256i carry = cmpgt_epu64(acc_lo, nlo);
  acc_hi = _mm256_sub_epi64(_mm256_add_epi64(acc_hi, phi), carry);
  acc_lo = nlo;
}

class Avx2Backend final : public Backend {
 public:
  std::string_view name() const override { return "avx2"; }

  void add(u64* dst, const u64* src, std::size_t n,
           const mod::Modulus& m) const override {
    const __m256i p = bcast(m.value());
    std::size_t j = 0;
    for (; j + 4 <= n; j += 4) {
      // Reduced operands: the sum stays below 2p < 2^63, no wrap.
      store4(dst + j,
             csub_epu64(_mm256_add_epi64(load4(dst + j), load4(src + j)), p));
    }
    for (; j < n; ++j) dst[j] = m.add(dst[j], src[j]);
  }

  void sub(u64* dst, const u64* src, std::size_t n,
           const mod::Modulus& m) const override {
    const __m256i p = bcast(m.value());
    std::size_t j = 0;
    for (; j + 4 <= n; j += 4) {
      const __m256i a = load4(dst + j);
      const __m256i b = load4(src + j);
      const __m256i t = _mm256_sub_epi64(a, b);
      store4(dst + j,
             _mm256_add_epi64(t, _mm256_and_si256(p, cmpgt_epu64(b, a))));
    }
    for (; j < n; ++j) dst[j] = m.sub(dst[j], src[j]);
  }

  void mul(u64* dst, const u64* src, std::size_t n,
           const mod::Modulus& m) const override {
    const BarrettVec bv(m);
    std::size_t j = 0;
    for (; j + 4 <= n; j += 4) {
      store4(dst + j, bv.mul(load4(dst + j), load4(src + j)));
    }
    for (; j < n; ++j) dst[j] = m.mul(dst[j], src[j]);
  }

  void add_mul(u64* dst, const u64* a, const u64* b, std::size_t n,
               const mod::Modulus& m) const override {
    const BarrettVec bv(m);
    std::size_t j = 0;
    for (; j + 4 <= n; j += 4) {
      const __m256i prod = bv.mul(load4(a + j), load4(b + j));
      store4(dst + j,
             csub_epu64(_mm256_add_epi64(load4(dst + j), prod), bv.p));
    }
    for (; j < n; ++j) dst[j] = m.add(dst[j], m.mul(a[j], b[j]));
  }

  void mul_shoup(u64* dst, const u64* src, std::size_t n, u64 w, u64 w_shoup,
                 u64 q) const override {
    const __m256i wv = bcast(w), wsv = bcast(w_shoup), qv = bcast(q);
    std::size_t j = 0;
    for (; j + 4 <= n; j += 4) {
      store4(dst + j, csub_epu64(mul_shoup_lazy4(load4(src + j), wv, wsv, qv),
                                 qv));
    }
    for (; j < n; ++j) {
      const u64 hi = static_cast<u64>((static_cast<u128>(src[j]) * w_shoup)
                                      >> 64);
      u64 r = src[j] * w - hi * q;
      if (r >= q) r -= q;
      dst[j] = r;
    }
  }

  void reduce128(u64* out, const u64* lo, const u64* hi, std::size_t n,
                 const mod::Modulus& m) const override {
    const Reduce128Vec rv(m);
    std::size_t j = 0;
    for (; j + 4 <= n; j += 4) {
      store4(out + j, rv.reduce(load4(lo + j), load4(hi + j)));
    }
    for (; j < n; ++j) {
      out[j] = m.reduce128_barrett((static_cast<u128>(hi[j]) << 64) | lo[j]);
    }
  }

  void ksw_accumulate(u64* dst0, u64* dst1, const u64* const* dig,
                      const u64* const* kb, const u64* const* ka,
                      std::size_t nd, std::size_t n, const std::uint32_t* perm,
                      const mod::Modulus& m, bool seed0,
                      bool seed1) const override {
    // Digit-major over L1-resident accumulator blocks (backend_impl.hpp);
    // this is one digit row's pass over a block, 4 coefficients at a time.
    ksw_digit_major<4>(
        *this, dst0, dst1, dig, kb, ka, nd, n, perm, m, seed0, seed1,
        [](u64* lo0, u64* hi0, u64* lo1, u64* hi1, detail::KswRows cur,
           detail::KswRows next, std::size_t len) {
          for (std::size_t j = 0; j < len; j += 4) {
            prefetch_l2(next.d + j), prefetch_l2(next.b + j);
            prefetch_l2(next.a + j);
            const __m256i v = load4(cur.d + j);
            __m256i phi, plo, acc_lo, acc_hi;
            mul_epu64_full(v, load4(cur.b + j), phi, plo);
            acc_lo = load4(lo0 + j), acc_hi = load4(hi0 + j);
            acc128_add(acc_lo, acc_hi, plo, phi);
            store4(lo0 + j, acc_lo), store4(hi0 + j, acc_hi);
            mul_epu64_full(v, load4(cur.a + j), phi, plo);
            acc_lo = load4(lo1 + j), acc_hi = load4(hi1 + j);
            acc128_add(acc_lo, acc_hi, plo, phi);
            store4(lo1 + j, acc_lo), store4(hi1 + j, acc_hi);
          }
        });
  }

  void permute(u64* dst, const u64* src, const std::uint32_t* perm,
               std::size_t n) const override {
    // Gather-free: the sequential stores dominate, and hardware gathers
    // lose to scalar loads on this access pattern.
    for (std::size_t idx = 0; idx < n; ++idx) dst[idx] = src[perm[idx]];
  }

 protected:
  void ntt_impl(u64* x, const NttTables& tb) const override {
    if (tb.n < 8) {  // too small to tile; the reference loop is fine
      scalar_backend().ntt_inplace(x, tb);
      return;
    }
    const __m256i qv = bcast(tb.q), two_qv = bcast(2 * tb.q);
    const u64* w = tb.psi;
    const u64* ws = tb.psi_shoup;
    std::size_t t = tb.n;
    for (std::size_t m = 1; m < tb.n; m <<= 1) {
      t >>= 1;
      if (t >= 4) {
        for (std::size_t i = 0; i < m; ++i) {
          const std::size_t j1 = 2 * i * t;
          const __m256i s = bcast(w[m + i]);
          const __m256i ss = bcast(ws[m + i]);
          for (std::size_t j = j1; j < j1 + t; j += 4) {
            const __m256i u = csub_epu64(load4(x + j), two_qv);
            const __m256i v = mul_shoup_lazy4(load4(x + j + t), s, ss, qv);
            store4(x + j, _mm256_add_epi64(u, v));
            store4(x + j + t,
                   _mm256_add_epi64(_mm256_sub_epi64(u, v), two_qv));
          }
        }
      } else if (t == 2) {
        // Two 4-wide groups per iteration; u/v live in opposite 128-bit
        // halves, so the swap is permute2x128 (self-inverse).
        for (std::size_t k = 0; k < m; k += 2) {
          const __m256i y0 = load4(x + 4 * k);
          const __m256i y1 = load4(x + 4 * k + 4);
          const __m256i u0 = _mm256_permute2x128_si256(y0, y1, 0x20);
          const __m256i vin = _mm256_permute2x128_si256(y0, y1, 0x31);
          const __m256i tw = _mm256_permute4x64_epi64(
              _mm256_zextsi128_si256(_mm_loadu_si128(
                  reinterpret_cast<const __m128i*>(w + m + k))),
              0x50);
          const __m256i tws = _mm256_permute4x64_epi64(
              _mm256_zextsi128_si256(_mm_loadu_si128(
                  reinterpret_cast<const __m128i*>(ws + m + k))),
              0x50);
          const __m256i u = csub_epu64(u0, two_qv);
          const __m256i v = mul_shoup_lazy4(vin, tw, tws, qv);
          const __m256i nu = _mm256_add_epi64(u, v);
          const __m256i nv = _mm256_add_epi64(_mm256_sub_epi64(u, v), two_qv);
          store4(x + 4 * k, _mm256_permute2x128_si256(nu, nv, 0x20));
          store4(x + 4 * k + 4, _mm256_permute2x128_si256(nu, nv, 0x31));
        }
      } else {  // t == 1
        // Four adjacent pairs per iteration; unpacklo/hi interleave is
        // self-inverse with pair order [0,2,1,3], twiddles matched by
        // permute4x64 imm 0xD8 (= selectors 0,2,1,3).
        for (std::size_t k = 0; k < m; k += 4) {
          const __m256i y0 = load4(x + 2 * k);
          const __m256i y1 = load4(x + 2 * k + 4);
          const __m256i u0 = _mm256_unpacklo_epi64(y0, y1);
          const __m256i vin = _mm256_unpackhi_epi64(y0, y1);
          const __m256i tw =
              _mm256_permute4x64_epi64(load4(w + m + k), 0xD8);
          const __m256i tws =
              _mm256_permute4x64_epi64(load4(ws + m + k), 0xD8);
          const __m256i u = csub_epu64(u0, two_qv);
          const __m256i v = mul_shoup_lazy4(vin, tw, tws, qv);
          const __m256i nu = _mm256_add_epi64(u, v);
          const __m256i nv = _mm256_add_epi64(_mm256_sub_epi64(u, v), two_qv);
          store4(x + 2 * k, _mm256_unpacklo_epi64(nu, nv));
          store4(x + 2 * k + 4, _mm256_unpackhi_epi64(nu, nv));
        }
      }
    }
    for (std::size_t j = 0; j < tb.n; j += 4) {
      store4(x + j, csub_epu64(csub_epu64(load4(x + j), two_qv), qv));
    }
  }

  void intt_impl(u64* x, const NttTables& tb) const override {
    if (tb.n < 8) {
      scalar_backend().intt_inplace(x, tb);
      return;
    }
    const __m256i qv = bcast(tb.q), two_qv = bcast(2 * tb.q);
    const u64* w = tb.psi_inv;
    const u64* ws = tb.psi_inv_shoup;
    std::size_t t = 1;
    for (std::size_t m = tb.n; m > 1; m >>= 1) {
      const std::size_t h = m >> 1;
      if (t == 1) {
        for (std::size_t k = 0; k < h; k += 4) {
          const __m256i y0 = load4(x + 2 * k);
          const __m256i y1 = load4(x + 2 * k + 4);
          const __m256i u = _mm256_unpacklo_epi64(y0, y1);
          const __m256i v = _mm256_unpackhi_epi64(y0, y1);
          const __m256i tw =
              _mm256_permute4x64_epi64(load4(w + h + k), 0xD8);
          const __m256i tws =
              _mm256_permute4x64_epi64(load4(ws + h + k), 0xD8);
          const __m256i nu = csub_epu64(_mm256_add_epi64(u, v), two_qv);
          const __m256i diff =
              _mm256_add_epi64(_mm256_sub_epi64(u, v), two_qv);
          const __m256i nv = mul_shoup_lazy4(diff, tw, tws, qv);
          store4(x + 2 * k, _mm256_unpacklo_epi64(nu, nv));
          store4(x + 2 * k + 4, _mm256_unpackhi_epi64(nu, nv));
        }
      } else if (t == 2) {
        for (std::size_t k = 0; k < h; k += 2) {
          const __m256i y0 = load4(x + 4 * k);
          const __m256i y1 = load4(x + 4 * k + 4);
          const __m256i u = _mm256_permute2x128_si256(y0, y1, 0x20);
          const __m256i v = _mm256_permute2x128_si256(y0, y1, 0x31);
          const __m256i tw = _mm256_permute4x64_epi64(
              _mm256_zextsi128_si256(_mm_loadu_si128(
                  reinterpret_cast<const __m128i*>(w + h + k))),
              0x50);
          const __m256i tws = _mm256_permute4x64_epi64(
              _mm256_zextsi128_si256(_mm_loadu_si128(
                  reinterpret_cast<const __m128i*>(ws + h + k))),
              0x50);
          const __m256i nu = csub_epu64(_mm256_add_epi64(u, v), two_qv);
          const __m256i diff =
              _mm256_add_epi64(_mm256_sub_epi64(u, v), two_qv);
          const __m256i nv = mul_shoup_lazy4(diff, tw, tws, qv);
          store4(x + 4 * k, _mm256_permute2x128_si256(nu, nv, 0x20));
          store4(x + 4 * k + 4, _mm256_permute2x128_si256(nu, nv, 0x31));
        }
      } else {
        std::size_t j1 = 0;
        for (std::size_t i = 0; i < h; ++i) {
          const __m256i s = bcast(w[h + i]);
          const __m256i ss = bcast(ws[h + i]);
          for (std::size_t j = j1; j < j1 + t; j += 4) {
            const __m256i u = load4(x + j);
            const __m256i v = load4(x + j + t);
            store4(x + j, csub_epu64(_mm256_add_epi64(u, v), two_qv));
            const __m256i diff =
                _mm256_add_epi64(_mm256_sub_epi64(u, v), two_qv);
            store4(x + j + t, mul_shoup_lazy4(diff, s, ss, qv));
          }
          j1 += 2 * t;
        }
      }
      t <<= 1;
    }
    const __m256i ni = bcast(tb.n_inv), nis = bcast(tb.n_inv_shoup);
    for (std::size_t j = 0; j < tb.n; j += 4) {
      store4(x + j,
             csub_epu64(mul_shoup_lazy4(load4(x + j), ni, nis, qv), qv));
    }
  }
};

}  // namespace

namespace detail {
const Backend* avx2_backend_impl() {
  static const Avx2Backend backend;
  return &backend;
}
}  // namespace detail

}  // namespace poe::kernels

#else  // !POE_HAVE_AVX2

namespace poe::kernels::detail {
const Backend* avx2_backend_impl() { return nullptr; }
}  // namespace poe::kernels::detail

#endif  // POE_HAVE_AVX2
