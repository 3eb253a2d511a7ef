// Avx512Backend — 8 coefficients per lane group.
//
// AVX-512DQ gives the two primitives AVX2 had to emulate: a native 64-bit
// mullo (_mm512_mullo_epi64) and unsigned 64-bit compares (mask registers),
// plus _mm512_min_epu64 which turns the conditional subtract into a single
// instruction: min(a, a-b) is a-b exactly when a >= b (no wrap) and a
// otherwise (wrapped huge). Only the 64-bit mulhi is still composed from
// _mm512_mul_epu32 partials.
//
// The NTT vectorizes stages with butterfly span t >= 8 directly and
// re-tiles the three tail stages (t = 4, 2, 1) across two 512-bit
// registers with _mm512_permutex2var_epi64 — the index vectors below are
// their own inverses under the store-side permutes, mirroring the AVX2
// scheme one level up.
#include "kernels/backend_impl.hpp"

#ifdef POE_HAVE_AVX512

#include <immintrin.h>

#include "kernels/backend.hpp"

namespace poe::kernels {
namespace {

using u64 = std::uint64_t;
using u128 = unsigned __int128;

inline __m512i load8(const u64* p) { return _mm512_loadu_si512(p); }
inline void store8(u64* p, __m512i v) { _mm512_storeu_si512(p, v); }
inline __m512i bcast(u64 v) {
  return _mm512_set1_epi64(static_cast<long long>(v));
}

/// a >= m ? a - m : a — min picks a-m when it didn't wrap, a when it did.
inline __m512i csub_epu64(__m512i a, __m512i m) {
  return _mm512_min_epu64(a, _mm512_sub_epi64(a, m));
}

/// High 64 bits of a*b from four 32x32 partials (no native 64-bit mulhi
/// even in AVX-512).
inline __m512i mulhi_epu64(__m512i a, __m512i b) {
  const __m512i m32 = bcast(0xFFFFFFFFULL);
  const __m512i a_hi = _mm512_srli_epi64(a, 32);
  const __m512i b_hi = _mm512_srli_epi64(b, 32);
  const __m512i ll = _mm512_mul_epu32(a, b);
  const __m512i lh = _mm512_mul_epu32(a, b_hi);
  const __m512i hl = _mm512_mul_epu32(a_hi, b);
  const __m512i hh = _mm512_mul_epu32(a_hi, b_hi);
  const __m512i t = _mm512_add_epi64(hl, _mm512_srli_epi64(ll, 32));
  const __m512i t2 = _mm512_add_epi64(lh, _mm512_and_si512(t, m32));
  return _mm512_add_epi64(hh, _mm512_add_epi64(_mm512_srli_epi64(t, 32),
                                               _mm512_srli_epi64(t2, 32)));
}

inline void mul_epu64_full(__m512i a, __m512i b, __m512i& hi, __m512i& lo) {
  hi = mulhi_epu64(a, b);
  lo = _mm512_mullo_epi64(a, b);
}

/// Lazy Shoup product: x*w - floor(x*w'/2^64)*q, result in [0, 2q).
inline __m512i mul_shoup_lazy8(__m512i x, __m512i w, __m512i w_shoup,
                               __m512i q) {
  const __m512i hi = mulhi_epu64(x, w_shoup);
  return _mm512_sub_epi64(_mm512_mullo_epi64(x, w),
                          _mm512_mullo_epi64(hi, q));
}

/// Vector transliteration of Modulus::mul (see the AVX2 twin for the
/// shift-count analysis; _mm512_srl/sll_epi64 also zero at counts >= 64).
struct BarrettVec {
  __m512i p, two_p, mu;
  __m128i sh_z_lo, sh_z_hi, sh_t_lo, sh_t_hi;

  explicit BarrettVec(const mod::Modulus& m)
      : p(bcast(m.value())),
        two_p(bcast(2 * m.value())),
        mu(bcast(m.barrett_mu())),
        sh_z_lo(_mm_cvtsi32_si128(static_cast<int>(m.bit_width() - 1))),
        sh_z_hi(_mm_cvtsi32_si128(static_cast<int>(65 - m.bit_width()))),
        sh_t_lo(_mm_cvtsi32_si128(static_cast<int>(m.bit_width() + 2))),
        sh_t_hi(_mm_cvtsi32_si128(static_cast<int>(62 - m.bit_width()))) {}

  __m512i mul(__m512i a, __m512i b) const {
    __m512i zhi, zlo;
    mul_epu64_full(a, b, zhi, zlo);
    const __m512i zshift = _mm512_or_si512(_mm512_srl_epi64(zlo, sh_z_lo),
                                           _mm512_sll_epi64(zhi, sh_z_hi));
    __m512i phi, plo;
    mul_epu64_full(zshift, mu, phi, plo);
    const __m512i t = _mm512_or_si512(_mm512_srl_epi64(plo, sh_t_lo),
                                      _mm512_sll_epi64(phi, sh_t_hi));
    __m512i r = _mm512_sub_epi64(zlo, _mm512_mullo_epi64(t, p));  // < 3p
    r = csub_epu64(r, two_p);
    return csub_epu64(r, p);
  }
};

/// Vector transliteration of Modulus::reduce128_barrett.
struct Reduce128Vec {
  __m512i p, rlo, rhi, one;

  explicit Reduce128Vec(const mod::Modulus& m)
      : p(bcast(m.value())),
        rlo(bcast(m.ratio_lo())),
        rhi(bcast(m.ratio_hi())),
        one(bcast(1)) {}

  __m512i reduce(__m512i xlo, __m512i xhi) const {
    const __m512i c1 = mulhi_epu64(xlo, rlo);
    __m512i mlhi, mllo, hlhi, hllo;
    mul_epu64_full(xlo, rhi, mlhi, mllo);
    mul_epu64_full(xhi, rlo, hlhi, hllo);
    const __m512i s1 = _mm512_add_epi64(mllo, hllo);
    const __mmask8 carry1 = _mm512_cmplt_epu64_mask(s1, mllo);
    const __m512i s2 = _mm512_add_epi64(s1, c1);
    const __mmask8 carry2 = _mm512_cmplt_epu64_mask(s2, s1);
    __m512i mid_hi = _mm512_add_epi64(mlhi, hlhi);
    mid_hi = _mm512_mask_add_epi64(mid_hi, carry1, mid_hi, one);
    mid_hi = _mm512_mask_add_epi64(mid_hi, carry2, mid_hi, one);
    const __m512i qest =
        _mm512_add_epi64(_mm512_mullo_epi64(xhi, rhi), mid_hi);
    __m512i r = _mm512_sub_epi64(xlo, _mm512_mullo_epi64(qest, p));  // < 4p
    r = csub_epu64(r, p);
    r = csub_epu64(r, p);
    return csub_epu64(r, p);
  }
};

/// 128-bit lane-accumulator add: acc += (phi:plo), carry via mask add.
inline void acc128_add(__m512i& acc_lo, __m512i& acc_hi, __m512i plo,
                       __m512i phi, __m512i one) {
  const __m512i nlo = _mm512_add_epi64(acc_lo, plo);
  const __mmask8 carry = _mm512_cmplt_epu64_mask(nlo, acc_lo);
  __m512i nhi = _mm512_add_epi64(acc_hi, phi);
  acc_hi = _mm512_mask_add_epi64(nhi, carry, nhi, one);
  acc_lo = nlo;
}

class Avx512Backend final : public Backend {
 public:
  std::string_view name() const override { return "avx512"; }

  void add(u64* dst, const u64* src, std::size_t n,
           const mod::Modulus& m) const override {
    const __m512i p = bcast(m.value());
    std::size_t j = 0;
    for (; j + 8 <= n; j += 8) {
      store8(dst + j,
             csub_epu64(_mm512_add_epi64(load8(dst + j), load8(src + j)), p));
    }
    for (; j < n; ++j) dst[j] = m.add(dst[j], src[j]);
  }

  void sub(u64* dst, const u64* src, std::size_t n,
           const mod::Modulus& m) const override {
    const __m512i p = bcast(m.value());
    std::size_t j = 0;
    for (; j + 8 <= n; j += 8) {
      const __m512i a = load8(dst + j);
      const __m512i b = load8(src + j);
      const __m512i t = _mm512_sub_epi64(a, b);
      const __mmask8 wrap = _mm512_cmplt_epu64_mask(a, b);
      store8(dst + j, _mm512_mask_add_epi64(t, wrap, t, p));
    }
    for (; j < n; ++j) dst[j] = m.sub(dst[j], src[j]);
  }

  void mul(u64* dst, const u64* src, std::size_t n,
           const mod::Modulus& m) const override {
    const BarrettVec bv(m);
    std::size_t j = 0;
    for (; j + 8 <= n; j += 8) {
      store8(dst + j, bv.mul(load8(dst + j), load8(src + j)));
    }
    for (; j < n; ++j) dst[j] = m.mul(dst[j], src[j]);
  }

  void add_mul(u64* dst, const u64* a, const u64* b, std::size_t n,
               const mod::Modulus& m) const override {
    const BarrettVec bv(m);
    std::size_t j = 0;
    for (; j + 8 <= n; j += 8) {
      const __m512i prod = bv.mul(load8(a + j), load8(b + j));
      store8(dst + j,
             csub_epu64(_mm512_add_epi64(load8(dst + j), prod), bv.p));
    }
    for (; j < n; ++j) dst[j] = m.add(dst[j], m.mul(a[j], b[j]));
  }

  void mul_shoup(u64* dst, const u64* src, std::size_t n, u64 w, u64 w_shoup,
                 u64 q) const override {
    const __m512i wv = bcast(w), wsv = bcast(w_shoup), qv = bcast(q);
    std::size_t j = 0;
    for (; j + 8 <= n; j += 8) {
      store8(dst + j, csub_epu64(mul_shoup_lazy8(load8(src + j), wv, wsv, qv),
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
    for (; j + 8 <= n; j += 8) {
      store8(out + j, rv.reduce(load8(lo + j), load8(hi + j)));
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
    // this is one digit row's pass over a block, 8 coefficients at a time.
    const __m512i one = bcast(1);
    ksw_digit_major<8>(
        *this, dst0, dst1, dig, kb, ka, nd, n, perm, m, seed0, seed1,
        [one](u64* lo0, u64* hi0, u64* lo1, u64* hi1, detail::KswRows cur,
              detail::KswRows next, std::size_t len) {
          for (std::size_t j = 0; j < len; j += 8) {
            prefetch_l2(next.d + j), prefetch_l2(next.b + j);
            prefetch_l2(next.a + j);
            const __m512i v = load8(cur.d + j);
            __m512i phi, plo, acc_lo, acc_hi;
            mul_epu64_full(v, load8(cur.b + j), phi, plo);
            acc_lo = load8(lo0 + j), acc_hi = load8(hi0 + j);
            acc128_add(acc_lo, acc_hi, plo, phi, one);
            store8(lo0 + j, acc_lo), store8(hi0 + j, acc_hi);
            mul_epu64_full(v, load8(cur.a + j), phi, plo);
            acc_lo = load8(lo1 + j), acc_hi = load8(hi1 + j);
            acc128_add(acc_lo, acc_hi, plo, phi, one);
            store8(lo1 + j, acc_lo), store8(hi1 + j, acc_hi);
          }
        });
  }

  void permute(u64* dst, const u64* src, const std::uint32_t* perm,
               std::size_t n) const override {
    for (std::size_t idx = 0; idx < n; ++idx) dst[idx] = src[perm[idx]];
  }

 protected:
  void ntt_impl(u64* x, const NttTables& tb) const override {
    if (tb.n < 16) {
      scalar_backend().ntt_inplace(x, tb);
      return;
    }
    const __m512i qv = bcast(tb.q), two_qv = bcast(2 * tb.q);
    const u64* w = tb.psi;
    const u64* ws = tb.psi_shoup;
    // Tail-stage retiling indices (a:lane of first arg, 8+b:lane of second).
    const __m512i t4_u = _mm512_setr_epi64(0, 1, 2, 3, 8, 9, 10, 11);
    const __m512i t4_v = _mm512_setr_epi64(4, 5, 6, 7, 12, 13, 14, 15);
    const __m512i t4_tw = _mm512_setr_epi64(0, 0, 0, 0, 1, 1, 1, 1);
    const __m512i t2_u = _mm512_setr_epi64(0, 1, 4, 5, 8, 9, 12, 13);
    const __m512i t2_v = _mm512_setr_epi64(2, 3, 6, 7, 10, 11, 14, 15);
    const __m512i t2_y0 = _mm512_setr_epi64(0, 1, 8, 9, 2, 3, 10, 11);
    const __m512i t2_y1 = _mm512_setr_epi64(4, 5, 12, 13, 6, 7, 14, 15);
    const __m512i t2_tw = _mm512_setr_epi64(0, 0, 1, 1, 2, 2, 3, 3);
    const __m512i t1_u = _mm512_setr_epi64(0, 2, 4, 6, 8, 10, 12, 14);
    const __m512i t1_v = _mm512_setr_epi64(1, 3, 5, 7, 9, 11, 13, 15);
    const __m512i t1_y0 = _mm512_setr_epi64(0, 8, 1, 9, 2, 10, 3, 11);
    const __m512i t1_y1 = _mm512_setr_epi64(4, 12, 5, 13, 6, 14, 7, 15);
    std::size_t t = tb.n;
    for (std::size_t m = 1; m < tb.n; m <<= 1) {
      t >>= 1;
      if (t >= 8) {
        for (std::size_t i = 0; i < m; ++i) {
          const std::size_t j1 = 2 * i * t;
          const __m512i s = bcast(w[m + i]);
          const __m512i ss = bcast(ws[m + i]);
          for (std::size_t j = j1; j < j1 + t; j += 8) {
            const __m512i u = csub_epu64(load8(x + j), two_qv);
            const __m512i v = mul_shoup_lazy8(load8(x + j + t), s, ss, qv);
            store8(x + j, _mm512_add_epi64(u, v));
            store8(x + j + t,
                   _mm512_add_epi64(_mm512_sub_epi64(u, v), two_qv));
          }
        }
      } else {
        // t in {4, 2, 1}: two loads cover 16/n-of-a-kind coefficients;
        // permutex2var splits them into u/v halves and recombines.
        const __m512i* iu;
        const __m512i* iv;
        const __m512i* iy0;
        const __m512i* iy1;
        if (t == 4) {
          iu = &t4_u, iv = &t4_v, iy0 = &t4_u, iy1 = &t4_v;
        } else if (t == 2) {
          iu = &t2_u, iv = &t2_v, iy0 = &t2_y0, iy1 = &t2_y1;
        } else {
          iu = &t1_u, iv = &t1_v, iy0 = &t1_y0, iy1 = &t1_y1;
        }
        const std::size_t groups_per_iter = 8 / t;
        for (std::size_t k = 0; k < m; k += groups_per_iter) {
          const std::size_t base = 2 * k * t;
          const __m512i y0 = load8(x + base);
          const __m512i y1 = load8(x + base + 8);
          const __m512i u0 = _mm512_permutex2var_epi64(y0, *iu, y1);
          const __m512i vin = _mm512_permutex2var_epi64(y0, *iv, y1);
          __m512i tw, tws;
          if (t == 4) {
            tw = _mm512_permutexvar_epi64(
                t4_tw, _mm512_zextsi128_si512(_mm_loadu_si128(
                           reinterpret_cast<const __m128i*>(w + m + k))));
            tws = _mm512_permutexvar_epi64(
                t4_tw, _mm512_zextsi128_si512(_mm_loadu_si128(
                           reinterpret_cast<const __m128i*>(ws + m + k))));
          } else if (t == 2) {
            tw = _mm512_permutexvar_epi64(
                t2_tw, _mm512_zextsi256_si512(_mm256_loadu_si256(
                           reinterpret_cast<const __m256i*>(w + m + k))));
            tws = _mm512_permutexvar_epi64(
                t2_tw, _mm512_zextsi256_si512(_mm256_loadu_si256(
                           reinterpret_cast<const __m256i*>(ws + m + k))));
          } else {
            tw = load8(w + m + k);
            tws = load8(ws + m + k);
          }
          const __m512i u = csub_epu64(u0, two_qv);
          const __m512i v = mul_shoup_lazy8(vin, tw, tws, qv);
          const __m512i nu = _mm512_add_epi64(u, v);
          const __m512i nv = _mm512_add_epi64(_mm512_sub_epi64(u, v), two_qv);
          store8(x + base, _mm512_permutex2var_epi64(nu, *iy0, nv));
          store8(x + base + 8, _mm512_permutex2var_epi64(nu, *iy1, nv));
        }
      }
    }
    for (std::size_t j = 0; j < tb.n; j += 8) {
      store8(x + j, csub_epu64(csub_epu64(load8(x + j), two_qv), qv));
    }
  }

  void intt_impl(u64* x, const NttTables& tb) const override {
    if (tb.n < 16) {
      scalar_backend().intt_inplace(x, tb);
      return;
    }
    const __m512i qv = bcast(tb.q), two_qv = bcast(2 * tb.q);
    const u64* w = tb.psi_inv;
    const u64* ws = tb.psi_inv_shoup;
    const __m512i t4_u = _mm512_setr_epi64(0, 1, 2, 3, 8, 9, 10, 11);
    const __m512i t4_v = _mm512_setr_epi64(4, 5, 6, 7, 12, 13, 14, 15);
    const __m512i t4_tw = _mm512_setr_epi64(0, 0, 0, 0, 1, 1, 1, 1);
    const __m512i t2_u = _mm512_setr_epi64(0, 1, 4, 5, 8, 9, 12, 13);
    const __m512i t2_v = _mm512_setr_epi64(2, 3, 6, 7, 10, 11, 14, 15);
    const __m512i t2_y0 = _mm512_setr_epi64(0, 1, 8, 9, 2, 3, 10, 11);
    const __m512i t2_y1 = _mm512_setr_epi64(4, 5, 12, 13, 6, 7, 14, 15);
    const __m512i t2_tw = _mm512_setr_epi64(0, 0, 1, 1, 2, 2, 3, 3);
    const __m512i t1_u = _mm512_setr_epi64(0, 2, 4, 6, 8, 10, 12, 14);
    const __m512i t1_v = _mm512_setr_epi64(1, 3, 5, 7, 9, 11, 13, 15);
    const __m512i t1_y0 = _mm512_setr_epi64(0, 8, 1, 9, 2, 10, 3, 11);
    const __m512i t1_y1 = _mm512_setr_epi64(4, 12, 5, 13, 6, 14, 7, 15);
    std::size_t t = 1;
    for (std::size_t m = tb.n; m > 1; m >>= 1) {
      const std::size_t h = m >> 1;
      if (t <= 4) {
        const __m512i* iu;
        const __m512i* iv;
        const __m512i* iy0;
        const __m512i* iy1;
        if (t == 4) {
          iu = &t4_u, iv = &t4_v, iy0 = &t4_u, iy1 = &t4_v;
        } else if (t == 2) {
          iu = &t2_u, iv = &t2_v, iy0 = &t2_y0, iy1 = &t2_y1;
        } else {
          iu = &t1_u, iv = &t1_v, iy0 = &t1_y0, iy1 = &t1_y1;
        }
        const std::size_t groups_per_iter = 8 / t;
        for (std::size_t k = 0; k < h; k += groups_per_iter) {
          const std::size_t base = 2 * k * t;
          const __m512i y0 = load8(x + base);
          const __m512i y1 = load8(x + base + 8);
          const __m512i u = _mm512_permutex2var_epi64(y0, *iu, y1);
          const __m512i v = _mm512_permutex2var_epi64(y0, *iv, y1);
          __m512i tw, tws;
          if (t == 4) {
            tw = _mm512_permutexvar_epi64(
                t4_tw, _mm512_zextsi128_si512(_mm_loadu_si128(
                           reinterpret_cast<const __m128i*>(w + h + k))));
            tws = _mm512_permutexvar_epi64(
                t4_tw, _mm512_zextsi128_si512(_mm_loadu_si128(
                           reinterpret_cast<const __m128i*>(ws + h + k))));
          } else if (t == 2) {
            tw = _mm512_permutexvar_epi64(
                t2_tw, _mm512_zextsi256_si512(_mm256_loadu_si256(
                           reinterpret_cast<const __m256i*>(w + h + k))));
            tws = _mm512_permutexvar_epi64(
                t2_tw, _mm512_zextsi256_si512(_mm256_loadu_si256(
                           reinterpret_cast<const __m256i*>(ws + h + k))));
          } else {
            tw = load8(w + h + k);
            tws = load8(ws + h + k);
          }
          const __m512i nu = csub_epu64(_mm512_add_epi64(u, v), two_qv);
          const __m512i diff =
              _mm512_add_epi64(_mm512_sub_epi64(u, v), two_qv);
          const __m512i nv = mul_shoup_lazy8(diff, tw, tws, qv);
          store8(x + base, _mm512_permutex2var_epi64(nu, *iy0, nv));
          store8(x + base + 8, _mm512_permutex2var_epi64(nu, *iy1, nv));
        }
      } else {
        std::size_t j1 = 0;
        for (std::size_t i = 0; i < h; ++i) {
          const __m512i s = bcast(w[h + i]);
          const __m512i ss = bcast(ws[h + i]);
          for (std::size_t j = j1; j < j1 + t; j += 8) {
            const __m512i u = load8(x + j);
            const __m512i v = load8(x + j + t);
            store8(x + j, csub_epu64(_mm512_add_epi64(u, v), two_qv));
            const __m512i diff =
                _mm512_add_epi64(_mm512_sub_epi64(u, v), two_qv);
            store8(x + j + t, mul_shoup_lazy8(diff, s, ss, qv));
          }
          j1 += 2 * t;
        }
      }
      t <<= 1;
    }
    const __m512i ni = bcast(tb.n_inv), nis = bcast(tb.n_inv_shoup);
    for (std::size_t j = 0; j < tb.n; j += 8) {
      store8(x + j,
             csub_epu64(mul_shoup_lazy8(load8(x + j), ni, nis, qv), qv));
    }
  }
};

}  // namespace

namespace detail {
const Backend* avx512_backend_impl() {
  static const Avx512Backend backend;
  return &backend;
}
}  // namespace detail

}  // namespace poe::kernels

#else  // !POE_HAVE_AVX512

namespace poe::kernels::detail {
const Backend* avx512_backend_impl() { return nullptr; }
}  // namespace poe::kernels::detail

#endif  // POE_HAVE_AVX512
