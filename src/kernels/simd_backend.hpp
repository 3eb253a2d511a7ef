// The SIMD backends' algorithms, written once over a lane type.
//
// Internal header: only avx2.cpp and avx512.cpp include it, each after
// defining its lane type and under its own ISA flags. Everything here has
// internal linkage on purpose: each ISA translation unit compiles its own
// copy with its own target flags, so the linker can never hand the AVX2
// backend an AVX-512-compiled instantiation.
//
// A lane type L supplies only what differs between instruction sets:
//   Vec, kLanes, kName        register type, 64-bit lanes per register, name
//   load, store, bcast        unaligned load/store, broadcast
//   add, sub, or_, srl, sll   64-bit lane arithmetic (shifts by a count
//                             register; counts >= 64 must give 0)
//   mullo, mulhi, mul_full    low, high and full 64x64 -> 128 products
//   csub(a, m)                a >= m ? a - m : a, unsigned
//   add_if_less(x, a, b, y)   x + (a < b ? y : 0), unsigned compare
//   add_carry(hi, s, a)       hi + (s < a): the carry out of s = a + b
//   split<T>, merge<T>,       the NTT stages whose butterfly span T is
//   twiddles<T>               shorter than a register (T = kLanes/2 .. 1):
//                             split two loaded registers into their u and v
//                             halves, merge them back for the store, and
//                             spread T-span twiddles to match split's lanes.
// Every routine evaluates the scalar backend's exact integer formula (same
// Barrett estimates, same Shoup products, same flush schedule), so every
// instantiation is bit-identical to it by construction; the differential
// suite (tests/kernels_test.cpp) checks it.
#pragma once

#include <immintrin.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "kernels/backend.hpp"

namespace poe::kernels {
namespace {

using u64 = std::uint64_t;
using u128 = unsigned __int128;

/// Runtime shift count, for the lane types' srl/sll.
inline __m128i shift_count(unsigned s) {
  return _mm_cvtsi32_si128(static_cast<int>(s));
}

/// Read prefetch into L2 (prefetcht1) for the next digit's rows.
inline void prefetch_l2(const u64* p) {
  __builtin_prefetch(p, /*rw=*/0, /*locality=*/2);
}

template <class L>
class SimdBackend final : public Backend {
  using Vec = typename L::Vec;
  static constexpr std::size_t kLanes = L::kLanes;

  /// Coefficients per digit-major key-switch block. The block's four
  /// accumulator rows (lo and hi words of both outputs) take 4 x 1024 x 8 B
  /// = 32 KB, so they stay in L1 while every digit, key-b and key-a row
  /// streams through once. Measured with AVX-512 on one level-12 rotation
  /// (n = 1024, 12 limbs x 36 digits, 16 keys cycled), gain over the
  /// slot-major loop without the next-row prefetch: 64 coefficients 1.0x,
  /// 256 2.0x, 1024 2.9x; 1024 with the prefetch 3.7x. A larger block would
  /// no longer fit its accumulators in a 32-48 KB L1.
  static constexpr std::size_t kKswBlock = 1024;

  /// Lazy Shoup product: x*w - floor(x*w'/2^64)*q, result in [0, 2q).
  static Vec mul_shoup_lazy(Vec x, Vec w, Vec w_shoup, Vec q) {
    return L::sub(L::mullo(x, w), L::mullo(L::mulhi(x, w_shoup), q));
  }

  /// Vector transliteration of Modulus::mul — identical quotient estimate
  /// t = ((z >> (k-1)) * mu) >> (k+2), so identical results lane for lane.
  /// Shift counts are runtime (k = bit width of p); the lane shifts return
  /// 0 for counts >= 64, which makes the k == 62 corner (k+2 == 64, the
  /// high word carries the whole estimate) fall out correctly.
  struct Barrett {
    Vec p, two_p, mu;
    __m128i sh_z_lo, sh_z_hi, sh_t_lo, sh_t_hi;

    explicit Barrett(const mod::Modulus& m)
        : p(L::bcast(m.value())),
          two_p(L::bcast(2 * m.value())),
          mu(L::bcast(m.barrett_mu())),
          sh_z_lo(shift_count(m.bit_width() - 1)),
          sh_z_hi(shift_count(65 - m.bit_width())),
          sh_t_lo(shift_count(m.bit_width() + 2)),
          sh_t_hi(shift_count(62 - m.bit_width())) {}

    Vec mul(Vec a, Vec b) const {
      Vec zhi, zlo;
      L::mul_full(a, b, zhi, zlo);
      // z >> (k-1): fits 64 bits since z < p^2 < 2^(2k).
      const Vec zshift = L::or_(L::srl(zlo, sh_z_lo), L::sll(zhi, sh_z_hi));
      Vec phi, plo;
      L::mul_full(zshift, mu, phi, plo);
      const Vec t = L::or_(L::srl(plo, sh_t_lo), L::sll(phi, sh_t_hi));
      const Vec r = L::sub(zlo, L::mullo(t, p));  // < 3p
      return L::csub(L::csub(r, two_p), p);
    }
  };

  /// Vector transliteration of Modulus::reduce128_barrett: same ratio words,
  /// same truncated-cross-product quotient estimate, remainder < 4p closed
  /// with three conditional subtracts (== the scalar while loop).
  struct Reduce128 {
    Vec p, rlo, rhi;

    explicit Reduce128(const mod::Modulus& m)
        : p(L::bcast(m.value())),
          rlo(L::bcast(m.ratio_lo())),
          rhi(L::bcast(m.ratio_hi())) {}

    Vec reduce(Vec xlo, Vec xhi) const {
      const Vec c1 = L::mulhi(xlo, rlo);
      Vec mlhi, mllo, hlhi, hllo;
      L::mul_full(xlo, rhi, mlhi, mllo);
      L::mul_full(xhi, rlo, hlhi, hllo);
      // mid = xlo*rhi + xhi*rlo + c1 as a 128-bit sum.
      const Vec s1 = L::add(mllo, hllo);
      const Vec s2 = L::add(s1, c1);
      const Vec mid_hi =
          L::add_carry(L::add_carry(L::add(mlhi, hlhi), s1, mllo), s2, s1);
      const Vec qest = L::add(L::mullo(xhi, rhi), mid_hi);
      const Vec r = L::sub(xlo, L::mullo(qest, p));  // < 4p
      return L::csub(L::csub(L::csub(r, p), p), p);
    }
  };

  /// One register of 128-bit accumulators: (hi:lo)[j] += v[j] * b[j].
  static void mac128(u64* lo, u64* hi, Vec v, const u64* b) {
    Vec phi, plo;
    L::mul_full(v, L::load(b), phi, plo);
    const Vec acc_lo = L::load(lo), acc_hi = L::load(hi);
    const Vec nlo = L::add(acc_lo, plo);
    L::store(lo, nlo);
    L::store(hi, L::add_carry(L::add(acc_hi, phi), nlo, acc_lo));
  }

  /// One digit's three rows (digit, key-b, key-a) at a block's offset.
  struct KswRows {
    const u64* d;
    const u64* b;
    const u64* a;
  };

 public:
  std::string_view name() const override { return L::kName; }

  void add(u64* dst, const u64* src, std::size_t n,
           const mod::Modulus& m) const override {
    const Vec p = L::bcast(m.value());
    std::size_t j = 0;
    for (; j + kLanes <= n; j += kLanes) {
      // Reduced operands: the sum stays below 2p < 2^63, no wrap.
      L::store(dst + j,
               L::csub(L::add(L::load(dst + j), L::load(src + j)), p));
    }
    for (; j < n; ++j) dst[j] = m.add(dst[j], src[j]);
  }

  void sub(u64* dst, const u64* src, std::size_t n,
           const mod::Modulus& m) const override {
    const Vec p = L::bcast(m.value());
    std::size_t j = 0;
    for (; j + kLanes <= n; j += kLanes) {
      const Vec a = L::load(dst + j);
      const Vec b = L::load(src + j);
      L::store(dst + j, L::add_if_less(L::sub(a, b), a, b, p));
    }
    for (; j < n; ++j) dst[j] = m.sub(dst[j], src[j]);
  }

  void mul(u64* dst, const u64* src, std::size_t n,
           const mod::Modulus& m) const override {
    const Barrett bv(m);
    std::size_t j = 0;
    for (; j + kLanes <= n; j += kLanes) {
      L::store(dst + j, bv.mul(L::load(dst + j), L::load(src + j)));
    }
    for (; j < n; ++j) dst[j] = m.mul(dst[j], src[j]);
  }

  void add_mul(u64* dst, const u64* a, const u64* b, std::size_t n,
               const mod::Modulus& m) const override {
    const Barrett bv(m);
    std::size_t j = 0;
    for (; j + kLanes <= n; j += kLanes) {
      const Vec prod = bv.mul(L::load(a + j), L::load(b + j));
      L::store(dst + j, L::csub(L::add(L::load(dst + j), prod), bv.p));
    }
    for (; j < n; ++j) dst[j] = m.add(dst[j], m.mul(a[j], b[j]));
  }

  void mul_shoup(u64* dst, const u64* src, std::size_t n, u64 w, u64 w_shoup,
                 u64 q) const override {
    const Vec wv = L::bcast(w), wsv = L::bcast(w_shoup), qv = L::bcast(q);
    std::size_t j = 0;
    for (; j + kLanes <= n; j += kLanes) {
      L::store(dst + j,
               L::csub(mul_shoup_lazy(L::load(src + j), wv, wsv, qv), qv));
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
    const Reduce128 rv(m);
    std::size_t j = 0;
    for (; j + kLanes <= n; j += kLanes) {
      L::store(out + j, rv.reduce(L::load(lo + j), L::load(hi + j)));
    }
    for (; j < n; ++j) {
      out[j] = m.reduce128_barrett((static_cast<u128>(hi[j]) << 64) | lo[j]);
    }
  }

  /// Digit-major lazy key-switch inner product (the contract is
  /// Backend::ksw_accumulate's). A slot-major loop walks all 3·nd
  /// digit/key rows for every vector of coefficients — 108 concurrent
  /// streams at 36 digits, more than the hardware prefetcher tracks. Here
  /// each block of kKswBlock coefficients keeps its 128-bit accumulators in
  /// L1 and each row streams through it once, contiguously, prefetching the
  /// next digit's rows into L2 as it goes (a burst of prefetches up front
  /// measured slower than none). The flush comes after the same digits as
  /// in the scalar reference, and outputs are exact residues, so every
  /// backend stays bit-identical to it.
  void ksw_accumulate(u64* dst0, u64* dst1, const u64* const* dig,
                      const u64* const* kb, const u64* const* ka,
                      std::size_t nd, std::size_t n, const std::uint32_t* perm,
                      const mod::Modulus& m, bool seed0,
                      bool seed1) const override {
    // A permuted call would gather per lane, and per-lane gathers turned
    // out to cost the entire vector win on real silicon, so the permutation
    // is materialized once per digit row into a reusable scratch slab and
    // the inner product always runs contiguous.
    if (perm != nullptr) {
      static thread_local std::vector<u64> scratch;
      static thread_local std::vector<const u64*> rows;
      scratch.resize(nd * n);
      rows.resize(nd);
      for (std::size_t w = 0; w < nd; ++w) {
        permute(scratch.data() + w * n, dig[w], perm, n);
        rows[w] = scratch.data() + w * n;
      }
      dig = rows.data();
    }
    const u128 term_max = static_cast<u128>(m.value() - 1) * (m.value() - 1);
    const std::size_t flush = std::max<std::size_t>(
        1, static_cast<std::size_t>(
               std::min<u128>(~static_cast<u128>(0) / term_max - 1,
                              ~std::size_t{0})));
    // On the stack, so concurrent callers never share them and no call
    // allocates; [0, len) is seeded below before any read.
    alignas(64) u64 lo0[kKswBlock], hi0[kKswBlock];
    alignas(64) u64 lo1[kKswBlock], hi1[kKswBlock];
    for (std::size_t b = 0; b < n; b += kKswBlock) {
      const std::size_t len = std::min(kKswBlock, n - b);
      const std::size_t vec = len - len % kLanes;
      for (std::size_t j = 0; j < len; ++j) {
        lo0[j] = seed0 ? dst0[b + j] : 0;  // overwrite mode never reads dst
        lo1[j] = seed1 ? dst1[b + j] : 0;
        hi0[j] = hi1[j] = 0;
      }
      std::size_t since = 0;
      for (std::size_t w = 0; w < nd; ++w) {
        const KswRows cur{dig[w] + b, kb[w] + b, ka[w] + b};
        const std::size_t wn = w + 1 < nd ? w + 1 : w;
        const KswRows next{dig[wn] + b, kb[wn] + b, ka[wn] + b};
        for (std::size_t j = 0; j < vec; j += kLanes) {
          prefetch_l2(next.d + j), prefetch_l2(next.b + j);
          prefetch_l2(next.a + j);
          const Vec v = L::load(cur.d + j);
          mac128(lo0 + j, hi0 + j, v, cur.b + j);
          mac128(lo1 + j, hi1 + j, v, cur.a + j);
        }
        for (std::size_t j = vec; j < len; ++j) {
          const u128 v = cur.d[j];
          const u128 s0 = ((u128{hi0[j]} << 64) | lo0[j]) + v * cur.b[j];
          const u128 s1 = ((u128{hi1[j]} << 64) | lo1[j]) + v * cur.a[j];
          lo0[j] = static_cast<u64>(s0), hi0[j] = static_cast<u64>(s0 >> 64);
          lo1[j] = static_cast<u64>(s1), hi1[j] = static_cast<u64>(s1 >> 64);
        }
        if (++since == flush) {
          reduce128(lo0, lo0, hi0, len, m);
          reduce128(lo1, lo1, hi1, len, m);
          for (std::size_t j = 0; j < len; ++j) hi0[j] = hi1[j] = 0;
          since = 0;
        }
      }
      reduce128(dst0 + b, lo0, hi0, len, m);
      reduce128(dst1 + b, lo1, hi1, len, m);
    }
  }

 protected:
  // The NTTs run the scalar backend's lazy butterflies: stages whose span t
  // fills a register take one broadcast twiddle per group; the shorter
  // spans re-tile 2·kLanes coefficients across two registers with the lane
  // type's split/merge shuffles.
  void ntt_impl(u64* x, const NttTables& tb) const override {
    if (tb.n < 2 * kLanes) {  // too small to tile; the reference loop is fine
      scalar_backend().ntt_inplace(x, tb);
      return;
    }
    const std::size_t n = tb.n;
    const Vec q = L::bcast(tb.q), two_q = L::bcast(2 * tb.q);
    const u64* w = tb.psi;
    const u64* ws = tb.psi_shoup;
    std::size_t m = 1;
    for (std::size_t t = n / 2; t >= kLanes; t >>= 1, m <<= 1) {
      for (std::size_t i = 0; i < m; ++i) {
        const std::size_t j1 = 2 * i * t;
        const Vec s = L::bcast(w[m + i]);
        const Vec ss = L::bcast(ws[m + i]);
        for (std::size_t j = j1; j < j1 + t; j += kLanes) {
          const Vec u = L::csub(L::load(x + j), two_q);
          const Vec v = mul_shoup_lazy(L::load(x + j + t), s, ss, q);
          L::store(x + j, L::add(u, v));
          L::store(x + j + t, L::add(L::sub(u, v), two_q));
        }
      }
    }
    ntt_tail<kLanes / 2>(x, n, w, ws, q, two_q);
    for (std::size_t j = 0; j < n; j += kLanes) {
      L::store(x + j, L::csub(L::csub(L::load(x + j), two_q), q));
    }
  }

  void intt_impl(u64* x, const NttTables& tb) const override {
    if (tb.n < 2 * kLanes) {
      scalar_backend().intt_inplace(x, tb);
      return;
    }
    const std::size_t n = tb.n;
    const Vec q = L::bcast(tb.q), two_q = L::bcast(2 * tb.q);
    const u64* w = tb.psi_inv;
    const u64* ws = tb.psi_inv_shoup;
    intt_tail<1>(x, n, w, ws, q, two_q);
    for (std::size_t t = kLanes, h = n / (2 * kLanes); h >= 1;
         t <<= 1, h >>= 1) {
      std::size_t j1 = 0;
      for (std::size_t i = 0; i < h; ++i) {
        const Vec s = L::bcast(w[h + i]);
        const Vec ss = L::bcast(ws[h + i]);
        for (std::size_t j = j1; j < j1 + t; j += kLanes) {
          const Vec u = L::load(x + j);
          const Vec v = L::load(x + j + t);
          L::store(x + j, L::csub(L::add(u, v), two_q));
          const Vec diff = L::add(L::sub(u, v), two_q);
          L::store(x + j + t, mul_shoup_lazy(diff, s, ss, q));
        }
        j1 += 2 * t;
      }
    }
    const Vec ni = L::bcast(tb.n_inv), nis = L::bcast(tb.n_inv_shoup);
    for (std::size_t j = 0; j < n; j += kLanes) {
      L::store(x + j, L::csub(mul_shoup_lazy(L::load(x + j), ni, nis, q), q));
    }
  }

 private:
  /// Forward stages of span T, T/2, ..., 1 (T < kLanes): each iteration
  /// loads 2·kLanes coefficients, kLanes / T butterfly groups.
  template <std::size_t T>
  static void ntt_tail(u64* x, std::size_t n, const u64* w, const u64* ws,
                       Vec q, Vec two_q) {
    const std::size_t m = n / (2 * T);
    for (std::size_t k = 0; k < m; k += kLanes / T) {
      u64* y = x + 2 * k * T;
      Vec u, v;
      L::template split<T>(L::load(y), L::load(y + kLanes), u, v);
      u = L::csub(u, two_q);
      v = mul_shoup_lazy(v, L::template twiddles<T>(w + m + k),
                         L::template twiddles<T>(ws + m + k), q);
      Vec y0, y1;
      L::template merge<T>(L::add(u, v), L::add(L::sub(u, v), two_q), y0, y1);
      L::store(y, y0), L::store(y + kLanes, y1);
    }
    if constexpr (T > 1) ntt_tail<T / 2>(x, n, w, ws, q, two_q);
  }

  /// Inverse stages of span T, 2T, ..., kLanes / 2.
  template <std::size_t T>
  static void intt_tail(u64* x, std::size_t n, const u64* w, const u64* ws,
                        Vec q, Vec two_q) {
    const std::size_t h = n / (2 * T);
    for (std::size_t k = 0; k < h; k += kLanes / T) {
      u64* y = x + 2 * k * T;
      Vec u, v;
      L::template split<T>(L::load(y), L::load(y + kLanes), u, v);
      const Vec nu = L::csub(L::add(u, v), two_q);
      const Vec nv = mul_shoup_lazy(
          L::add(L::sub(u, v), two_q),
          L::template twiddles<T>(w + h + k),
          L::template twiddles<T>(ws + h + k), q);
      Vec y0, y1;
      L::template merge<T>(nu, nv, y0, y1);
      L::store(y, y0), L::store(y + kLanes, y1);
    }
    if constexpr (2 * T < kLanes) intt_tail<2 * T>(x, n, w, ws, q, two_q);
  }
};

}  // namespace
}  // namespace poe::kernels
