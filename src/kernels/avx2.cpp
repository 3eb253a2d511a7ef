// The AVX2 lane type — 4 coefficients per register — and its backend, the
// shared SimdBackend (simd_backend.hpp) instantiated over it.
//
// AVX2 has no 64-bit unsigned compare, no 64-bit mullo, and no 64x64->128
// multiply, so those lane primitives are composed:
//   * full/hi/lo 64-bit products from four _mm256_mul_epu32 partials
//     (schoolbook on 32-bit halves),
//   * unsigned compares via the sign-bit-flip trick over _mm256_cmpgt_epi64,
//   * conditional subtraction as subtract-then-masked-add-back (coefficients
//     ride up to 4q < 2^64, so signed compares would be wrong).
//
// NTT stages with span t < 4 re-tile 8 coefficients across two registers:
//   t == 2: 128-bit-lane swaps (_mm256_permute2x128_si256 0x20/0x31), a
//           self-inverse scramble, twiddles widened [s0 s1] -> [s0 s0 s1 s1]
//           with _mm256_permute4x64_epi64 imm 0x50;
//   t == 1: unpacklo/hi_epi64 (also self-inverse, pair order [0,2,1,3]),
//           twiddles matched with _mm256_permute4x64_epi64 imm 0xD8.
#include "kernels/backend_impl.hpp"

#ifdef POE_HAVE_AVX2

#include "kernels/simd_backend.hpp"

namespace poe::kernels {
namespace {

struct Avx2 {
  using Vec = __m256i;
  static constexpr std::size_t kLanes = 4;
  static constexpr std::string_view kName = "avx2";

  static Vec load(const u64* p) {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  }
  static void store(u64* p, Vec v) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
  }
  static Vec bcast(u64 v) {
    return _mm256_set1_epi64x(static_cast<long long>(v));
  }
  static Vec add(Vec a, Vec b) { return _mm256_add_epi64(a, b); }
  static Vec sub(Vec a, Vec b) { return _mm256_sub_epi64(a, b); }
  static Vec or_(Vec a, Vec b) { return _mm256_or_si256(a, b); }
  static Vec srl(Vec a, __m128i s) { return _mm256_srl_epi64(a, s); }
  static Vec sll(Vec a, __m128i s) { return _mm256_sll_epi64(a, s); }

  /// a > b, unsigned: flip sign bits, then the signed compare is correct.
  static Vec gt(Vec a, Vec b) {
    const Vec sign = bcast(0x8000000000000000ULL);
    return _mm256_cmpgt_epi64(_mm256_xor_si256(a, sign),
                              _mm256_xor_si256(b, sign));
  }
  /// Subtract, then add m back in lanes that wrapped.
  static Vec csub(Vec a, Vec m) { return add_if_less(sub(a, m), a, m, m); }
  static Vec add_if_less(Vec x, Vec a, Vec b, Vec y) {
    return add(x, _mm256_and_si256(y, gt(b, a)));
  }
  /// The compare mask is all-ones (-1) in carrying lanes.
  static Vec add_carry(Vec hi, Vec s, Vec a) { return sub(hi, gt(a, s)); }

  /// Low 64 bits of a*b (3 partial products; the hi*hi term never reaches
  /// the low word).
  static Vec mullo(Vec a, Vec b) {
    const Vec lh = _mm256_mul_epu32(a, _mm256_srli_epi64(b, 32));
    const Vec hl = _mm256_mul_epu32(_mm256_srli_epi64(a, 32), b);
    const Vec ll = _mm256_mul_epu32(a, b);
    return add(ll, _mm256_slli_epi64(add(lh, hl), 32));
  }
  /// Full 64x64 -> 128 product, schoolbook on 32-bit halves. The carry
  /// chain is the standard one: t = hl + (ll >> 32) and t2 = lh + (t & m32)
  /// cannot overflow because each partial is <= (2^32-1)^2.
  static void mul_full(Vec a, Vec b, Vec& hi, Vec& lo) {
    const Vec m32 = bcast(0xFFFFFFFFULL);
    const Vec a_hi = _mm256_srli_epi64(a, 32);
    const Vec b_hi = _mm256_srli_epi64(b, 32);
    const Vec ll = _mm256_mul_epu32(a, b);
    const Vec lh = _mm256_mul_epu32(a, b_hi);
    const Vec hl = _mm256_mul_epu32(a_hi, b);
    const Vec hh = _mm256_mul_epu32(a_hi, b_hi);
    const Vec t = add(hl, _mm256_srli_epi64(ll, 32));
    const Vec t2 = add(lh, _mm256_and_si256(t, m32));
    hi = add(hh, add(_mm256_srli_epi64(t, 32), _mm256_srli_epi64(t2, 32)));
    lo = add(_mm256_slli_epi64(t2, 32), _mm256_and_si256(ll, m32));
  }
  static Vec mulhi(Vec a, Vec b) {
    Vec hi, lo;
    mul_full(a, b, hi, lo);
    return hi;
  }

  // Both tail shuffles are their own inverses, so merge is split.
  template <std::size_t T>
  static void split(Vec y0, Vec y1, Vec& u, Vec& v) {
    if constexpr (T == 2) {
      u = _mm256_permute2x128_si256(y0, y1, 0x20);
      v = _mm256_permute2x128_si256(y0, y1, 0x31);
    } else {
      u = _mm256_unpacklo_epi64(y0, y1);
      v = _mm256_unpackhi_epi64(y0, y1);
    }
  }
  template <std::size_t T>
  static void merge(Vec u, Vec v, Vec& y0, Vec& y1) {
    split<T>(u, v, y0, y1);
  }
  template <std::size_t T>
  static Vec twiddles(const u64* w) {
    if constexpr (T == 2) {
      return _mm256_permute4x64_epi64(
          _mm256_zextsi128_si256(
              _mm_loadu_si128(reinterpret_cast<const __m128i*>(w))),
          0x50);
    } else {
      return _mm256_permute4x64_epi64(load(w), 0xD8);
    }
  }
};

}  // namespace

namespace detail {
const Backend* avx2_backend_impl() {
  static const SimdBackend<Avx2> backend;
  return &backend;
}
}  // namespace detail

}  // namespace poe::kernels

#else  // !POE_HAVE_AVX2

namespace poe::kernels::detail {
const Backend* avx2_backend_impl() { return nullptr; }
}  // namespace poe::kernels::detail

#endif  // POE_HAVE_AVX2
