// The AVX-512 lane type — 8 coefficients per register — and its backend,
// the shared SimdBackend (simd_backend.hpp) instantiated over it.
//
// AVX-512DQ gives the two primitives AVX2 had to emulate: a native 64-bit
// mullo (_mm512_mullo_epi64) and unsigned 64-bit compares (mask registers),
// plus _mm512_min_epu64 which turns the conditional subtract into a single
// instruction: min(a, a-b) is a-b exactly when a >= b (no wrap) and a
// otherwise (wrapped huge). Only the 64-bit mulhi is still composed from
// _mm512_mul_epu32 partials.
//
// NTT stages with span t < 8 (t = 4, 2, 1) re-tile 16 coefficients across
// two registers with _mm512_permutex2var_epi64; the index vectors below
// mirror the AVX2 scheme one level up (for t == 4 the split is its own
// inverse).
#include "kernels/backend_impl.hpp"

#ifdef POE_HAVE_AVX512

#include "kernels/simd_backend.hpp"

namespace poe::kernels {
namespace {

struct Avx512 {
  using Vec = __m512i;
  static constexpr std::size_t kLanes = 8;
  static constexpr std::string_view kName = "avx512";

  static Vec load(const u64* p) { return _mm512_loadu_si512(p); }
  static void store(u64* p, Vec v) { _mm512_storeu_si512(p, v); }
  static Vec bcast(u64 v) {
    return _mm512_set1_epi64(static_cast<long long>(v));
  }
  static Vec add(Vec a, Vec b) { return _mm512_add_epi64(a, b); }
  static Vec sub(Vec a, Vec b) { return _mm512_sub_epi64(a, b); }
  static Vec or_(Vec a, Vec b) { return _mm512_or_si512(a, b); }
  static Vec srl(Vec a, __m128i s) { return _mm512_srl_epi64(a, s); }
  static Vec sll(Vec a, __m128i s) { return _mm512_sll_epi64(a, s); }

  /// min picks a-m when it didn't wrap, a when it did.
  static Vec csub(Vec a, Vec m) { return _mm512_min_epu64(a, sub(a, m)); }
  static Vec add_if_less(Vec x, Vec a, Vec b, Vec y) {
    return _mm512_mask_add_epi64(x, _mm512_cmplt_epu64_mask(a, b), x, y);
  }
  static Vec add_carry(Vec hi, Vec s, Vec a) {
    return add_if_less(hi, s, a, bcast(1));
  }

  static Vec mullo(Vec a, Vec b) { return _mm512_mullo_epi64(a, b); }
  /// High 64 bits of a*b from four 32x32 partials (no native 64-bit mulhi
  /// even in AVX-512).
  static Vec mulhi(Vec a, Vec b) {
    const Vec m32 = bcast(0xFFFFFFFFULL);
    const Vec a_hi = _mm512_srli_epi64(a, 32);
    const Vec b_hi = _mm512_srli_epi64(b, 32);
    const Vec ll = _mm512_mul_epu32(a, b);
    const Vec lh = _mm512_mul_epu32(a, b_hi);
    const Vec hl = _mm512_mul_epu32(a_hi, b);
    const Vec hh = _mm512_mul_epu32(a_hi, b_hi);
    const Vec t = add(hl, _mm512_srli_epi64(ll, 32));
    const Vec t2 = add(lh, _mm512_and_si512(t, m32));
    return add(hh, add(_mm512_srli_epi64(t, 32), _mm512_srli_epi64(t2, 32)));
  }
  static void mul_full(Vec a, Vec b, Vec& hi, Vec& lo) {
    hi = mulhi(a, b);
    lo = mullo(a, b);
  }

  /// Lanes of (a, b) by index: 0-7 pick from a, 8-15 from b.
  static Vec pick(Vec a, Vec b, Vec idx) {
    return _mm512_permutex2var_epi64(a, idx, b);
  }
  template <std::size_t T>
  static void split(Vec y0, Vec y1, Vec& u, Vec& v) {
    if constexpr (T == 4) {
      u = pick(y0, y1, _mm512_setr_epi64(0, 1, 2, 3, 8, 9, 10, 11));
      v = pick(y0, y1, _mm512_setr_epi64(4, 5, 6, 7, 12, 13, 14, 15));
    } else if constexpr (T == 2) {
      u = pick(y0, y1, _mm512_setr_epi64(0, 1, 4, 5, 8, 9, 12, 13));
      v = pick(y0, y1, _mm512_setr_epi64(2, 3, 6, 7, 10, 11, 14, 15));
    } else {
      u = pick(y0, y1, _mm512_setr_epi64(0, 2, 4, 6, 8, 10, 12, 14));
      v = pick(y0, y1, _mm512_setr_epi64(1, 3, 5, 7, 9, 11, 13, 15));
    }
  }
  template <std::size_t T>
  static void merge(Vec u, Vec v, Vec& y0, Vec& y1) {
    if constexpr (T == 4) {
      split<T>(u, v, y0, y1);
    } else if constexpr (T == 2) {
      y0 = pick(u, v, _mm512_setr_epi64(0, 1, 8, 9, 2, 3, 10, 11));
      y1 = pick(u, v, _mm512_setr_epi64(4, 5, 12, 13, 6, 7, 14, 15));
    } else {
      y0 = pick(u, v, _mm512_setr_epi64(0, 8, 1, 9, 2, 10, 3, 11));
      y1 = pick(u, v, _mm512_setr_epi64(4, 12, 5, 13, 6, 14, 7, 15));
    }
  }
  template <std::size_t T>
  static Vec twiddles(const u64* w) {
    if constexpr (T == 4) {
      return _mm512_permutexvar_epi64(
          _mm512_setr_epi64(0, 0, 0, 0, 1, 1, 1, 1),
          _mm512_zextsi128_si512(
              _mm_loadu_si128(reinterpret_cast<const __m128i*>(w))));
    } else if constexpr (T == 2) {
      return _mm512_permutexvar_epi64(
          _mm512_setr_epi64(0, 0, 1, 1, 2, 2, 3, 3),
          _mm512_zextsi256_si512(
              _mm256_loadu_si256(reinterpret_cast<const __m256i*>(w))));
    } else {
      return load(w);
    }
  }
};

}  // namespace

namespace detail {
const Backend* avx512_backend_impl() {
  static const SimdBackend<Avx512> backend;
  return &backend;
}
}  // namespace detail

}  // namespace poe::kernels

#else  // !POE_HAVE_AVX512

namespace poe::kernels::detail {
const Backend* avx512_backend_impl() { return nullptr; }
}  // namespace poe::kernels::detail

#endif  // POE_HAVE_AVX512
