// Runtime-dispatched kernel backends for the per-coefficient hot loops.
//
// Every inner loop that touches RNS coefficients — the negacyclic NTT
// butterflies, the Barrett pointwise family and the lazy 128-bit key-switch
// inner product with its Barrett flush — lives behind this interface, in
// the style of ngraph's runtime/{reference,...} backend split:
//
//   ScalarBackend      — the original hand-written loops, moved here
//                        verbatim; the bit-exact reference every other
//                        backend must match.
//   SimdBackend<Avx2>  — 4 lanes per op via _mm256_mul_epu32-composed
//                        64-bit mulhi/mullo (compiled only where -mavx2 is
//                        accepted).
//   SimdBackend<Avx512> — 8 lanes, native 64-bit mullo/min/compares
//                        (__AVX512DQ__ + F + VL).
//
// The two SIMD backends are one template (simd_backend.hpp): every
// algorithm is written once, and avx2.cpp / avx512.cpp each supply only a
// lane type (load/store, 64-bit lane arithmetic and products, the
// conditional subtract, the 128-bit carry and the NTT tail shuffles). The
// NTT-domain automorphism permutation is one scalar gather shared by all
// three (Backend::permute).
//
// The contract that makes dispatch safe: all public entry points take and
// return FULLY REDUCED coefficients except where the Harvey lazy bounds are
// documented, and every backend computes the exact same residues — so any
// two backends are bit-identical observed through this interface, which the
// differential suite (tests/kernels_test.cpp) pins.
//
// Selection happens once per ExecContext construction: CPUID probing picks
// the widest available implementation, POE_KERNEL_BACKEND={scalar,avx2,
// avx512} overrides it (an unavailable choice throws rather than silently
// degrading).
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "common/error.hpp"
#include "modular/modulus.hpp"

namespace poe::kernels {

/// Non-owning view of one prime's NTT twiddle tables (bit-reversed order,
/// with Shoup companions) — assembled by fhe::Ntt, consumed by backends.
struct NttTables {
  std::size_t n = 0;       ///< ring degree, power of two
  std::uint64_t q = 0;     ///< prime modulus, q < 2^62 (Harvey headroom)
  const std::uint64_t* psi = nullptr;            ///< psi^brv(i)
  const std::uint64_t* psi_shoup = nullptr;      ///< floor(psi^brv(i) 2^64/q)
  const std::uint64_t* psi_inv = nullptr;        ///< psi^-brv(i)
  const std::uint64_t* psi_inv_shoup = nullptr;
  std::uint64_t n_inv = 0;        ///< n^{-1} mod q (final intt scaling)
  std::uint64_t n_inv_shoup = 0;
};

/// Shoup precomputation floor(w * 2^64 / q) for w < q — one mulhi plus one
/// mullo replaces the 128-bit division in every subsequent product by w.
inline std::uint64_t shoup_precompute(std::uint64_t w, std::uint64_t q) {
  return static_cast<std::uint64_t>(
      (static_cast<unsigned __int128>(w) << 64) / q);
}

class Backend {
 public:
  virtual ~Backend() = default;

  /// Stable identifier: "scalar", "avx2", "avx512" — threaded into
  /// ServiceReport and the BENCH json emitters.
  virtual std::string_view name() const = 0;

  // --- Negacyclic NTT over ONE RNS component (n = t.n coefficients). -----
  // Harvey lazy-reduction contract, asserted in debug builds at this
  // boundary so a SIMD lane can never silently violate what the scalar
  // comments promise:
  //   * q < 2^62 (so 4q fits a word and u+v cannot overflow),
  //   * ntt_inplace accepts lazily-reduced inputs < 4q; output is < q,
  //   * intt_inplace accepts inputs < 2q; output is < 2q (in fact < q).
  void ntt_inplace(std::uint64_t* x, const NttTables& t) const {
    debug_check_bounds(x, t, /*forward=*/true);
    ntt_impl(x, t);
  }
  void intt_inplace(std::uint64_t* x, const NttTables& t) const {
    debug_check_bounds(x, t, /*forward=*/false);
    intt_impl(x, t);
    debug_check_output(x, t);
  }

  // --- Barrett pointwise family (operands reduced < m, outputs < m). -----
  /// dst[i] = dst[i] + src[i] mod m
  virtual void add(std::uint64_t* dst, const std::uint64_t* src,
                   std::size_t n, const mod::Modulus& m) const = 0;
  /// dst[i] = dst[i] - src[i] mod m
  virtual void sub(std::uint64_t* dst, const std::uint64_t* src,
                   std::size_t n, const mod::Modulus& m) const = 0;
  /// dst[i] = dst[i] * src[i] mod m (Barrett)
  virtual void mul(std::uint64_t* dst, const std::uint64_t* src,
                   std::size_t n, const mod::Modulus& m) const = 0;
  /// dst[i] = dst[i] + a[i] * b[i] mod m — the fused tensoring/decrypt
  /// accumulation without a temporary.
  virtual void add_mul(std::uint64_t* dst, const std::uint64_t* a,
                       const std::uint64_t* b, std::size_t n,
                       const mod::Modulus& m) const = 0;
  /// dst[i] = src[i] * w mod q via Shoup (w < q, w_shoup from
  /// shoup_precompute) — broadcast scalar multiplication. src[i] may be any
  /// 64-bit value (the key switch's basis conversions feed residues of
  /// other primes); the output is fully reduced.
  virtual void mul_shoup(std::uint64_t* dst, const std::uint64_t* src,
                         std::size_t n, std::uint64_t w,
                         std::uint64_t w_shoup, std::uint64_t q) const = 0;

  /// out[i] = (hi[i]·2^64 + lo[i]) mod m for ANY 128-bit value — the wide
  /// Barrett flush of the lazy key-switch accumulator, exposed standalone
  /// so the SIMD path can be swept against the slow path in tests.
  virtual void reduce128(std::uint64_t* out, const std::uint64_t* lo,
                         const std::uint64_t* hi, std::size_t n,
                         const mod::Modulus& m) const = 0;

  /// Lazy 128-bit key-switch inner product over one RNS component:
  ///   dst0[i] = reduce128(seed0[i] + sum_w dig[w][perm?[i]] * kb[w][i])
  ///   dst1[i] = reduce128(seed1[i] + sum_w dig[w][perm?[i]] * ka[w][i])
  /// where seedX[i] is dst[i] when accX is true (accumulate mode) and zero
  /// when accX is false (overwrite mode — dst may hold uninitialised words
  /// and is never read). perm == nullptr means the identity (plain
  /// relinearisation/ksw); otherwise it is the Galois NTT-slot permutation
  /// fused into the accumulate (hoisted rotations). Accumulators are flushed
  /// with the wide Barrett reduction before they can wrap — the flush
  /// schedule is an implementation detail; outputs are exact residues either
  /// way, so accumulate(dst=c) == add(c, overwrite()) bit-for-bit.
  /// Loop order is an implementation detail too: the scalar reference runs
  /// slot-major (all digits of one coefficient, then the next), the SIMD
  /// backends digit-major over L1-resident blocks of coefficients so each
  /// row streams through once (simd_backend.hpp). Only the order of the
  /// same products and flushes changes, so outputs stay bit-identical.
  virtual void ksw_accumulate(std::uint64_t* dst0, std::uint64_t* dst1,
                              const std::uint64_t* const* dig,
                              const std::uint64_t* const* kb,
                              const std::uint64_t* const* ka,
                              std::size_t num_digits, std::size_t n,
                              const std::uint32_t* perm,
                              const mod::Modulus& m, bool acc0 = true,
                              bool acc1 = true) const = 0;

  /// NTT-domain automorphism slot permutation: dst[i] = src[perm[i]]
  /// (dst and src must not alias). One scalar gather for every backend:
  /// the sequential stores dominate, and hardware gathers lose to scalar
  /// loads on this access pattern.
  void permute(std::uint64_t* dst, const std::uint64_t* src,
               const std::uint32_t* perm, std::size_t n) const {
    for (std::size_t i = 0; i < n; ++i) dst[i] = src[perm[i]];
  }

 protected:
  virtual void ntt_impl(std::uint64_t* x, const NttTables& t) const = 0;
  virtual void intt_impl(std::uint64_t* x, const NttTables& t) const = 0;

 private:
#ifdef NDEBUG
  static void debug_check_bounds(const std::uint64_t*, const NttTables&,
                                 bool) {}
  static void debug_check_output(const std::uint64_t*, const NttTables&) {}
#else
  static void debug_check_bounds(const std::uint64_t* x, const NttTables& t,
                                 bool forward) {
    POE_DCHECK(t.q < (std::uint64_t{1} << 62),
               "Harvey lazy reduction needs q < 2^62, got " << t.q);
    const std::uint64_t bound = forward ? 4 * t.q : 2 * t.q;
    for (std::size_t i = 0; i < t.n; ++i) {
      POE_DCHECK(x[i] < bound, "lazy-reduction input bound violated: x["
                                   << i << "] = " << x[i] << " >= "
                                   << (forward ? "4q" : "2q") << " = "
                                   << bound);
    }
  }
  static void debug_check_output(const std::uint64_t* x, const NttTables& t) {
    for (std::size_t i = 0; i < t.n; ++i) {
      POE_DCHECK(x[i] < 2 * t.q,
                 "intt output bound violated: x[" << i << "] = " << x[i]
                                                  << " >= 2q");
    }
  }
#endif
};

/// The bit-exact reference implementation; always available.
const Backend& scalar_backend();

/// SIMD implementations, or nullptr when the build or the CPU lacks them.
const Backend* avx2_backend();
const Backend* avx512_backend();

/// Every backend usable on this machine (scalar first) — for differential
/// tests and the bench_micro backend-comparison section.
std::vector<const Backend*> available_backends();

/// Lookup by stable name; nullptr when unknown or unavailable.
const Backend* backend_by_name(std::string_view name);

/// Dispatch policy: POE_KERNEL_BACKEND={scalar,avx2,avx512} if set (throws
/// when the named backend is unavailable), else the widest CPU-supported
/// implementation. Read afresh on every call — ExecContext construction is
/// the intended call site.
const Backend& select_backend();

/// Process-wide default (select_backend() cached at first use) — what
/// standalone fhe::Ntt objects use when no ExecContext is in play.
const Backend& default_backend();

}  // namespace poe::kernels
