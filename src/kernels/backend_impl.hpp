// Internal seam between the dispatcher (backend.cpp) and the per-ISA
// translation units. avx2.cpp / avx512.cpp are ALWAYS compiled; when the
// toolchain rejects the ISA flags (CMake leaves POE_HAVE_AVX2/POE_HAVE_AVX512
// unset on that source) they compile to a stub returning nullptr. Runtime
// CPU capability is the dispatcher's problem, not these factories'.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "kernels/backend.hpp"

namespace poe::kernels {

namespace detail {

/// The compiled AVX2 implementation, or nullptr when the build lacks it.
/// Does NOT check CPU support — calling into the returned backend on a
/// non-AVX2 CPU is illegal.
const Backend* avx2_backend_impl();

/// Likewise for AVX-512 (F + DQ + VL).
const Backend* avx512_backend_impl();

/// Coefficients per digit-major key-switch block. The block's four
/// accumulator rows (lo and hi words of both outputs) take 4 x 1024 x 8 B
/// = 32 KB, so they stay in L1 while every digit, key-b and key-a row
/// streams through once. Measured with AVX-512 on one level-12 rotation
/// (n = 1024, 12 limbs x 36 digits, 16 keys cycled), gain over the
/// slot-major loop without the next-row prefetch: 64 coefficients 1.0x,
/// 256 2.0x, 1024 2.9x; 1024 with the prefetch 3.7x. A larger block would
/// no longer fit its accumulators in a 32-48 KB L1.
inline constexpr std::size_t kKswBlock = 1024;

/// One digit's three rows (digit, key-b, key-a) at a block's offset.
struct KswRows {
  const std::uint64_t* d;
  const std::uint64_t* b;
  const std::uint64_t* a;
};

}  // namespace detail

// Internal linkage on purpose: each ISA translation unit compiles its own
// copy of the loop below with its own target flags, so the linker can never
// hand the AVX2 backend an AVX-512-compiled instantiation.
namespace {

/// Read prefetch into L2 (prefetcht1) for the next digit's rows.
inline void prefetch_l2(const std::uint64_t* p) {
  __builtin_prefetch(p, /*rw=*/0, /*locality=*/2);
}

/// Digit-major lazy key-switch inner product shared by the SIMD backends
/// (the contract is Backend::ksw_accumulate's). A slot-major loop walks all
/// 3·nd digit/key rows for every vector of coefficients — 108 concurrent
/// streams at 36 digits, more than the hardware prefetcher tracks. Here
/// each block of kKswBlock coefficients keeps its 128-bit accumulators in
/// L1 and each row streams through it once, contiguously.
/// `row_mac(lo0, hi0, lo1, hi1, cur, next, len)` adds cur.d[j]*cur.b[j]
/// into (hi0:lo0)[j] and cur.d[j]*cur.a[j] into (hi1:lo1)[j] for j < len,
/// len a multiple of kLanes, and prefetches the `next` digit's rows into L2
/// as it goes (a burst of prefetches up front measured slower than none);
/// the < kLanes tail runs here in u128. The flush comes after the same
/// digits as in the scalar reference, and outputs are exact residues, so
/// every backend stays bit-identical to it.
template <std::size_t kLanes, typename RowMac>
void ksw_digit_major(const Backend& be, std::uint64_t* dst0,
                     std::uint64_t* dst1, const std::uint64_t* const* dig,
                     const std::uint64_t* const* kb,
                     const std::uint64_t* const* ka, std::size_t nd,
                     std::size_t n, const std::uint32_t* perm,
                     const mod::Modulus& m, bool seed0, bool seed1,
                     RowMac&& row_mac) {
  using u64 = std::uint64_t;
  using u128 = unsigned __int128;
  using detail::kKswBlock;
  using detail::KswRows;
  // A permuted call would gather per lane, and per-lane gathers turned out
  // to cost the entire vector win on real silicon, so the permutation is
  // materialized once per digit row into a reusable scratch slab and the
  // inner product always runs contiguous.
  if (perm != nullptr) {
    static thread_local std::vector<u64> scratch;
    static thread_local std::vector<const u64*> rows;
    scratch.resize(nd * n);
    rows.resize(nd);
    for (std::size_t w = 0; w < nd; ++w) {
      u64* dst = scratch.data() + w * n;
      const u64* src = dig[w];
      for (std::size_t i = 0; i < n; ++i) dst[i] = src[perm[i]];
      rows[w] = dst;
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
      row_mac(lo0, hi0, lo1, hi1, cur,
              KswRows{dig[wn] + b, kb[wn] + b, ka[wn] + b}, vec);
      for (std::size_t j = vec; j < len; ++j) {
        const u128 v = cur.d[j];
        const u128 s0 = ((u128{hi0[j]} << 64) | lo0[j]) + v * cur.b[j];
        const u128 s1 = ((u128{hi1[j]} << 64) | lo1[j]) + v * cur.a[j];
        lo0[j] = static_cast<u64>(s0), hi0[j] = static_cast<u64>(s0 >> 64);
        lo1[j] = static_cast<u64>(s1), hi1[j] = static_cast<u64>(s1 >> 64);
      }
      if (++since == flush) {
        be.reduce128(lo0, lo0, hi0, len, m);
        be.reduce128(lo1, lo1, hi1, len, m);
        for (std::size_t j = 0; j < len; ++j) hi0[j] = hi1[j] = 0;
        since = 0;
      }
    }
    be.reduce128(dst0 + b, lo0, hi0, len, m);
    be.reduce128(dst1 + b, lo1, hi1, len, m);
  }
}

}  // namespace
}  // namespace poe::kernels
