// Internal seam between the dispatcher (backend.cpp) and the per-ISA
// translation units. avx2.cpp / avx512.cpp are ALWAYS compiled; when the
// toolchain rejects the ISA flags (CMake leaves POE_HAVE_AVX2/POE_HAVE_AVX512
// unset on that source) they compile to a stub returning nullptr. Runtime
// CPU capability is the dispatcher's problem, not these factories'.
#pragma once

#include "kernels/backend.hpp"

namespace poe::kernels::detail {

/// The compiled AVX2 implementation, or nullptr when the build lacks it.
/// Does NOT check CPU support — calling into the returned backend on a
/// non-AVX2 CPU is illegal.
const Backend* avx2_backend_impl();

/// Likewise for AVX-512 (F + DQ + VL).
const Backend* avx512_backend_impl();

}  // namespace poe::kernels::detail
