// Client side of the batched (SIMD) transcipher path: the PASTA key upload.
//
// The 2t-element key is tiled periodically along both rows of the
// 2 x (n/2) slot grid, so every 2t-slot tile of the ONE uploaded ciphertext
// holds the whole key, in row 0 and row 1 alike. The server side
// (SimdBatchEngine) relies on that: its tiles span both rows, a column
// rotation by k rotates each row on its own (the rows never mix) and so acts
// as a cyclic rotation of every tile's state, and any subset of tiles can be
// masked out of the upload for cross-tenant packing.
#pragma once

#include <cstdint>
#include <span>

#include "fhe/encoding.hpp"
#include "fhe/galois.hpp"
#include "hhe/protocol.hpp"

namespace poe::hhe {

/// Client-side helper: the PASTA key tiled into a single BGV ciphertext.
fhe::Ciphertext encrypt_key_batched(const HheConfig& config,
                                    const fhe::Bgv& bgv,
                                    const fhe::BatchEncoder& encoder,
                                    const fhe::SlotLayout& layout,
                                    std::span<const std::uint64_t> key);

}  // namespace poe::hhe
