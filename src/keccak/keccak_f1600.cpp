#include "keccak/keccak_f1600.hpp"

#include "common/bits.hpp"

namespace poe::keccak {

namespace {

constexpr std::uint64_t kRoundConstants[kNumRounds] = {
    0x0000000000000001ull, 0x0000000000008082ull, 0x800000000000808aull,
    0x8000000080008000ull, 0x000000000000808bull, 0x0000000080000001ull,
    0x8000000080008081ull, 0x8000000000008009ull, 0x000000000000008aull,
    0x0000000000000088ull, 0x0000000080008009ull, 0x000000008000000aull,
    0x000000008000808bull, 0x800000000000008bull, 0x8000000000008089ull,
    0x8000000000008003ull, 0x8000000000008002ull, 0x8000000000000080ull,
    0x000000000000800aull, 0x800000008000000aull, 0x8000000080008081ull,
    0x8000000000008080ull, 0x0000000080000001ull, 0x8000000080008008ull,
};

// rho rotation offsets, indexed x + 5*y.
constexpr unsigned kRho[25] = {
    0,  1,  62, 28, 27,  //
    36, 44, 6,  55, 20,  //
    3,  10, 43, 25, 39,  //
    41, 45, 15, 21, 8,   //
    18, 2,  61, 56, 14,
};

}  // namespace

// Every loop below runs over fixed lane indices. Fully unrolled, the `% 5`
// index arithmetic folds to constants and the temporaries live in
// registers; rolled, GCC -O2 keeps the loops and the permutation runs
// several times slower.
void f1600_round(State& a, int round) {
  // theta
  std::uint64_t c[5];
#pragma GCC unroll 5
  for (int x = 0; x < 5; ++x)
    c[x] = a[x] ^ a[x + 5] ^ a[x + 10] ^ a[x + 15] ^ a[x + 20];
  std::uint64_t d[5];
#pragma GCC unroll 5
  for (int x = 0; x < 5; ++x)
    d[x] = c[(x + 4) % 5] ^ rotl64(c[(x + 1) % 5], 1);
#pragma GCC unroll 25
  for (int i = 0; i < 25; ++i) a[i] ^= d[i % 5];

  // rho + pi
  State b;
#pragma GCC unroll 5
  for (int x = 0; x < 5; ++x) {
#pragma GCC unroll 5
    for (int y = 0; y < 5; ++y) {
      // pi: B[y, 2x+3y] = rot(A[x, y])
      b[y + 5 * ((2 * x + 3 * y) % 5)] = rotl64(a[x + 5 * y], kRho[x + 5 * y]);
    }
  }

  // chi
#pragma GCC unroll 5
  for (int y = 0; y < 5; ++y) {
#pragma GCC unroll 5
    for (int x = 0; x < 5; ++x) {
      a[x + 5 * y] =
          b[x + 5 * y] ^ (~b[(x + 1) % 5 + 5 * y] & b[(x + 2) % 5 + 5 * y]);
    }
  }

  // iota
  a[0] ^= kRoundConstants[round];
}

void f1600(State& state) {
  for (int r = 0; r < kNumRounds; ++r) f1600_round(state, r);
}

}  // namespace poe::keccak
