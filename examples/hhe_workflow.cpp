// The full hybrid-homomorphic-encryption workflow of the paper's Fig. 1:
//
//   client                           server
//   ------                           ------
//   FHE-encrypt PASTA key  ───────►  (stored once)
//   PASTA-encrypt message  ───────►  homomorphic PASTA decryption
//                                    = BGV ciphertexts of the message
//                                    ... homomorphic computation ...
//   FHE-decrypt result     ◄───────  encrypted result
//
// Runs a reduced PASTA instance (t = 8, same 4-round circuit) by default so
// it finishes in seconds; pass --full for real PASTA-4 (t = 32, ~a minute).
#include <cstring>
#include <iostream>

#include "core/poe.hpp"
#include "hhe/protocol.hpp"

int main(int argc, char** argv) {
  using namespace poe;
  const bool full = argc > 1 && std::strcmp(argv[1], "--full") == 0;
  const auto config = full ? hhe::HheConfig::demo() : hhe::HheConfig::test();
  std::cout << "HHE workflow with " << config.pasta.name << " (t = "
            << config.pasta.t << ") over BGV (n = " << config.bgv.n << ")\n";

  fhe::Bgv bgv(config.bgv);

  // --- Client side.
  Xoshiro256 rng(99);
  const auto key = pasta::PastaCipher::random_key(config.pasta, rng);
  hhe::HheClient client(config, bgv, key);

  std::cout << "[client] uploading FHE-encrypted PASTA key ("
            << config.pasta.key_size() << " ciphertexts, once)...\n";
  hhe::HheServer server(config, bgv, client.encrypt_key());

  std::vector<std::uint64_t> message(config.pasta.t);
  for (std::size_t i = 0; i < message.size(); ++i) {
    message[i] = (1000 + 17 * i) % config.pasta.p;
  }
  const std::uint64_t nonce = 42;
  const auto sym_ct = client.encrypt(message, nonce);
  std::cout << "[client] sent " << pasta::ciphertext_bytes(config.pasta,
                                                           sym_ct.size())
            << " B of PASTA ciphertext (vs "
            << 2 * config.bgv.num_primes * config.bgv.n * 8
            << " B for a direct FHE upload)\n";

  // --- Server side: transcipher, then compute on the encrypted data.
  std::cout << "[server] evaluating the homomorphic PASTA decryption "
               "circuit...\n";
  const auto data = server.transcipher_block(sym_ct, nonce, 0);
  // The server holds no secret key: its tracked bound gives the budget.
  std::cout << "[server] done — noise budget left: "
            << bgv.predicted_budget_bits(data[0]) << " bits\n";

  // Example computation: sum of the first four elements, times 3.
  fhe::Ciphertext result = data[0];
  for (int i = 1; i < 4; ++i) bgv.add_inplace(result, data[i]);
  bgv.mul_scalar_inplace(result, 3);

  // --- Client side: decrypt the computed result.
  const auto got = client.decrypt_result({result})[0];
  const mod::Modulus pm(config.pasta.p);
  std::uint64_t expect = 0;
  for (int i = 0; i < 4; ++i) expect = pm.add(expect, message[i]);
  expect = pm.mul(expect, 3);

  std::cout << "[client] 3 * (m0+m1+m2+m3) = " << got << " (expected "
            << expect << ") -> " << (got == expect ? "OK" : "FAILED") << "\n";
  return got == expect ? 0 : 1;
}
