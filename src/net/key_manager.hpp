// The standalone key service: clients onboard their BGV-encrypted PASTA key
// (enc(K)) here — never at a worker shard — and the router pulls validated
// key bytes when it installs a session on a shard. Mirrors the Key_Manager
// process of the DecisionFramework HHE split: workers see only evaluation
// traffic, onboarding (upload, validation, storage) is isolated in one
// small process whose only secret-adjacent material is ciphertext.
//
// Uploads pass the same hardened gate as TranscipherService's wire ingest:
// deserialize against the evaluation context + a decrypt-free plausibility
// check (fhe::validate_ciphertext) before the bytes are stored. The store
// is mutex-guarded so one KeyManager can serve concurrent connections
// (clients onboarding while the router fetches).
#pragma once

#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "fhe/context.hpp"
#include "net/frame.hpp"

namespace poe::net {

class KeyManager {
 public:
  explicit KeyManager(const fhe::RnsContext& ctx) : ctx_(ctx) {}

  /// Serve one connection until it ends. Returns false after an orderly
  /// kShutdown frame (stop accepting), true otherwise (accept the next
  /// connection).
  bool serve(FrameChannel& ch);

  bool has_key(std::uint64_t client_id) const;

 private:
  const fhe::RnsContext& ctx_;
  mutable std::mutex mu_;
  std::unordered_map<std::uint64_t, std::vector<std::uint8_t>> keys_;
};

}  // namespace poe::net
