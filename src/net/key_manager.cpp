#include "net/key_manager.hpp"

#include "fhe/serialize.hpp"
#include "net/messages.hpp"

namespace poe::net {

bool KeyManager::serve(FrameChannel& ch) {
  for (;;) {
    std::optional<FrameChannel::Received> msg;
    try {
      msg = ch.recv();
    } catch (const WireError&) {
      return true;  // damaged connection; keep accepting others
    }
    if (!msg) return true;  // peer closed cleanly
    try {
      switch (msg->type) {
        case MsgType::kPing:
          ch.send(MsgType::kPong, {});
          break;
        case MsgType::kOnboardKey: {
          AckMsg ack;
          try {
            OnboardKeyMsg upload = decode_onboard_key(msg->payload);
            // Same untrusted-bytes gate as the in-process wire ingest:
            // deserialize + decrypt-free plausibility check before the
            // bytes can ever reach a shard.
            const fhe::Ciphertext ct =
                fhe::deserialize_ciphertext(ctx_, upload.key_bytes);
            if (auto why = fhe::validate_ciphertext(ctx_, ct)) {
              ack.error = "implausible key upload: " + *why;
            } else {
              std::lock_guard<std::mutex> lock(mu_);
              keys_[upload.client_id] = std::move(upload.key_bytes);
              ack.ok = true;
            }
          } catch (const poe::Error& e) {
            ack.error = e.what();
          }
          ch.send(MsgType::kOnboardAck, encode_ack(ack));
          break;
        }
        case MsgType::kFetchKey: {
          const FetchKeyMsg fetch = decode_fetch_key(msg->payload);
          KeyStateMsg state;
          {
            std::lock_guard<std::mutex> lock(mu_);
            auto it = keys_.find(fetch.client_id);
            if (it != keys_.end()) {
              state.found = true;
              state.key_bytes = it->second;
            }
          }
          ch.send(MsgType::kKeyState, encode_key_state(state));
          break;
        }
        case MsgType::kShutdown:
          return false;
        default:
          ch.send(MsgType::kError,
                  encode_ack(AckMsg{
                      false, std::string("unexpected frame type: ") +
                                 to_string(msg->type)}));
          break;
      }
    } catch (const WireError&) {
      return true;  // response send failed; connection is gone
    }
  }
}

bool KeyManager::has_key(std::uint64_t client_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  return keys_.contains(client_id);
}

}  // namespace poe::net
