#include "fhe/serialize.hpp"

#include <algorithm>
#include <cmath>

#include "common/bits.hpp"
#include "common/error.hpp"

namespace poe::fhe {

namespace {

constexpr std::uint32_t kMagic = 0x42475631;  // "BGV1"

// Append `bits` low bits of `value` to the stream, least significant bit
// first. Moves up to a byte per step (the stream is the same as one bit at a
// time): the router deserializes every shard's results serially, so this
// loop is on the scale-out path.
class BitWriter {
 public:
  explicit BitWriter(std::vector<std::uint8_t>& out) : out_(out) {}

  void write(std::uint64_t value, unsigned bits) {
    while (bits > 0) {
      const unsigned used = bit_pos_ % 8;
      if (used == 0) out_.push_back(0);
      const unsigned take = std::min(bits, 8 - used);
      out_.back() |= static_cast<std::uint8_t>((value & ((1u << take) - 1))
                                               << used);
      value >>= take;
      bits -= take;
      bit_pos_ += take;
    }
  }

  void align_byte() { bit_pos_ = (bit_pos_ + 7) & ~std::size_t{7}; }

 private:
  std::vector<std::uint8_t>& out_;
  std::size_t bit_pos_ = 0;
};

class BitReader {
 public:
  explicit BitReader(std::span<const std::uint8_t> in) : in_(in) {}

  std::uint64_t read(unsigned bits) {
    std::uint64_t value = 0;
    for (unsigned got = 0; got < bits;) {
      POE_ENSURE(bit_pos_ / 8 < in_.size(), "truncated ciphertext stream");
      const unsigned used = bit_pos_ % 8;
      const unsigned take = std::min(bits - got, 8 - used);
      value |= static_cast<std::uint64_t>((in_[bit_pos_ / 8] >> used) &
                                          ((1u << take) - 1))
               << got;
      got += take;
      bit_pos_ += take;
    }
    return value;
  }

  void align_byte() { bit_pos_ = (bit_pos_ + 7) & ~std::size_t{7}; }

 private:
  std::span<const std::uint8_t> in_;
  std::size_t bit_pos_ = 0;
};

}  // namespace

std::uint64_t ciphertext_wire_bytes(const RnsContext& ctx, std::size_t level,
                                    std::size_t parts) {
  std::uint64_t bits = 0;
  for (std::size_t i = 0; i < level; ++i) {
    bits += ceil_div(static_cast<std::uint64_t>(ctx.n()) *
                         bit_width_u64(ctx.prime(i)),
                     8) *
            8;  // each component is byte-aligned
  }
  return 16 + parts * bits / 8;  // 16-byte header
}

std::optional<std::string> validate_ciphertext(const RnsContext& ctx,
                                               const Ciphertext& ct) {
  // The message is built only on a failing branch: a key that passes (every
  // tenant, every batch) formats nothing.
  const auto why = [](const auto&... args) {
    std::ostringstream os;
    (os << ... << args);
    return std::optional<std::string>(os.str());
  };
  if (ct.size() < 2 || ct.size() > 3) return why("bad part count ", ct.size());
  if (ct.level < 1 || ct.level > ctx.num_primes()) {
    return why("level ", ct.level, " outside chain of ", ctx.num_primes());
  }
  for (std::size_t p = 0; p < ct.size(); ++p) {
    const RnsPoly& part = ct.parts[p];
    if (part.context() != &ctx) {
      return why("part ", p, " bound to a different context");
    }
    if (!part.is_ntt()) return why("part ", p, " not in NTT form");
    if (part.level() < ct.level) {
      return why("part ", p, " at level ", part.level(),
                 " below ciphertext level ", ct.level);
    }
    for (std::size_t i = 0; i < ct.level; ++i) {
      const std::uint64_t q = ctx.prime(i);
      const auto limb = part.rns(i);
      const auto bad = std::find_if(limb.begin(), limb.end(),
                                    [q](std::uint64_t c) { return c >= q; });
      if (bad != limb.end()) {
        return why("part ", p, " component ", i,
                   " coefficient out of range (", *bad, " >= ", q, ")");
      }
    }
  }
  // The serialized form must have a sane, exactly-determined size — the
  // same arithmetic a wire ingest path would use to pre-check an upload.
  const std::uint64_t wire = ciphertext_wire_bytes(ctx, ct.level, ct.size());
  if (wire < 16) return std::string("implausible wire size");
  return std::nullopt;
}

std::vector<std::uint8_t> serialize_ciphertext(const RnsContext& ctx,
                                               const Ciphertext& ct) {
  POE_ENSURE(ct.size() >= 2 && ct.level >= 1, "malformed ciphertext");
  std::vector<std::uint8_t> out;
  BitWriter w(out);
  w.write(kMagic, 32);
  w.write(ctx.n(), 32);
  w.write(ct.level, 32);
  w.write(ct.size(), 32);
  for (const auto& part : ct.parts) {
    POE_ENSURE(part.is_ntt(), "serialisation expects NTT form");
    for (std::size_t i = 0; i < ct.level; ++i) {
      const unsigned bits = bit_width_u64(ctx.prime(i));
      for (const std::uint64_t c : part.rns(i)) w.write(c, bits);
      w.align_byte();
    }
  }
  return out;
}

Ciphertext deserialize_ciphertext(const RnsContext& ctx,
                                  std::span<const std::uint8_t> bytes) {
  BitReader r(bytes);
  POE_ENSURE(r.read(32) == kMagic, "bad ciphertext magic");
  POE_ENSURE(r.read(32) == ctx.n(), "ring size mismatch");
  const std::size_t level = r.read(32);
  POE_ENSURE(level >= 1 && level <= ctx.num_primes(), "bad level");
  const std::size_t parts = r.read(32);
  POE_ENSURE(parts >= 2 && parts <= 3, "bad part count");

  Ciphertext ct;
  ct.level = level;
  for (std::size_t p = 0; p < parts; ++p) {
    RnsPoly poly(&ctx, level, /*ntt_form=*/true);
    for (std::size_t i = 0; i < level; ++i) {
      const unsigned bits = bit_width_u64(ctx.prime(i));
      auto comp = poly.rns(i);
      for (auto& c : comp) {
        c = r.read(bits);
        POE_ENSURE(c < ctx.prime(i), "coefficient out of range");
      }
      r.align_byte();
    }
    ct.parts.push_back(std::move(poly));
  }
  // The wire format does not carry a noise bound; re-seed the tracked bound
  // with the fresh-encryption estimate (uploads — the serving use of this
  // path — are always fresh). A re-ingested server RESULT would carry more
  // noise than this; such ciphertexts are decrypted client-side, never fed
  // back into the scheduler.
  ct.noise_bits = std::log2(static_cast<double>(ctx.t())) + std::log2(3.0) +
                  std::log2(static_cast<double>(ctx.n())) + 2.0;
  return ct;
}

}  // namespace poe::fhe
