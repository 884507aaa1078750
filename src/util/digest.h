// digest.h — streaming 128-bit content fingerprints.
//
// The round scheduler keys its memoization cache and derives per-round RNG
// seeds from a fingerprint of everything that determines a round's outcome
// (trace bytes, mutation parameters, classifier profile, environment), and
// the provenance recorder derives packet lineage ids from serialized
// datagram bytes. Fingerprints are therefore on the hot path: every round
// digests its full trace and every built packet digests its wire bytes.
//
// The core absorbs 16-byte blocks with two multiply-rotate lanes (four
// multiplies per block, xxhash-style rounds) instead of per-byte hashing, so
// digesting runs at a fraction of a nanosecond per byte. Byte-order stable:
// words are composed from bytes little-endian explicitly, never via memcpy
// of host integers. Streaming-safe: update("ab") + update("c") equals
// update("abc") — callers fold incrementally.
//
// Fingerprints are internal identifiers (cache keys, seed derivation,
// provenance ids). They are stable within a build but carry no cross-version
// stability promise; nothing persists them across releases (the deploy
// fingerprint cache regenerates on miss).
#pragma once

#include <cstdint>
#include <string>

#include "util/bytes.h"

namespace liberate {

struct Fingerprint {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;

  bool operator==(const Fingerprint& o) const {
    return lo == o.lo && hi == o.hi;
  }
  bool operator!=(const Fingerprint& o) const { return !(*this == o); }

  struct Hasher {
    std::size_t operator()(const Fingerprint& f) const {
      return static_cast<std::size_t>(f.lo ^ (f.hi * 0x9e3779b97f4a7c15ULL));
    }
  };
};

class Digest {
 public:
  Digest() = default;

  void update(const void* data, std::size_t size) {
    // An empty span may carry a null pointer, which memcpy must not see.
    if (size == 0) return;
    const auto* p = static_cast<const std::uint8_t*>(data);
    total_ += size;
    // Top up a partial block first.
    if (buflen_ != 0) {
      const std::size_t space = kBlock - buflen_;
      const std::size_t take = size < space ? size : space;
      __builtin_memcpy(buf_ + buflen_, p, take);
      buflen_ += static_cast<std::uint32_t>(take);
      p += take;
      size -= take;
      if (buflen_ == kBlock) {
        absorb(buf_);
        buflen_ = 0;
      }
    }
    // Whole blocks straight from the input.
    while (size >= kBlock) {
      absorb(p);
      p += kBlock;
      size -= kBlock;
    }
    // Stash the tail (buflen_ is 0 here unless size is already 0).
    if (size != 0) {
      __builtin_memcpy(buf_ + buflen_, p, size);
      buflen_ += static_cast<std::uint32_t>(size);
    }
  }

  void update(BytesView bytes) { update(bytes.data(), bytes.size()); }
  void update(const std::string& s) { update(s.data(), s.size()); }

  /// Integers are folded little-endian, width-tagged so that e.g. the
  /// sequences (1, 2) and (0x0201) hash differently.
  void update_u64(std::uint64_t v) {
    std::uint8_t buf[9] = {8};
    for (int i = 0; i < 8; ++i) buf[i + 1] = static_cast<std::uint8_t>(v >> (8 * i));
    update(buf, sizeof(buf));
  }
  void update_u32(std::uint32_t v) { update_u64(0x4'0000'0000ULL | v); }
  void update_u16(std::uint16_t v) { update_u64(0x2'0000'0000ULL | v); }
  void update_u8(std::uint8_t v) { update_u64(0x1'0000'0000ULL | v); }
  void update_double(double v) {
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    __builtin_memcpy(&bits, &v, sizeof(bits));
    update_u64(bits);
  }
  /// Length-prefixed, so concatenation boundaries are unambiguous.
  void update_sized(BytesView bytes) {
    update_u64(bytes.size());
    update(bytes);
  }
  void update_sized(const std::string& s) {
    update_u64(s.size());
    update(s);
  }

  Fingerprint finish() const {
    std::uint64_t a = lo_;
    std::uint64_t b = hi_;
    if (buflen_ != 0) {
      // Absorb the zero-padded tail; total_ below disambiguates lengths
      // (trailing-zero bytes vs. absent bytes reach different states).
      std::uint8_t tmp[kBlock] = {0};
      for (std::uint32_t i = 0; i < buflen_; ++i) tmp[i] = buf_[i];
      const std::uint64_t w0 = load_le(tmp);
      const std::uint64_t w1 = load_le(tmp + 8);
      a = round_(round_(a, w0, kMul1, kMul2), w1, kMul3, kMul1);
      b = round_(round_(b, w1, kMul2, kMul3), w0, kMul1, kMul2);
    }
    a ^= total_;
    b ^= rotl(total_, 32) ^ kMul3;
    // Cross-lane avalanche: each output half depends on both lanes.
    a = avalanche(a ^ rotl(b, 29));
    b = avalanche(b ^ rotl(a, 31));
    return Fingerprint{a, b};
  }

 private:
  static constexpr std::size_t kBlock = 16;
  static constexpr std::uint64_t kMul1 = 0x9E3779B185EBCA87ULL;
  static constexpr std::uint64_t kMul2 = 0xC2B2AE3D27D4EB4FULL;
  static constexpr std::uint64_t kMul3 = 0x165667B19E3779F9ULL;

  static std::uint64_t rotl(std::uint64_t x, int r) {
    return (x << r) | (x >> (64 - r));
  }

  /// Explicit little-endian composition (endianness-stable; compiles to a
  /// single load + bswap-free sequence on LE hosts).
  static std::uint64_t load_le(const std::uint8_t* p) {
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    return v;
  }

  static std::uint64_t round_(std::uint64_t acc, std::uint64_t w,
                              std::uint64_t m1, std::uint64_t m2) {
    return rotl(acc + w * m1, 31) * m2;
  }

  static std::uint64_t avalanche(std::uint64_t x) {
    x ^= x >> 33;
    x *= 0xFF51AFD7ED558CCDULL;
    x ^= x >> 33;
    x *= 0xC4CEB9FE1A85EC53ULL;
    x ^= x >> 33;
    return x;
  }

  void absorb(const std::uint8_t* p) {
    const std::uint64_t w0 = load_le(p);
    const std::uint64_t w1 = load_le(p + 8);
    lo_ = round_(round_(lo_, w0, kMul1, kMul2), w1, kMul3, kMul1);
    hi_ = round_(round_(hi_, w1, kMul2, kMul3), w0, kMul1, kMul2);
  }

  std::uint64_t lo_ = 0xcbf29ce484222325ULL;  // distinct lane seeds
  std::uint64_t hi_ = 0x84222325cbf29ce4ULL;
  std::uint8_t buf_[kBlock] = {};
  std::uint32_t buflen_ = 0;
  std::uint64_t total_ = 0;
};

}  // namespace liberate
