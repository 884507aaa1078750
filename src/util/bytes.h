// bytes.h — big-endian (network order) byte stream reader/writer.
//
// All wire formats in this library (IPv4, TCP, UDP, TLS, STUN) are big-endian;
// these two classes are the single point where host/network byte order is
// handled so protocol codecs never touch htons/ntohl directly.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/result.h"

namespace liberate {

using Bytes = std::vector<std::uint8_t>;
using BytesView = std::span<const std::uint8_t>;

/// Convert between Bytes and std::string (payloads are often ASCII protocols).
Bytes to_bytes(std::string_view s);
std::string to_string(BytesView b);

/// ByteWriter appends big-endian integers and raw spans to a growable buffer.
class ByteWriter {
 public:
  ByteWriter() = default;
  explicit ByteWriter(std::size_t reserve) { buf_.reserve(reserve); }

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) {
    buf_.push_back(static_cast<std::uint8_t>(v >> 8));
    buf_.push_back(static_cast<std::uint8_t>(v));
  }
  void u24(std::uint32_t v) {
    buf_.push_back(static_cast<std::uint8_t>(v >> 16));
    buf_.push_back(static_cast<std::uint8_t>(v >> 8));
    buf_.push_back(static_cast<std::uint8_t>(v));
  }
  void u32(std::uint32_t v) {
    buf_.push_back(static_cast<std::uint8_t>(v >> 24));
    buf_.push_back(static_cast<std::uint8_t>(v >> 16));
    buf_.push_back(static_cast<std::uint8_t>(v >> 8));
    buf_.push_back(static_cast<std::uint8_t>(v));
  }
  void raw(BytesView data) { buf_.insert(buf_.end(), data.begin(), data.end()); }
  void raw(std::string_view data) {
    buf_.insert(buf_.end(), data.begin(), data.end());
  }
  void fill(std::uint8_t value, std::size_t count) {
    buf_.insert(buf_.end(), count, value);
  }

  /// Patch a previously written big-endian u16 at `offset` (e.g. a length or
  /// checksum field whose value is only known after the body is serialized).
  void patch_u16(std::size_t offset, std::uint16_t v) {
    buf_[offset] = static_cast<std::uint8_t>(v >> 8);
    buf_[offset + 1] = static_cast<std::uint8_t>(v);
  }

  std::size_t size() const { return buf_.size(); }
  const Bytes& bytes() const& { return buf_; }
  Bytes take() && { return std::move(buf_); }

 private:
  Bytes buf_;
};

/// Big-endian loads at a fixed offset, for codecs whose one up-front length
/// check already covers every field they read: no Result per field. The
/// caller guarantees `at + 2` (load_u16) or `at + 4` (load_u32) <= size.
inline std::uint16_t load_u16(BytesView b, std::size_t at) {
  return static_cast<std::uint16_t>((b[at] << 8) | b[at + 1]);
}
inline std::uint32_t load_u32(BytesView b, std::size_t at) {
  return (static_cast<std::uint32_t>(b[at]) << 24) |
         (static_cast<std::uint32_t>(b[at + 1]) << 16) |
         (static_cast<std::uint32_t>(b[at + 2]) << 8) | b[at + 3];
}

/// ByteReader consumes big-endian integers and raw spans from a fixed view.
/// Reads past the end return an Error instead of UB — truncated packets are
/// routine input here.
class ByteReader {
 public:
  explicit ByteReader(BytesView data) : data_(data) {}

  std::size_t remaining() const { return data_.size() - pos_; }
  std::size_t position() const { return pos_; }
  bool empty() const { return remaining() == 0; }

  Result<std::uint8_t> u8() {
    if (remaining() < 1) return Error("ByteReader: u8 past end");
    return data_[pos_++];
  }
  Result<std::uint16_t> u16() {
    if (remaining() < 2) return Error("ByteReader: u16 past end");
    std::uint16_t v = static_cast<std::uint16_t>(
        (static_cast<std::uint16_t>(data_[pos_]) << 8) | data_[pos_ + 1]);
    pos_ += 2;
    return v;
  }
  Result<std::uint32_t> u24() {
    if (remaining() < 3) return Error("ByteReader: u24 past end");
    std::uint32_t v = (static_cast<std::uint32_t>(data_[pos_]) << 16) |
                      (static_cast<std::uint32_t>(data_[pos_ + 1]) << 8) |
                      data_[pos_ + 2];
    pos_ += 3;
    return v;
  }
  Result<std::uint32_t> u32() {
    if (remaining() < 4) return Error("ByteReader: u32 past end");
    std::uint32_t v = (static_cast<std::uint32_t>(data_[pos_]) << 24) |
                      (static_cast<std::uint32_t>(data_[pos_ + 1]) << 16) |
                      (static_cast<std::uint32_t>(data_[pos_ + 2]) << 8) |
                      data_[pos_ + 3];
    pos_ += 4;
    return v;
  }
  Result<BytesView> raw(std::size_t n) {
    if (remaining() < n) return Error("ByteReader: raw past end");
    BytesView v = data_.subspan(pos_, n);
    pos_ += n;
    return v;
  }
  Status skip(std::size_t n) {
    if (remaining() < n) return Error("ByteReader: skip past end");
    pos_ += n;
    return Status::success();
  }

 private:
  BytesView data_;
  std::size_t pos_ = 0;
};

}  // namespace liberate
