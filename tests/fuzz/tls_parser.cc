#include "fuzz/tls_parser.h"

#include "util/bytes.h"

namespace liberate::dpi {

bool looks_like_tls_client_hello(BytesView stream) {
  // record: type(1)=22 handshake, version(2)=0x03xx, length(2); then
  // handshake type(1)=1 ClientHello.
  return stream.size() >= 6 && stream[0] == 22 && stream[1] == 3 &&
         stream[5] == 1;
}

std::optional<std::string> extract_sni(BytesView stream) {
  if (!looks_like_tls_client_hello(stream)) return std::nullopt;
  ByteReader r(stream);
  if (!r.skip(1).ok()) return std::nullopt;            // content type
  if (!r.skip(2).ok()) return std::nullopt;            // record version
  auto rec_len = r.u16();
  if (!rec_len.ok()) return std::nullopt;
  // Parse within the record (but tolerate a record spanning the whole view).
  auto hs_type = r.u8();
  if (!hs_type.ok() || hs_type.value() != 1) return std::nullopt;
  auto hs_len = r.u24();
  if (!hs_len.ok()) return std::nullopt;
  if (!r.skip(2).ok()) return std::nullopt;            // client_version
  if (!r.skip(32).ok()) return std::nullopt;           // random
  auto sid_len = r.u8();
  if (!sid_len.ok() || !r.skip(sid_len.value()).ok()) return std::nullopt;
  auto cs_len = r.u16();
  if (!cs_len.ok() || !r.skip(cs_len.value()).ok()) return std::nullopt;
  auto comp_len = r.u8();
  if (!comp_len.ok() || !r.skip(comp_len.value()).ok()) return std::nullopt;
  auto ext_total = r.u16();
  if (!ext_total.ok()) return std::nullopt;

  std::size_t ext_end = r.position() + ext_total.value();
  while (r.position() + 4 <= ext_end && r.remaining() >= 4) {
    auto ext_type = r.u16();
    auto ext_len = r.u16();
    if (!ext_type.ok() || !ext_len.ok()) return std::nullopt;
    if (ext_type.value() == 0) {  // server_name
      // server_name_list: len(2), then entries: type(1)=0, name_len(2), name.
      auto list_len = r.u16();
      auto name_type = r.u8();
      auto name_len = r.u16();
      if (!list_len.ok() || !name_type.ok() || !name_len.ok()) {
        return std::nullopt;
      }
      if (name_type.value() != 0) return std::nullopt;
      auto name = r.raw(name_len.value());
      if (!name.ok()) return std::nullopt;
      return to_string(name.value());
    }
    if (!r.skip(ext_len.value()).ok()) return std::nullopt;
  }
  return std::nullopt;
}

}  // namespace liberate::dpi
