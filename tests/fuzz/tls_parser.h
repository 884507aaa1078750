// tls_parser.h — just enough TLS to extract the ClientHello SNI, which is the
// field DPI classifiers key on for HTTPS traffic (e.g. ".googlevideo.com" in
// T-Mobile's Binge On rules). The classifier matches SNI bytes as content,
// so nothing in the library parses TLS: this is test code, the oracle for
// the TLS trace generator and a target of the parser campaigns.
#pragma once

#include <optional>
#include <string>

#include "util/bytes.h"

namespace liberate::dpi {

/// Extract the server_name (SNI, extension 0) from a byte stream that begins
/// with a TLS record carrying a ClientHello. Returns nullopt for anything
/// else (including blinded/garbled handshakes — exactly the property the
/// characterization phase relies on).
std::optional<std::string> extract_sni(BytesView stream);

/// True if the stream plausibly starts with a TLS handshake record
/// (content type 22, version 3.x).
bool looks_like_tls_client_hello(BytesView stream);

}  // namespace liberate::dpi
