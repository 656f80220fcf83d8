#ifndef LIFTING_NET_CODEC_HPP
#define LIFTING_NET_CODEC_HPP

#include <cstdint>
#include <optional>
#include <vector>

#include "gossip/message.hpp"

/// Binary wire format for protocol messages (little-endian, length-checked).
///
/// The simulator models message *sizes* analytically (gossip::wire_size);
/// this codec is the actual byte format used by the real UDP transport in
/// src/net, and its round-trip property is enforced by tests so a deployment
/// speaks exactly what the simulation accounts for.
///
/// All multi-byte integers are explicitly little-endian regardless of host
/// byte order (byte-shift serialization, not memcpy). Doubles travel as the
/// little-endian bytes of their IEEE-754 bit pattern. Chunk ids travel as
/// 8 bytes; ids above the 32-bit in-memory range are rejected as malformed.
///
/// UDP datagram frame (UdpTransport wraps each encoded message):
///
///   sender_id  u32 LE   | node id of the sending endpoint
///   codec_len  u16 LE   | length of the codec bytes that follow
///   codec      bytes    | encode(msg) — tag byte + fields, as below
///   payload    bytes    | chunk body, serve frames only (payload_bytes
///                       | long; zero-filled placeholder in this repo)
///
/// Non-serve frames carry no trailing bytes; a serve frame whose trailing
/// length differs from its payload_bytes field is a decode failure.

namespace lifting::net {

/// Serializes a message (without payload bytes for serves — the chunk body
/// is appended by the transport; the codec carries `payload_bytes` so the
/// receiver can account for it).
[[nodiscard]] std::vector<std::uint8_t> encode(const gossip::Message& msg);

/// Appends the bytes encode(msg) returns to `out` (existing contents are
/// kept), so a caller can serialize straight into a reused frame buffer.
void encode_into(const gossip::Message& msg, std::vector<std::uint8_t>& out);

/// Decodes a message; std::nullopt on malformed/truncated input (never
/// throws, never reads out of bounds).
[[nodiscard]] std::optional<gossip::Message> decode(
    const std::uint8_t* data, std::size_t size);

[[nodiscard]] inline std::optional<gossip::Message> decode(
    const std::vector<std::uint8_t>& buffer) {
  return decode(buffer.data(), buffer.size());
}

}  // namespace lifting::net

#endif  // LIFTING_NET_CODEC_HPP
