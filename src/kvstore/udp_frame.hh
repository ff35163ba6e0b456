/**
 * @file
 * Memcached UDP framing arithmetic.
 *
 * Memcached's UDP mode prefixes every datagram with an 8-byte frame
 * header (request id, sequence number, datagram count, reserved) and
 * splits large responses across datagrams. This is the transport
 * Facebook used for GETs, and the one the ServerModel's UDP datapaths
 * (net::DatapathKind) represent. The timing model only needs the
 * datagram count, so that is all this header provides.
 */

#ifndef MERCURY_KVSTORE_UDP_FRAME_HH
#define MERCURY_KVSTORE_UDP_FRAME_HH

#include <cstddef>

namespace mercury::kvstore
{

/** Maximum payload per datagram (1400 B, memcached's default). */
constexpr std::size_t udpMaxPayload = 1400;

/** Number of datagrams a payload is split into (an empty payload
 * still takes one). Timing models use this to count packets. */
constexpr std::size_t
udpDatagramCount(std::size_t payload_bytes)
{
    return payload_bytes == 0
               ? 1
               : (payload_bytes + udpMaxPayload - 1) / udpMaxPayload;
}

} // namespace mercury::kvstore

#endif // MERCURY_KVSTORE_UDP_FRAME_HH
