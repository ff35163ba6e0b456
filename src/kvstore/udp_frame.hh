/**
 * @file
 * Memcached UDP frame codec.
 *
 * Memcached's UDP mode prefixes every datagram with an 8-byte frame
 * header: request id (16b), sequence number (16b), datagram count
 * (16b) and a reserved field (16b). Large responses are split across
 * datagrams; the client reassembles by (request id, sequence). This
 * is the transport Facebook used for GETs, and the one the
 * ServerModel's UDP datapaths (net::DatapathKind) represent.
 */

#ifndef MERCURY_KVSTORE_UDP_FRAME_HH
#define MERCURY_KVSTORE_UDP_FRAME_HH

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace mercury::kvstore
{

struct UdpFrameHeader
{
    std::uint16_t requestId = 0;
    std::uint16_t sequence = 0;
    std::uint16_t total = 1;
    std::uint16_t reserved = 0;

    static constexpr std::size_t bytes = 8;
};

/** Maximum payload per datagram (1400 B, memcached's default). */
constexpr std::size_t udpMaxPayload = 1400;

/** Number of datagrams udpFrame would emit for a payload, without
 * building them. Timing models (the kernel-bypass datapath, the
 * on-NIC GET cache response path) use this to count packets. */
std::size_t udpDatagramCount(std::size_t payload_bytes);

/** Split a response into framed datagrams for one request id. */
std::vector<std::string> udpFrame(std::uint16_t request_id,
                                  std::string_view payload);

/**
 * Frame a TX batch: consecutive request ids starting at
 * @p first_request_id, one per payload, datagrams concatenated in
 * submission order (the order a batched poll-mode driver publishes
 * descriptors). UdpReassembler handles the interleaving.
 */
std::vector<std::string>
udpFrameBatch(std::uint16_t first_request_id,
              const std::vector<std::string> &payloads);

/** Parse one datagram into header + payload view.
 * @return nullopt if the datagram is shorter than a header. */
std::optional<std::pair<UdpFrameHeader, std::string_view>>
udpUnframe(std::string_view datagram);

/**
 * Client-side reassembler: feed datagrams (possibly out of order),
 * get the full payload once every fragment of a request arrived.
 */
class UdpReassembler
{
  public:
    /** Feed one datagram.
     * @return the complete payload if this datagram finished its
     *         request, otherwise nullopt. */
    std::optional<std::string> feed(std::string_view datagram);

    /** Requests currently awaiting fragments. */
    std::size_t pending() const { return pending_.size(); }

    /** Drop partial state for a request (timeout handling). */
    void forget(std::uint16_t request_id);

  private:
    struct Partial
    {
        std::vector<std::string> fragments;
        std::size_t received = 0;
    };

    std::map<std::uint16_t, Partial> pending_;
};

} // namespace mercury::kvstore

#endif // MERCURY_KVSTORE_UDP_FRAME_HH
