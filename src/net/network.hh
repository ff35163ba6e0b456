/**
 * @file
 * Network path model: TCP segmentation, 10GbE link timing, and the
 * integrated NIC (Niagara-2-style MAC on the stack, Broadcom-style
 * PHY off the stack), per Sec. 4.1.4.
 *
 * Each Mercury/Iridium stack owns a dedicated physical 10GbE port --
 * there is no server-level router -- so the path model covers: client
 * NIC -> wire -> PHY -> MAC buffers -> core. CPU-side protocol
 * processing is charged separately by the request trace generator;
 * this module accounts for everything that happens on the wire and in
 * the NIC.
 */

#ifndef MERCURY_NET_NETWORK_HH
#define MERCURY_NET_NETWORK_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/fault.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace mercury::net
{

/** Static configuration of a network path. */
struct NetParams
{
    std::string name = "net";

    /** Link rate in bytes per second (10GbE). */
    static constexpr double linkBandwidth = 10e9 / 8.0;

    /** TCP maximum segment size (1500 MTU - IP/TCP headers). */
    static constexpr unsigned mss = 1448;

    /** Per-packet non-payload wire bytes: preamble+SFD (8), Ethernet
     * header (14), FCS (4), interframe gap (12), IP (20), TCP (20). */
    static constexpr unsigned perPacketOverhead = 78;

    /** Same for UDP datagrams (8-byte UDP header instead of TCP's
     * 20): used by deliverDatagrams on the bypass/NIC-cache path. */
    static constexpr unsigned udpPerPacketOverhead = 66;

    /** PHY traversal latency per direction. */
    static constexpr Tick phyLatency = 500 * tickNs;

    /** MAC + buffer store-and-forward latency per packet. */
    static constexpr Tick macLatency = 200 * tickNs;

    /** One-way propagation (client NIC to server PHY). */
    static constexpr Tick propagation = 1 * tickUs;

    /** NIC MAC packet buffer capacity. */
    static constexpr std::uint64_t macBufferBytes = 128 * kiB;

    // --- Fault model (all zero-cost when left at defaults) ----------

    /** Per-segment probability the wire/NIC drops the packet. Only
     * consulted when a FaultInjector is attached. */
    double lossProbability = 0.0;

    /** Minimum TCP retransmission timeout. Real kernels default to
     * 200 ms; datacenter deployments tune RTOmin to ~1-10 ms to
     * survive incast (Vasudevan et al., SIGCOMM'09), and our RTTs
     * are 10-1000 us, so 1 ms is the faithful in-rack choice. */
    static constexpr Tick rtoMin = 1 * tickMs;

    /** Retransmission attempts per segment before giving up; each
     * consecutive loss doubles the RTO (exponential backoff). */
    unsigned maxRetransmits = 6;
};

/**
 * Stateless TCP segmentation arithmetic.
 */
class TcpSegmenter
{
  public:
    explicit TcpSegmenter(const NetParams &params) : params_(params) {}

    /** Number of TCP segments needed for a payload. A zero-byte
     * payload still needs one (header-only) packet. */
    unsigned numSegments(std::uint64_t payload_bytes) const;

    /** Payload bytes of each segment, in order. */
    std::vector<unsigned>
    segmentSizes(std::uint64_t payload_bytes) const;

    /** Total bytes on the wire including all per-packet overhead. */
    std::uint64_t wireBytes(std::uint64_t payload_bytes) const;

  private:
    NetParams params_;
};

/** Timing outcome of one message delivery. */
struct DeliveryResult
{
    /** Tick the last byte is available at the receiver. */
    Tick completion = 0;
    unsigned packets = 0;
    std::uint64_t wireBytes = 0;
    /** Segments lost on the wire. */
    unsigned drops = 0;
    /** Segments sent again (every drop that was retried). */
    unsigned retransmits = 0;
};

/**
 * One direction of a network path with serialization, store-and-
 * forward and propagation timing. The link keeps busy-until state so
 * back-to-back messages queue.
 */
class NetworkPath
{
  public:
    explicit NetworkPath(const NetParams &params,
                         stats::StatGroup *parent = nullptr);

    /**
     * Deliver a message of @p payload_bytes entering the link at
     * @p now.
     *
     * The first packet reaches the receiver after its serialization
     * time plus PHY/MAC/propagation; subsequent packets pipeline
     * behind it. Completion is the arrival of the final packet.
     */
    DeliveryResult deliver(std::uint64_t payload_bytes, Tick now);

    /**
     * Deliver a message that is already framed as @p datagrams UDP
     * datagrams (the kernel-bypass / NIC-cache fast path). The
     * caller owns the framing arithmetic (kvstore::udpDatagramCount)
     * because datagram boundaries are a protocol concern, not a
     * link concern; this method charges UDP per-packet overhead and
     * the same serialization/store-and-forward/queueing model as
     * deliver(). No retransmission machinery: the fast path models
     * the fault-free wire (UDP losses surface as client timeouts at
     * a higher layer, not as link-level retries).
     */
    DeliveryResult deliverDatagrams(std::uint64_t payload_bytes,
                                    Tick now, unsigned datagrams);

    const NetParams &params() const { return params_; }

    const TcpSegmenter &segmenter() const { return segmenter_; }

    /** Offered-load utilization of the link since construction. */
    double utilization(Tick elapsed) const;

    /** Peak MAC buffer occupancy observed (bytes), clamped to the
     * configured capacity. */
    std::uint64_t peakBufferBytes() const
    {
        return static_cast<std::uint64_t>(peakBuffer_.value());
    }

    /** Packets the MAC buffer could not hold. Only counted: the
     * timing never drops them. */
    std::uint64_t bufferDropPackets() const
    {
        return static_cast<std::uint64_t>(bufferDrops_.value());
    }

    std::uint64_t droppedPackets() const
    {
        return static_cast<std::uint64_t>(drops_.value());
    }

    std::uint64_t retransmittedPackets() const
    {
        return static_cast<std::uint64_t>(retransmits_.value());
    }

    /**
     * Attach a fault injector; nullptr detaches. Packet-loss rolls
     * only happen while one is attached, so paths without an injector
     * stay bit-identical to pre-fault builds.
     */
    void setFaultInjector(fault::FaultInjector *injector)
    {
        faults_ = injector;
    }

    /**
     * Retune the per-segment loss probability at runtime (scheduled
     * degradation bursts in composed fault scenarios). Only consulted
     * while an injector is attached, so the zero-cost-off contract
     * holds regardless of the value set here.
     */
    void setLossProbability(double probability)
    {
        params_.lossProbability = probability;
    }

  private:
    /** Segments the loss leg resent for one message. */
    struct Resends
    {
        /** Each one was lost once and sent again. */
        unsigned count = 0;
        std::uint64_t wireBytes = 0;
        /** Retransmission timeouts waited out. */
        Tick penalty = 0;
    };

    /** The accounting both delivery forms share: MAC-buffer
     * occupancy, link queueing, completion time and counters for a
     * message of @p wire bytes in @p packets packets, each carrying
     * @p overhead framing bytes. */
    DeliveryResult transmit(std::uint64_t payload_bytes, Tick now,
                            unsigned packets, std::uint64_t wire,
                            std::uint64_t overhead,
                            const Resends &resends);

    Tick serializationTime(std::uint64_t bytes) const;

    /** Bytes still queued in the MAC buffer at @p now (the link has
     * not yet serialized them out). */
    std::uint64_t backlogBytes(Tick now) const;

    NetParams params_;
    TcpSegmenter segmenter_;
    Tick linkBusyUntil_ = 0;
    fault::FaultInjector *faults_ = nullptr;

    stats::StatGroup statGroup_;
    stats::Scalar messages_;
    stats::Scalar packets_;
    stats::Scalar payloadBytes_;
    stats::Scalar wireBytes_;
    stats::Scalar queueTicks_;
    stats::Scalar peakBuffer_;
    stats::Scalar bufferDrops_;
    stats::Scalar drops_;
    stats::Scalar retransmits_;
    stats::Scalar rtoTicks_;
};

} // namespace mercury::net

#endif // MERCURY_NET_NETWORK_HH
