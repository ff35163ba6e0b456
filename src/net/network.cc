#include "net/network.hh"

#include <algorithm>

#include "sim/contract.hh"

namespace mercury::net
{

unsigned
TcpSegmenter::numSegments(std::uint64_t payload_bytes) const
{
    if (payload_bytes == 0)
        return 1;
    return static_cast<unsigned>((payload_bytes + params_.mss - 1) /
                                 params_.mss);
}

std::vector<unsigned>
TcpSegmenter::segmentSizes(std::uint64_t payload_bytes) const
{
    std::vector<unsigned> sizes;
    const unsigned n = numSegments(payload_bytes);
    sizes.reserve(n);
    std::uint64_t remaining = payload_bytes;
    for (unsigned i = 0; i < n; ++i) {
        const unsigned chunk = static_cast<unsigned>(
            std::min<std::uint64_t>(remaining, params_.mss));
        sizes.push_back(chunk);
        remaining -= chunk;
    }
    return sizes;
}

std::uint64_t
TcpSegmenter::wireBytes(std::uint64_t payload_bytes) const
{
    return payload_bytes + static_cast<std::uint64_t>(
        numSegments(payload_bytes)) * params_.perPacketOverhead;
}

NetworkPath::NetworkPath(const NetParams &params,
                         stats::StatGroup *parent)
    : params_(params), segmenter_(params),
      statGroup_(params.name, parent),
      messages_(&statGroup_, "messages", "messages delivered"),
      packets_(&statGroup_, "packets", "packets delivered"),
      payloadBytes_(&statGroup_, "payloadBytes", "payload bytes"),
      wireBytes_(&statGroup_, "wireBytes", "bytes on the wire"),
      queueTicks_(&statGroup_, "queueTicks",
                  "ticks messages waited for the link"),
      peakBuffer_(&statGroup_, "peakBufferBytes",
                  "peak MAC buffer occupancy"),
      bufferDrops_(&statGroup_, "bufferDrops",
                   "packets overflowing the MAC buffer"),
      drops_(&statGroup_, "packetDrops",
             "packets lost on the wire"),
      retransmits_(&statGroup_, "retransmits",
                   "TCP segments retransmitted"),
      rtoTicks_(&statGroup_, "rtoTicks",
                "ticks spent waiting out retransmission timeouts")
{
    static_assert(NetParams::linkBandwidth > 0.0,
                  "link bandwidth must be positive");
    static_assert(NetParams::mss > 0, "MSS must be positive");
}

Tick
NetworkPath::serializationTime(std::uint64_t bytes) const
{
    const double seconds =
        static_cast<double>(bytes) / params_.linkBandwidth;
    return std::max<Tick>(1, secondsToTicks(seconds));
}

std::uint64_t
NetworkPath::backlogBytes(Tick now) const
{
    if (linkBusyUntil_ <= now)
        return 0;
    return static_cast<std::uint64_t>(
        params_.linkBandwidth *
        ticksToSeconds(linkBusyUntil_ - now));
}

DeliveryResult
NetworkPath::deliver(std::uint64_t payload_bytes, Tick now)
{
    const unsigned n = segmenter_.numSegments(payload_bytes);

    // Fault path: lost segments are resent after an RTO that doubles
    // per consecutive loss, so every drop surfaces as latency. It is
    // skipped entirely (no RNG, no arithmetic) when no injector is
    // attached, keeping fault-free runs bit-identical.
    Resends resends;
    if (faults_ != nullptr && params_.lossProbability > 0.0) {
        const std::vector<unsigned> sizes =
            segmenter_.segmentSizes(payload_bytes);
        for (unsigned i = 0; i < n; ++i) {
            Tick rto = params_.rtoMin;
            for (unsigned attempt = 0;
                 attempt < params_.maxRetransmits &&
                 faults_->roll(params_.lossProbability);
                 ++attempt) {
                ++resends.count;
                faults_->record(now, fault::FaultKind::PacketLoss,
                                params_.name, i);
                resends.penalty += rto;
                rto *= 2;
                resends.wireBytes +=
                    sizes[i] + params_.perPacketOverhead;
            }
        }
    }
    return transmit(payload_bytes, now, n,
                    segmenter_.wireBytes(payload_bytes),
                    params_.perPacketOverhead, resends);
}

DeliveryResult
NetworkPath::deliverDatagrams(std::uint64_t payload_bytes, Tick now,
                              unsigned datagrams)
{
    const unsigned n = std::max(1u, datagrams);
    const std::uint64_t wire =
        payload_bytes + static_cast<std::uint64_t>(n) *
                            params_.udpPerPacketOverhead;
    return transmit(payload_bytes, now, n, wire,
                    params_.udpPerPacketOverhead, Resends{});
}

DeliveryResult
NetworkPath::transmit(std::uint64_t payload_bytes, Tick now,
                      unsigned packets, std::uint64_t wire,
                      std::uint64_t overhead, const Resends &resends)
{
    // Store-and-forward buffering: everything queued behind the link
    // plus this message sits in the MAC buffer until serialized out.
    // Occupancy clamps at capacity; the excess is packets the buffer
    // cannot hold, accounted even in fault-free runs.
    const std::uint64_t occupancy = backlogBytes(now) + wire;
    const std::uint64_t clamped =
        std::min(occupancy, params_.macBufferBytes);
    if (clamped > peakBuffer_.value())
        peakBuffer_ = static_cast<double>(clamped);
    if (occupancy > params_.macBufferBytes) {
        const std::uint64_t overflow =
            occupancy - params_.macBufferBytes;
        const std::uint64_t per_packet = params_.mss + overhead;
        bufferDrops_ += static_cast<double>(
            std::min<std::uint64_t>(
                packets, (overflow + per_packet - 1) / per_packet));
    }

    const Tick start = std::max(now, linkBusyUntil_);
    queueTicks_ += static_cast<double>(start - now);

    // Packets serialize back to back; the receiver sees the last one
    // after the full wire time (original + retransmitted bytes), any
    // retransmission timeouts, plus the fixed per-hop latencies for
    // the final (store-and-forward) packet.
    const Tick serialization =
        serializationTime(wire + resends.wireBytes);
    linkBusyUntil_ = start + serialization;

    DeliveryResult result;
    result.packets = packets;
    result.wireBytes = wire + resends.wireBytes;
    result.drops = resends.count;
    result.retransmits = resends.count;
    result.completion = start + serialization + resends.penalty +
                        params_.phyLatency + params_.macLatency +
                        params_.propagation;

    ++messages_;
    packets_ += static_cast<double>(packets);
    payloadBytes_ += static_cast<double>(payload_bytes);
    wireBytes_ += static_cast<double>(result.wireBytes);
    drops_ += static_cast<double>(result.drops);
    retransmits_ += static_cast<double>(result.retransmits);
    rtoTicks_ += static_cast<double>(resends.penalty);

    return result;
}

double
NetworkPath::utilization(Tick elapsed) const
{
    if (elapsed == 0)
        return 0.0;
    const double capacity =
        params_.linkBandwidth * ticksToSeconds(elapsed);
    // Messages whose serialization began before the observation
    // window can push the ratio past 1 at saturation; clamp.
    return std::min(1.0, wireBytes_.value() / capacity);
}

} // namespace mercury::net
