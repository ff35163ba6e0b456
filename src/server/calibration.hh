/**
 * @file
 * Calibration constants for the request trace generator.
 *
 * These are the only fitted numbers in the simulator. They were
 * calibrated once against anchor points read from the paper
 * (gem5 full-system measurements) and everything else in the
 * reproduction is derived:
 *
 *  Anchor 1 (Fig. 5a): A15 @1 GHz + 2 MB L2, 10 ns DRAM, 64 B GET
 *            -> ~26 KTPS (RTT ~38 us).
 *  Anchor 2 (Fig. 5c / Table 4): A7 + L2, 10 ns DRAM, 64 B GET
 *            -> ~11 KTPS per core (Table 4 Mercury rows divide to
 *            10.99 KTPS/core).
 *  Anchor 3 (Fig. 4a): 64 B GET time splits ~87% network stack,
 *            ~10% memcached metadata, ~2-3% hash.
 *  Anchor 4 (Fig. 4b): PUT metadata share rises to ~20-30%.
 *  Anchor 5 (Table 3): A7 Mercury max per-core bandwidth ~0.2 GB/s
 *            at 1 MB requests (578 GB/s over 93 stacks x 32 cores).
 *
 * The instruction counts are per-request or per-packet costs of the
 * Linux network stack path, memcached metadata manipulation and key
 * hashing; they are well within the envelope reported by TSSP
 * (Lim et al.) and the scale-out workload characterizations the
 * paper cites.
 */

#ifndef MERCURY_SERVER_CALIBRATION_HH
#define MERCURY_SERVER_CALIBRATION_HH

#include <cstdint>

#include "sim/types.hh"

namespace mercury::server
{

struct Calibration
{
    // ---- Network stack (charged per packet / per byte) ------------

    /** Fixed per-request socket/syscall/epoll overhead, split across
     * receive and transmit sides. */
    std::uint64_t netstackInstrPerRequest = 52000;

    /** Driver + IP + TCP receive processing per inbound packet. */
    std::uint64_t netstackInstrPerRxPacket = 9000;

    /** Segment build + checksum + driver per outbound packet. */
    std::uint64_t netstackInstrPerTxPacket = 6000;

    /** Instructions per 64 B line copied between packet buffers and
     * the store (checksum + copy loops). */
    std::uint64_t copyInstrPerLine = 14;

    /** Code footprint walked per rx / tx packet (bytes). */
    std::uint64_t netstackRxPathBytes = 12 * kiB;
    std::uint64_t netstackTxPathBytes = 12 * kiB;
    /** Fixed-path code walked once per request (socket layer). */
    std::uint64_t netstackRequestPathBytes = 8 * kiB;

    /** Kernel socket-state lines touched per request (TCB fields,
     * sk_buff descriptors, epoll entries) on the receive and
     * transmit paths. These live in main memory, which is what
     * makes them expensive on Iridium. */
    unsigned sockStateLoadsRx = 3;
    unsigned sockStateStoresRx = 2;
    unsigned sockStateLoadsTx = 2;
    unsigned sockStateStoresTx = 1;

    // ---- UDP GET path (Facebook-style deployments) -----------------

    /** UDP skips connection state, ACK processing and most of the
     * TCP machinery: lighter per-packet and per-request costs and
     * only one socket-state line each way. */
    std::uint64_t udpInstrPerRequest = 26000;
    std::uint64_t udpInstrPerRxPacket = 5000;
    std::uint64_t udpInstrPerTxPacket = 3400;
    std::uint64_t udpRxPathBytes = 7 * kiB;
    std::uint64_t udpTxPathBytes = 7 * kiB;
    unsigned udpSockStateLoads = 1;
    unsigned udpSockStateStores = 1;

    // ---- Kernel-bypass path (poll-mode driver, batched rings) ------

    /** User-level request dispatch: no syscall, no epoll, no socket
     * lookup -- parse straight out of the DMA ring. The count is the
     * order TSSP/LaKe report for a user-level KV request path. */
    std::uint64_t bypassInstrPerRequest = 4000;

    /** Per-packet poll-mode RX work: descriptor read, header parse,
     * mbuf bookkeeping (~100 ns at 1 GHz, DPDK's envelope). */
    std::uint64_t bypassInstrPerRxPacket = 900;

    /** Per-packet TX work: descriptor write + header build. */
    std::uint64_t bypassInstrPerTxPacket = 700;

    /** Per-*batch* RX cost: doorbell MMIO, ring-tail update and
     * buffer replenish, amortized over DatapathParams::rxBatch. */
    std::uint64_t bypassInstrPerRxBatch = 1800;

    /** Per-batch TX cost: doorbell + completion reaping. */
    std::uint64_t bypassInstrPerTxBatch = 1400;

    /** Code footprint of the poll-mode RX/TX paths and the fixed
     * request path: small enough to stay L1-resident, which is half
     * the point of the bypass. */
    std::uint64_t bypassRxPathBytes = 2 * kiB;
    std::uint64_t bypassTxPathBytes = 2 * kiB;
    std::uint64_t bypassRequestPathBytes = 2 * kiB;

    /** Descriptor-ring lines dirtied per batch (tail pointer plus
     * one descriptor line); rings live in ordinary memory. */
    unsigned bypassRingStoresPerBatch = 1;

    // ---- Hash computation ------------------------------------------

    std::uint64_t hashInstrBase = 2000;
    std::uint64_t hashInstrPerKeyByte = 20;
    std::uint64_t hashCodeBytes = 2 * kiB;

    // ---- Memcached metadata -----------------------------------------

    /** Item lookup, LRU bookkeeping, response header build (GET). */
    std::uint64_t memcachedInstrGet = 7000;

    /** Allocation, hash insert, LRU insert (PUT), on top of GET. */
    std::uint64_t memcachedInstrPut = 20000;

    /** Extra instructions per hash-chain node walked. */
    std::uint64_t memcachedInstrPerChainNode = 90;

    /** Code footprint walked per GET / PUT. */
    std::uint64_t memcachedGetPathBytes = 7 * kiB;
    std::uint64_t memcachedPutPathBytes = 10 * kiB;

    // ---- Protocol byte overheads ------------------------------------

    /** Request line overhead beyond the key ("get \r\n"). */
    std::uint64_t getRequestOverheadBytes = 6;
    /** "VALUE <key> <flags> <len>\r\n...\r\nEND\r\n". */
    std::uint64_t getResponseOverheadBytes = 40;
    /** "set <key> <f> <e> <n>\r\n" + trailing "\r\n". */
    std::uint64_t putRequestOverheadBytes = 22;
    std::uint64_t putResponseBytes = 8;  // "STORED\r\n"
};

} // namespace mercury::server

#endif // MERCURY_SERVER_CALIBRATION_HH
