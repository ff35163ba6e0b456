#include "server/server_model.hh"

#include <algorithm>
#include <vector>

#include "kvstore/udp_frame.hh"
#include "sim/contract.hh"

namespace mercury::server
{

namespace
{

const Calibration defaultCal{};

std::uint64_t
linesOf(std::uint64_t bytes)
{
    return (bytes + 63) / 64;
}

} // anonymous namespace

const Calibration &
defaultCalibration()
{
    return defaultCal;
}

ServerModel::ServerModel(const ServerModelParams &params,
                         const SharedStackDevices *shared)
    : params_(params),
      map_(params.sliceBase, params.storeMemLimit + miB),
      stats_(params.name, params.statsParent),
      gets_(&stats_, "gets", "GET requests served"),
      puts_(&stats_, "puts", "PUT requests served"),
      getHits_(&stats_, "getHits", "GETs that found the key"),
      getMisses_(&stats_, "getMisses", "GETs that missed"),
      bytesIn_(&stats_, "bytesIn", "request payload bytes received"),
      bytesOut_(&stats_, "bytesOut", "response payload bytes sent"),
      hitRate_(&stats_, "hitRate", "GET hit fraction",
               [this] {
                   return gets_.value()
                              ? static_cast<double>(getHits_.value()) /
                                    static_cast<double>(gets_.value())
                              : 0.0;
               }),
      window_("window", &stats_),
      rttHist_(&window_, "rtt", "request round-trip ticks"),
      wireHist_(&window_, "wireTicks",
                "serialization + propagation ticks per request"),
      netstackHist_(&window_, "netstackTicks",
                    "network stack + copy ticks per request"),
      netstackRxHist_(&window_, "netstackRxTicks",
                      "receive-side stack + copy ticks per request"),
      netstackTxHist_(&window_, "netstackTxTicks",
                      "transmit-side stack + copy ticks per request"),
      nicCacheHist_(&window_, "nicCacheTicks",
                    "on-NIC GET cache ticks per request"),
      hashHist_(&window_, "hashTicks",
                "key hash computation ticks per request"),
      memcachedHist_(&window_, "memcachedTicks",
                     "metadata walk + persistence ticks per request"),
      tracer_(params.tracer),
      rng_(params.seed)
{
    if (shared) {
        dram_ = shared->dram;
        flash_ = shared->flash;
        c2s_ = shared->clientToServer;
        s2c_ = shared->serverToClient;
    }

    if (!c2s_) {
        net::NetParams np = params_.net;
        np.name = params_.name + ".c2s";
        ownedC2s_ = std::make_unique<net::NetworkPath>(
            np, params_.statsParent);
        np.name = params_.name + ".s2c";
        ownedS2c_ = std::make_unique<net::NetworkPath>(
            np, params_.statsParent);
        c2s_ = ownedC2s_.get();
        s2c_ = ownedS2c_.get();
    }

    if (params_.memory == MemoryKind::StackedDram) {
        if (!dram_) {
            mem::DramParams dp = mem::stackedDramParams();
            dp.name = params_.name + ".dram";
            dp.arrayLatency = params_.dramArrayLatency;
            dp.pagePolicy = params_.dramPagePolicy;
            ownedDram_ = std::make_unique<mem::DramModel>(
                dp, params_.statsParent);
            dram_ = ownedDram_.get();
        }
        memory_ = dram_;
        MERCURY_EXPECTS(map_.end() <= dram_->capacityBytes(),
                        "store too large for the DRAM slice");
    } else {
        if (!flash_) {
            mem::FlashParams fp;
            fp.name = params_.name + ".flash";
            fp.readLatency = params_.flashReadLatency;
            fp.programLatency = params_.flashWriteLatency;
            if (params_.flashPageBytes)
                fp.pageBytes = params_.flashPageBytes;
            if (params_.flashCapacity)
                fp.capacity = params_.flashCapacity;
            ownedFlash_ = std::make_unique<mem::FlashController>(
                fp, params_.statsParent);
            flash_ = ownedFlash_.get();
        }

        mem::SimpleMemParams sp;
        sp.name = params_.name + ".sram";
        sp.capacity = 512 * kiB;
        sram_ = std::make_unique<mem::SimpleMemory>(sp);

        router_ = std::make_unique<mem::RegionRouter>(params_.name +
                                                      ".router");
        // Code lives in flash like the rest of the image (which is
        // why Iridium needs the L2, Sec. 4.2.1); only the NIC
        // buffers and scratch are SRAM. With sliceBase != 0 each
        // core's regions land in its own flash channel slice.
        const std::uint64_t flash_offset = params_.sliceBase;
        router_->addRegion(map_.sramRegion(), sram_.get());
        router_->addRegion(map_.coldRegion(), flash_, flash_offset);
        router_->addRegion(map_.codeRegion(), flash_,
                           flash_offset + map_.coldRegion().size);
        memory_ = router_.get();
        MERCURY_EXPECTS(flash_offset + map_.coldRegion().size +
                        map_.codeSize() <= flash_->capacityBytes(),
                        "store too large for the flash slice");

        // The code image and the kernel's socket-state pages are
        // resident in flash from boot: map them so later reads pay
        // real sense latency.
        Tick t = 0;
        for (std::uint64_t line = 0; line < map_.codeSize() / 64;
             ++line) {
            t = router_->access(mem::AccessType::Write,
                                map_.codeRegion().base + line * 64,
                                64, t);
        }
        for (std::uint64_t line = 0; line < map_.sockSize() / 64;
             ++line) {
            t = router_->access(mem::AccessType::Write,
                                map_.sockBase() + line * 64, 64, t);
        }
        cursor_ = flash_->drainChannel(ourChannel(), t);
    }

    mem::HierarchyParams hp =
        cpu::defaultHierarchy(params_.core.type, params_.withL2);
    hp.name = params_.name + ".caches";
    if (params_.l2SizeBytes)
        hp.l2.sizeBytes = params_.l2SizeBytes;
    caches_ = std::make_unique<mem::CacheHierarchy>(
        hp, memory_, params_.statsParent);

    cpu::CoreParams cp = params_.core;
    cp.name = params_.name + ".core";
    core_ = std::make_unique<cpu::CoreModel>(cp, caches_.get(),
                                             params_.statsParent);

    kvstore::StoreParams sp;
    sp.name = params_.name + ".store";
    sp.memLimit = params_.storeMemLimit;
    sp.eviction = params_.eviction;
    sp.locking = params_.locking;
    sp.hashPower = 16;
    store_ = std::make_unique<kvstore::Store>(sp);
    if (params_.statsParent)
        store_->registerStats(params_.statsParent);

    if (params_.datapath.nicCacheEnabled())
        nicCache_ = std::make_unique<net::NicGetCache>(
            params_.datapath, &stats_);
}

unsigned
ServerModel::ourChannel() const
{
    MERCURY_EXPECTS(flash_ != nullptr, "ourChannel needs flash");
    // All of this core's cold traffic lands in the channel holding
    // its slice base.
    return flash_->channelOf(params_.sliceBase %
                             flash_->capacityBytes());
}

void
ServerModel::setFaultInjector(fault::FaultInjector *injector)
{
    c2s_->setFaultInjector(injector);
    s2c_->setFaultInjector(injector);
    if (flash_)
        flash_->setFaultInjector(injector);
}

void
ServerModel::setPacketLoss(double probability)
{
    c2s_->setLossProbability(probability);
    s2c_->setLossProbability(probability);
}

void
ServerModel::setFlashWear(double program_fail_probability)
{
    if (flash_) {
        flash_->setWearRates(program_fail_probability,
                             flash_->params().eraseFailProbability);
    }
}

std::uint64_t
ServerModel::netDrops() const
{
    return c2s_->droppedPackets() + s2c_->droppedPackets();
}

std::uint64_t
ServerModel::netRetransmits() const
{
    return c2s_->retransmittedPackets() +
           s2c_->retransmittedPackets();
}

mem::MemDevice &
ServerModel::dataDevice()
{
    return params_.memory == MemoryKind::StackedDram
               ? static_cast<mem::MemDevice &>(*dram_)
               : static_cast<mem::MemDevice &>(*flash_);
}

std::string
ServerModel::keyFor(std::uint32_t value_bytes, unsigned index) const
{
    return "v" + std::to_string(value_bytes) + ":" +
           std::to_string(index);
}

unsigned
ServerModel::populatedKeys(std::uint32_t value_bytes) const
{
    auto it = populated_.find(value_bytes);
    return it == populated_.end() ? 0 : it->second;
}

unsigned
ServerModel::populate(unsigned num_keys, std::uint32_t value_bytes)
{
    const std::string value(value_bytes, 'v');
    unsigned start = populatedKeys(value_bytes);
    unsigned stored = start;

    for (unsigned i = start; i < start + num_keys; ++i) {
        kvstore::ProbeTrace probe;
        const auto status = store_->setTraced(keyFor(value_bytes, i),
                                              value, 0, 0, probe);
        if (status != kvstore::StoreStatus::Stored)
            break;
        ++stored;

        if (params_.memory == MemoryKind::Flash) {
            // Warm the device functionally so flash pages holding
            // this item (and its bucket line) are mapped.
            const Addr item = map_.mapDataPointer(
                store_->slabs(), probe.itemAddr);
            const std::uint64_t item_bytes = kvstore::Item::totalSize(
                keyFor(value_bytes, i).size(), value_bytes);
            Tick t = cursor_;
            for (std::uint64_t line = 0; line < linesOf(item_bytes);
                 ++line) {
                t = memory_->access(mem::AccessType::Write,
                                    item + line * 64, 64, t);
            }
            t = memory_->access(
                mem::AccessType::Write,
                map_.mapBucketIndex(probe.bucketIndex), 64, t);
            cursor_ = std::max(cursor_, t);
        }
    }

    if (flash_)
        cursor_ = std::max(
            cursor_, flash_->drainChannel(ourChannel(), cursor_));

    populated_[value_bytes] = stored;
    return stored - start;
}

void
ServerModel::recordRequest(const RequestTiming &timing, Tick rx,
                           Tick tx)
{
    rttHist_.record(timing.rtt);
    wireHist_.record(timing.breakdown.wire);
    netstackHist_.record(timing.breakdown.netstack);
    netstackRxHist_.record(rx);
    netstackTxHist_.record(tx);
    nicCacheHist_.record(timing.breakdown.nicCache);
    hashHist_.record(timing.breakdown.hash);
    memcachedHist_.record(timing.breakdown.memcached);
}

Tick
ServerModel::runPhase(const cpu::OpTrace &trace)
{
    if (trace.empty())
        return 0;
    const cpu::RunResult result = core_->run(trace, cursor_);
    MERCURY_ENSURES(result.end >= cursor_,
                    "CPU phase moved the node clock backwards");
    cursor_ = result.end;
    contract::noteTick(cursor_);
    return result.elapsed();
}

Addr
ServerModel::randomSockLine()
{
    const std::uint64_t lines = map_.sockSize() / 64;
    return map_.sockBase() + rng_.nextInt(lines) * 64;
}

Addr
ServerModel::mutableMetaAddr(Addr line)
{
    // On Mercury, mutable metadata (socket state, LRU bookkeeping)
    // is ordinary DRAM. On Iridium it must not be: a dirty line per
    // request would turn into a 200 us flash program in steady
    // state and destroy GET throughput -- the same reason McDipper
    // keeps its index in RAM. We model Iridium's mutable metadata
    // as an SRAM-backed working area (reads of cold state still
    // page in from flash at full sense latency).
    if (params_.memory != MemoryKind::Flash)
        return line;
    return map_.scratchBase() + (line / 64 * 64) %
                                    (map_.scratchSize() / 2);
}

void
ServerModel::buildRxPhase(cpu::OpTrace &trace,
                          std::uint64_t payload_bytes,
                          unsigned packets, net::DatapathKind path)
{
    const Calibration &cal = params_.cal;
    cpu::TraceBuilder b(trace);
    const bool udp = path == net::DatapathKind::KernelUdp;

    if (path == net::DatapathKind::Bypass) {
        // Poll-mode user-level path: no syscalls, no socket state;
        // the request parses straight out of the DMA ring. Doorbell
        // and ring-refill costs are charged per batch and amortized
        // over rxBatch packets (the closed-loop walk serves one
        // request at a time, so the amortized share is charged
        // deterministically instead of sampling queue occupancy).
        const unsigned batch =
            std::max(1u, params_.datapath.rxBatch);
        b.codePass(map_.netstackCode() + 64 * kiB,
                   cal.bypassRequestPathBytes,
                   cal.bypassInstrPerRequest / 2);
        // Descriptor-ring tail update (the bypass path's only
        // mutable shared state; the sock region stands in for the
        // ring memory).
        for (unsigned s = 0; s < cal.bypassRingStoresPerBatch; ++s)
            b.randomStore(mutableMetaAddr(randomSockLine()));
        const std::uint64_t per_packet =
            packets ? payload_bytes / packets : 0;
        for (unsigned p = 0; p < packets; ++p) {
            b.codePass(map_.netstackCode(), cal.bypassRxPathBytes,
                       cal.bypassInstrPerRxPacket +
                           cal.bypassInstrPerRxBatch / batch);
            const std::uint64_t lines = linesOf(per_packet + 64);
            b.streamRead(map_.bufferAddr(p * 2048),
                         (per_packet + 64));
            b.compute(lines * cal.copyInstrPerLine);
        }
        return;
    }

    // Socket-layer fixed path (half charged on receive). The UDP
    // path skips connection management and ACK bookkeeping.
    b.codePass(map_.netstackCode() + 64 * kiB,
               cal.netstackRequestPathBytes,
               (udp ? cal.udpInstrPerRequest
                    : cal.netstackInstrPerRequest) / 2);

    // Connection/socket state touched on the receive path.
    const unsigned loads =
        udp ? cal.udpSockStateLoads : cal.sockStateLoadsRx;
    const unsigned stores =
        udp ? cal.udpSockStateStores : cal.sockStateStoresRx;
    for (unsigned i = 0; i < loads; ++i)
        b.chaseLoad(randomSockLine());
    for (unsigned i = 0; i < stores; ++i)
        b.randomStore(mutableMetaAddr(randomSockLine()));

    const std::uint64_t per_packet =
        packets ? payload_bytes / packets : 0;
    for (unsigned p = 0; p < packets; ++p) {
        b.codePass(map_.netstackCode(),
                   udp ? cal.udpRxPathBytes
                       : cal.netstackRxPathBytes,
                   udp ? cal.udpInstrPerRxPacket
                       : cal.netstackInstrPerRxPacket);
        // The NIC has DMAed the packet into the buffer ring; the
        // stack reads it (header inspection + copy to socket).
        const std::uint64_t lines = linesOf(per_packet + 64);
        b.streamRead(map_.bufferAddr(p * 2048), (per_packet + 64));
        b.compute(lines * cal.copyInstrPerLine);
    }
}

void
ServerModel::buildTxCodePhase(cpu::OpTrace &trace, unsigned packets,
                              net::DatapathKind path)
{
    const Calibration &cal = params_.cal;
    cpu::TraceBuilder b(trace);
    const bool udp = path == net::DatapathKind::KernelUdp;

    if (path == net::DatapathKind::Bypass) {
        const unsigned batch =
            std::max(1u, params_.datapath.txBatch);
        b.codePass(map_.netstackCode() + 64 * kiB,
                   cal.bypassRequestPathBytes,
                   cal.bypassInstrPerRequest / 2);
        for (unsigned s = 0; s < cal.bypassRingStoresPerBatch; ++s)
            b.randomStore(mutableMetaAddr(randomSockLine()));
        for (unsigned p = 0; p < packets; ++p) {
            b.codePass(map_.netstackCode() + 32 * kiB,
                       cal.bypassTxPathBytes,
                       cal.bypassInstrPerTxPacket +
                           cal.bypassInstrPerTxBatch / batch);
        }
        return;
    }

    b.codePass(map_.netstackCode() + 64 * kiB,
               cal.netstackRequestPathBytes,
               (udp ? cal.udpInstrPerRequest
                    : cal.netstackInstrPerRequest) / 2);
    const unsigned loads =
        udp ? cal.udpSockStateLoads : cal.sockStateLoadsTx;
    const unsigned stores =
        udp ? cal.udpSockStateStores : cal.sockStateStoresTx;
    for (unsigned i = 0; i < loads; ++i)
        b.chaseLoad(randomSockLine());
    for (unsigned i = 0; i < stores; ++i)
        b.randomStore(mutableMetaAddr(randomSockLine()));
    for (unsigned p = 0; p < packets; ++p) {
        b.codePass(map_.netstackCode() + 32 * kiB,
                   udp ? cal.udpTxPathBytes
                       : cal.netstackTxPathBytes,
                   udp ? cal.udpInstrPerTxPacket
                       : cal.netstackInstrPerTxPacket);
    }
}

void
ServerModel::buildHashPhase(cpu::OpTrace &trace,
                            std::size_t key_len) const
{
    const Calibration &cal = params_.cal;
    cpu::TraceBuilder b(trace);
    b.codePass(map_.hashCode(), cal.hashCodeBytes,
               cal.hashInstrBase + cal.hashInstrPerKeyByte * key_len);
}

void
ServerModel::buildLookupPhase(cpu::OpTrace &trace,
                              const kvstore::ProbeTrace &probe,
                              bool is_put)
{
    const Calibration &cal = params_.cal;
    cpu::TraceBuilder b(trace);

    const std::uint64_t chain = probe.chainItems.size();
    b.codePass(map_.memcachedCode(),
               is_put ? cal.memcachedPutPathBytes
                      : cal.memcachedGetPathBytes,
               (is_put ? cal.memcachedInstrPut
                       : cal.memcachedInstrGet) +
                   cal.memcachedInstrPerChainNode * chain);

    // Bucket head, then the dependent chain walk.
    b.chaseLoad(map_.mapBucketIndex(probe.bucketIndex));
    for (const void *ptr : probe.chainItems)
        b.chaseLoad(map_.mapDataPointer(store_->slabs(), ptr));

    if (probe.itemAddr) {
        const Addr item =
            map_.mapDataPointer(store_->slabs(), probe.itemAddr);
        // LRU/bookkeeping dirties the item header and its list
        // neighbour (approximated by the previously touched item).
        // Mercury dirties the item headers in DRAM; Iridium's
        // mutable index lives in the SRAM working area (see
        // mutableMetaAddr) except on PUTs, where the new header is
        // genuinely written in place and persisted below.
        b.randomStore(is_put ? item : mutableMetaAddr(item));
        if (lastHotItem_ && lastHotItem_ != item)
            b.randomStore(mutableMetaAddr(lastHotItem_));
        lastHotItem_ = item;
    }

    for (const void *ptr : probe.evictedItems) {
        const Addr victim =
            map_.mapDataPointer(store_->slabs(), ptr);
        b.chaseLoad(victim);
        b.randomStore(mutableMetaAddr(victim));
    }

    if (is_put) {
        // Slab free-list and bucket-link updates.
        b.randomStore(map_.scratchBase() + 4096);
        b.randomStore(map_.mapBucketIndex(probe.bucketIndex));
    }
}

void
ServerModel::buildValueCopy(cpu::OpTrace &trace, Addr value_addr,
                            std::uint64_t bytes, bool to_store)
{
    if (bytes == 0)
        return;
    const Calibration &cal = params_.cal;
    cpu::TraceBuilder b(trace);

    // The buffer side wraps around the (small) ring; the value side
    // is a contiguous stream through the item.
    const std::uint64_t lines = linesOf(bytes);
    if (to_store) {
        for (std::uint64_t i = 0; i < lines; ++i) {
            trace.push_back(cpu::Op::load(
                map_.bufferAddr(bufferCursor_ + i * 64),
                cpu::Stream::Sequential));
            trace.push_back(cpu::Op::store(value_addr + i * 64,
                                           cpu::Stream::Sequential));
        }
    } else {
        for (std::uint64_t i = 0; i < lines; ++i) {
            trace.push_back(cpu::Op::load(value_addr + i * 64,
                                          cpu::Stream::Sequential));
            trace.push_back(cpu::Op::store(
                map_.bufferAddr(bufferCursor_ + i * 64),
                cpu::Stream::Sequential));
        }
    }
    bufferCursor_ += bytes;
    b.compute(lines * cal.copyInstrPerLine);
}

RequestTiming
ServerModel::get(const std::string &key)
{
    const Calibration &cal = params_.cal;
    const net::DatapathKind path = params_.datapath.kind;
    const Tick t0 = cursor_;

    std::uint32_t traceReq = 0;
    if (MERCURY_TRACING && tracer_)
        traceReq = tracer_->beginRequest();

    const std::uint64_t req_payload =
        key.size() + cal.getRequestOverheadBytes;
    const auto arrival =
        path == net::DatapathKind::Bypass
            ? c2s_->deliverDatagrams(
                  req_payload, t0,
                  static_cast<unsigned>(
                      kvstore::udpDatagramCount(req_payload)))
            : c2s_->deliver(req_payload, t0);
    cursor_ = arrival.completion;
    MERCURY_TRACE_SPAN(tracer_, traceReq, trace::Stage::NicIn, t0,
                       arrival.completion, req_payload);

    PhaseTimes pt;

    // On-NIC GET cache: the lookup engine sits between the MAC and
    // the DMA engine. A hit answers at wire latency without waking
    // the core; a miss pays the lookup and forwards to the host.
    if (nicCache_) {
        const Tick begin = cursor_;
        const auto cached = nicCache_->lookup(key);
        pt.nicCache = params_.datapath.nicCacheLookupLatency;
        cursor_ += pt.nicCache;
        contract::noteTick(cursor_);
        MERCURY_TRACE_SPAN(tracer_, traceReq, trace::Stage::NicCache,
                           begin, cursor_, cached ? 1 : 0);
        if (cached) {
            const std::uint64_t resp_payload =
                cached->size() + cal.getResponseOverheadBytes;
            const auto response = s2c_->deliverDatagrams(
                resp_payload, cursor_,
                static_cast<unsigned>(
                    kvstore::udpDatagramCount(resp_payload)));
            const Tick wire = (arrival.completion - t0) +
                              (response.completion - cursor_);
            MERCURY_TRACE_SPAN(tracer_, traceReq,
                               trace::Stage::NicOut, cursor_,
                               response.completion, resp_payload);
            cursor_ = response.completion;
            MERCURY_TRACE_SPAN(tracer_, traceReq,
                               trace::Stage::Request, t0, cursor_, 1);

            RequestTiming timing;
            timing.rtt = response.completion - t0;
            timing.breakdown = {wire, 0, 0, 0, pt.nicCache};
            timing.hit = true;

            ++gets_;
            ++getHits_;
            bytesIn_ += req_payload;
            bytesOut_ += resp_payload;
            recordRequest(timing, 0, 0);
            return timing;
        }
    }

    {
        Tick begin = cursor_;
        cpu::OpTrace trace;
        buildRxPhase(trace, req_payload, arrival.packets, path);
        pt.rx += runPhase(trace);
        MERCURY_TRACE_SPAN(tracer_, traceReq, trace::Stage::Netstack,
                           begin, cursor_, arrival.packets);
    }
    {
        Tick begin = cursor_;
        cpu::OpTrace trace;
        buildHashPhase(trace, key.size());
        pt.hash += runPhase(trace);
        MERCURY_TRACE_SPAN(tracer_, traceReq, trace::Stage::Hash,
                           begin, cursor_, key.size());
    }

    kvstore::ProbeTrace probe;
    const kvstore::GetResult result = store_->getTraced(key, probe);
    {
        Tick begin = cursor_;
        cpu::OpTrace trace;
        buildLookupPhase(trace, probe, false);
        pt.memcached += runPhase(trace);
        MERCURY_TRACE_SPAN(tracer_, traceReq, trace::Stage::StoreWalk,
                           begin, cursor_, probe.chainItems.size());
    }

    // The NIC cache observes the response DMA and keeps a copy of
    // hot values (zero CPU cost; the fill engine runs beside the
    // DMA engine). SETs invalidate, so a cached value can never
    // diverge from the store's copy.
    if (nicCache_ && result.hit)
        nicCache_->fill(key, result.value);

    const std::uint64_t resp_payload =
        result.hit ? probe.valueLen + cal.getResponseOverheadBytes
                   : 5;  // "END\r\n"
    {
        Tick begin = cursor_;
        cpu::OpTrace trace;
        const unsigned packets =
            path == net::DatapathKind::Bypass
                ? static_cast<unsigned>(
                      kvstore::udpDatagramCount(resp_payload))
                : s2c_->segmenter().numSegments(resp_payload);
        buildTxCodePhase(trace, packets, path);
        if (result.hit && probe.itemAddr) {
            const Addr value_addr =
                map_.mapDataPointer(store_->slabs(), probe.itemAddr) +
                sizeof(kvstore::Item) + key.size();
            buildValueCopy(trace, value_addr, probe.valueLen, false);
        }
        pt.tx += runPhase(trace);
        MERCURY_TRACE_SPAN(tracer_, traceReq, trace::Stage::Netstack,
                           begin, cursor_, resp_payload);
    }

    const auto response =
        path == net::DatapathKind::Bypass
            ? s2c_->deliverDatagrams(
                  resp_payload, cursor_,
                  static_cast<unsigned>(
                      kvstore::udpDatagramCount(resp_payload)))
            : s2c_->deliver(resp_payload, cursor_);
    const Tick wire = (arrival.completion - t0) +
                      (response.completion - cursor_);
    MERCURY_TRACE_SPAN(tracer_, traceReq, trace::Stage::NicOut,
                       cursor_, response.completion, resp_payload);
    cursor_ = response.completion;
    MERCURY_TRACE_SPAN(tracer_, traceReq, trace::Stage::Request, t0,
                       cursor_, result.hit ? 1 : 0);

    RequestTiming timing;
    timing.rtt = response.completion - t0;
    timing.breakdown = {wire, pt.netstack(), pt.hash, pt.memcached,
                        pt.nicCache};
    timing.hit = result.hit;

    ++gets_;
    if (result.hit)
        ++getHits_;
    else
        ++getMisses_;
    bytesIn_ += req_payload;
    bytesOut_ += resp_payload;
    recordRequest(timing, pt.rx, pt.tx);
    return timing;
}

RequestTiming
ServerModel::put(const std::string &key, std::uint32_t value_bytes)
{
    const Calibration &cal = params_.cal;
    // PUTs keep TCP framing on the wire (reliable transport), and
    // the kernel path stays TCP even when GETs ride UDP; in bypass
    // mode the CPU walks the user-level stack (mTCP-style) instead.
    const net::DatapathKind path = params_.datapath.bypass()
                                       ? net::DatapathKind::Bypass
                                       : net::DatapathKind::KernelTcp;
    const Tick t0 = cursor_;

    std::uint32_t traceReq = 0;
    if (MERCURY_TRACING && tracer_)
        traceReq = tracer_->beginRequest();

    const std::uint64_t req_payload =
        key.size() + value_bytes + cal.putRequestOverheadBytes;
    const auto arrival = c2s_->deliver(req_payload, t0);
    cursor_ = arrival.completion;
    MERCURY_TRACE_SPAN(tracer_, traceReq, trace::Stage::NicIn, t0,
                       arrival.completion, req_payload);

    PhaseTimes pt;
    {
        Tick begin = cursor_;
        cpu::OpTrace trace;
        buildRxPhase(trace, req_payload, arrival.packets, path);
        pt.rx += runPhase(trace);
        MERCURY_TRACE_SPAN(tracer_, traceReq, trace::Stage::Netstack,
                           begin, cursor_, arrival.packets);
    }
    {
        Tick begin = cursor_;
        cpu::OpTrace trace;
        buildHashPhase(trace, key.size());
        pt.hash += runPhase(trace);
        MERCURY_TRACE_SPAN(tracer_, traceReq, trace::Stage::Hash,
                           begin, cursor_, key.size());
    }

    kvstore::ProbeTrace probe;
    const std::string value(value_bytes, 'p');
    const auto status = store_->setTraced(key, value, 0, 0, probe);
    // The NIC cache snoops SETs and drops its copy (LaKe's
    // invalidate-on-write); the invalidation engine costs no CPU
    // time.
    if (nicCache_)
        nicCache_->invalidate(key);
    {
        Tick begin = cursor_;
        cpu::OpTrace trace;
        buildLookupPhase(trace, probe, true);
        pt.memcached += runPhase(trace);
        MERCURY_TRACE_SPAN(tracer_, traceReq, trace::Stage::StoreWalk,
                           begin, cursor_, probe.chainItems.size());
    }

    // Copy the inbound value from the socket buffers into the item
    // (data-transfer time, charged to the network stack per Fig. 4).
    if (status == kvstore::StoreStatus::Stored && probe.itemAddr) {
        cpu::OpTrace trace;
        const Addr value_addr =
            map_.mapDataPointer(store_->slabs(), probe.itemAddr) +
            sizeof(kvstore::Item) + key.size();
        buildValueCopy(trace, value_addr, value_bytes, true);
        pt.rx += runPhase(trace);
    }

    // On Iridium the stored item must actually be programmed into
    // flash before the server acknowledges: the paper keeps write
    // latency at 200 us and PUT throughput is bound by it (Fig. 6).
    if (params_.memory == MemoryKind::Flash &&
        status == kvstore::StoreStatus::Stored && probe.itemAddr) {
        const Tick memBegin = cursor_;
        const Addr item =
            map_.mapDataPointer(store_->slabs(), probe.itemAddr);
        const std::uint64_t item_bytes =
            kvstore::Item::totalSize(key.size(), value_bytes);
        Tick t = cursor_;
        for (std::uint64_t line = 0; line < linesOf(item_bytes);
             ++line) {
            t = memory_->access(mem::AccessType::Write,
                                item + line * 64, 64, t);
        }
        t = memory_->access(mem::AccessType::Write,
                            map_.mapBucketIndex(probe.bucketIndex),
                            64, t);
        // Unlink of the replaced/evicted items must also persist.
        for (const void *ptr : probe.evictedItems) {
            t = memory_->access(
                mem::AccessType::Write,
                map_.mapDataPointer(store_->slabs(), ptr), 64, t);
        }
        t = flash_->drainChannel(ourChannel(), t);
        pt.memcached += t - cursor_;
        cursor_ = t;
        MERCURY_TRACE_SPAN(tracer_, traceReq, trace::Stage::Memory,
                           memBegin, cursor_, item_bytes);
    }

    const std::uint64_t resp_payload = cal.putResponseBytes;
    {
        Tick begin = cursor_;
        cpu::OpTrace trace;
        buildTxCodePhase(trace, 1, path);
        pt.tx += runPhase(trace);
        MERCURY_TRACE_SPAN(tracer_, traceReq, trace::Stage::Netstack,
                           begin, cursor_, resp_payload);
    }

    const auto response = s2c_->deliver(resp_payload,
                                                  cursor_);
    const Tick wire = (arrival.completion - t0) +
                      (response.completion - cursor_);
    MERCURY_TRACE_SPAN(tracer_, traceReq, trace::Stage::NicOut,
                       cursor_, response.completion, resp_payload);
    cursor_ = response.completion;
    MERCURY_TRACE_SPAN(tracer_, traceReq, trace::Stage::Request, t0,
                       cursor_,
                       status == kvstore::StoreStatus::Stored ? 1 : 0);

    RequestTiming timing;
    timing.rtt = response.completion - t0;
    timing.breakdown = {wire, pt.netstack(), pt.hash, pt.memcached,
                        pt.nicCache};
    timing.hit = status == kvstore::StoreStatus::Stored;

    ++puts_;
    bytesIn_ += req_payload;
    bytesOut_ += resp_payload;
    recordRequest(timing, pt.rx, pt.tx);
    return timing;
}

Measurement
ServerModel::measure(bool puts, std::uint32_t value_bytes,
                     unsigned samples, unsigned warmup)
{
    // Memcached's item ceiling is one slab page (1 MiB) including
    // the header and key; a nominal "1 MB" request therefore stores
    // the largest value that fits, exactly as real clients must.
    const auto max_value = static_cast<std::uint32_t>(
        store_->slabs().params().pageSize - 512);
    value_bytes = std::min(value_bytes, max_value);

    // Working set comfortably larger than the L2 so steady-state
    // accesses are cold, as the paper's closed-page worst case
    // assumes.
    const std::uint64_t target_bytes = 8 * miB;
    const unsigned want = static_cast<unsigned>(std::clamp<
        std::uint64_t>(target_bytes / std::max<std::uint32_t>(
                           value_bytes, 256),
                       16, 20000));
    const unsigned have = populatedKeys(value_bytes);
    if (have < want)
        populate(want - have, value_bytes);
    const unsigned keys = populatedKeys(value_bytes);
    MERCURY_ASSERT(keys > 0, "populate stored nothing");

    // Quiesce between measurement runs: a real server gets idle
    // gaps in which dirty write-back state drains; without this,
    // dirty lines left by a previous (PUT) experiment flush into
    // the middle of this one and distort it.
    caches_->flushAll();
    if (flash_)
        cursor_ = std::max(
            cursor_, flash_->drainChannel(ourChannel(), cursor_));

    std::vector<Tick> rtts;
    rtts.reserve(samples);
    std::uint64_t payload_total = 0;
    Tick span_begin = 0;

    for (unsigned i = 0; i < warmup + samples; ++i) {
        const std::string key =
            keyFor(value_bytes, static_cast<unsigned>(
                                    rng_.nextInt(keys)));
        if (i == warmup) {
            span_begin = cursor_;
            // From here the window histograms hold exactly the
            // sampled requests; the breakdown below is a registry
            // query over them rather than bespoke accumulation.
            window_.resetStats();
        }
        const RequestTiming timing =
            puts ? put(key, value_bytes) : get(key);
        if (i < warmup)
            continue;
        rtts.push_back(timing.rtt);
        payload_total += value_bytes;
    }

    MERCURY_ASSERT(rttHist_.count() == samples,
                   "measurement window lost requests");

    Measurement m;
    const Tick span = cursor_ - span_begin;
    m.avgTps = static_cast<double>(samples) / ticksToSeconds(span);
    const double n = static_cast<double>(samples);
    m.avgRttUs = ticksToUs(span) / n;
    m.avgBreakdown = {
        static_cast<Tick>(wireHist_.totalSum() / samples),
        static_cast<Tick>(netstackHist_.totalSum() / samples),
        static_cast<Tick>(hashHist_.totalSum() / samples),
        static_cast<Tick>(memcachedHist_.totalSum() / samples),
        static_cast<Tick>(nicCacheHist_.totalSum() / samples)};
    std::sort(rtts.begin(), rtts.end());
    m.p99RttUs = ticksToUs(rtts[static_cast<std::size_t>(
        0.99 * (rtts.size() - 1))]);
    std::size_t sub_ms = 0;
    for (const Tick rtt : rtts) {
        if (rtt < tickMs)
            ++sub_ms;
    }
    m.subMsFraction = static_cast<double>(sub_ms) /
                      static_cast<double>(rtts.size());
    m.goodput = static_cast<double>(payload_total) /
                ticksToSeconds(span);
    return m;
}

Measurement
ServerModel::measureGets(std::uint32_t value_bytes, unsigned samples,
                         unsigned warmup)
{
    return measure(false, value_bytes, samples, warmup);
}

Measurement
ServerModel::measurePuts(std::uint32_t value_bytes, unsigned samples,
                         unsigned warmup)
{
    return measure(true, value_bytes, samples, warmup);
}

} // namespace mercury::server
