/**
 * @file
 * Ablation: DRAM port sharing. Sec. 4.1.2 allocates each core one
 * or more of the 16 stack ports; past 16 cores, two cores share a
 * port, which Sec. 5.3 argues is fine because Memcached scales to
 * two threads. This experiment drives k concurrent line streams at
 * a single port (vs spread over k ports) and measures the effective
 * bandwidth each stream sees.
 *
 * Knob moved: none of the model's; the bench moves where k
 * streams land on one `stackedDramParams()` device (one port vs one
 * port each).
 */

#include <cstdio>

#include "bench_util.hh"
#include "mem/dram.hh"

namespace
{

using namespace mercury;
using namespace mercury::mem;

/** Aggregate bandwidth of k interleaved streams. */
double
streamBandwidth(unsigned streams, bool share_one_port)
{
    DramModel dram(stackedDramParams());
    const std::uint64_t port_size =
        dram.capacityBytes() / dram.params().numPorts;

    const unsigned lines = 4096;
    std::vector<Tick> cursor(streams, 0);
    std::vector<Addr> base(streams);
    for (unsigned s = 0; s < streams; ++s)
        base[s] = share_one_port ? (s * 32 * miB) : (s * port_size);

    Tick done = 0;
    for (unsigned i = 0; i < lines; ++i) {
        for (unsigned s = 0; s < streams; ++s) {
            cursor[s] = dram.access(AccessType::Read,
                                    base[s] + i * 64, 64, cursor[s]);
            done = std::max(done, cursor[s]);
        }
    }
    const double bytes = static_cast<double>(streams) * lines * 64;
    return bytes / ticksToSeconds(done);
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    mercury::bench::Session session(argc, argv, "ablation_port_sharing");
    bench::banner("Ablation: cores sharing one DRAM port vs "
                  "spreading across ports");

    std::printf("%-8s %18s %18s %12s\n", "Streams",
                "shared GB/s", "spread GB/s", "penalty");
    bench::rule(60);
    for (unsigned streams : {1u, 2u, 4u, 8u}) {
        const double shared = streamBandwidth(streams, true) / 1e9;
        const double spread = streamBandwidth(streams, false) / 1e9;
        std::printf("%-8u %18.2f %18.2f %11.2fx\n", streams, shared,
                    spread, spread / shared);
    }
    std::printf("\nTwo streams on one port stay within the 6.25 "
                "GB/s pin limit with bank parallelism hiding the "
                "array time -- the paper's 2-cores-per-port "
                "assumption. Beyond that the port pins throttle.\n");
    return 0;
}
