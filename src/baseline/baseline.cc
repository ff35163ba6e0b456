#include "baseline/baseline.hh"

#include "sim/contract.hh"

namespace mercury::baseline
{

namespace
{

/** Published Table 4 rows: deployment size and throughput. */
struct PublishedRow
{
    const char *name;
    unsigned cores;
    double memoryGB;
    double mtps;
};

PublishedRow
publishedFor(MemcachedVersion version)
{
    switch (version) {
      case MemcachedVersion::V14:
        return {"Memcached 1.4", 6, 12.0, 0.41};
      case MemcachedVersion::V16:
        return {"Memcached 1.6", 4, 128.0, 0.52};
      case MemcachedVersion::Bags:
        return {"Memcached Bags", 16, 128.0, 3.15};
    }
    MERCURY_UNREACHABLE("unknown memcached version");
}

} // anonymous namespace

double
xeonServerPowerW(unsigned cores, double memory_gb)
{
    // Fit to the paper's three baseline rows (143/159/285 W):
    // platform base, per-active-core, and per-GB DIMM draw.
    return 76.2 + 10.5 * cores + 0.319 * memory_gb;
}

BaselineServer
memcachedBaseline(MemcachedVersion version)
{
    const PublishedRow row = publishedFor(version);
    BaselineServer server;
    server.name = row.name;
    server.cores = row.cores;
    server.memoryGB = row.memoryGB;
    server.powerW = xeonServerPowerW(row.cores, row.memoryGB);
    server.tps = row.mtps * 1e6;
    server.bwGBs = server.tps * 64.0 / 1e9;
    return server;
}

BaselineServer
tsspReference()
{
    BaselineServer server;
    server.name = "TSSP";
    server.cores = 1;
    server.memoryGB = 8.0;
    server.powerW = 16.0;
    server.tps = 0.28e6;
    server.bwGBs = 0.04;
    return server;
}

} // namespace mercury::baseline
