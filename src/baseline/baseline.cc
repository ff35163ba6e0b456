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

ScalingParams
scalingFor(MemcachedVersion version)
{
    // Sigma reflects the locking design: 1.4 serializes on the
    // global cache lock for every operation (strict LRU reorders on
    // GETs); 1.6 stripes the hash locks but keeps an LRU lock; Bags
    // removes list updates from the GET path entirely.
    double sigma, kappa;
    switch (version) {
      case MemcachedVersion::V14:
        sigma = 0.25;
        kappa = 0.003;
        break;
      case MemcachedVersion::V16:
        sigma = 0.10;
        kappa = 0.002;
        break;
      case MemcachedVersion::Bags:
        sigma = 0.015;
        kappa = 0.0002;
        break;
      default:
        MERCURY_UNREACHABLE("unknown memcached version");
    }

    // Derive the single-thread ceiling so the published deployment
    // reproduces exactly under the USL curve.
    const PublishedRow row = publishedFor(version);
    const double n = row.cores;
    const double denom = 1.0 + sigma * (n - 1.0) +
                         kappa * n * (n - 1.0);
    const double per_core = row.mtps * 1e6 * denom / n;
    return {sigma, kappa, per_core};
}

double
scaledTps(const ScalingParams &params, unsigned threads)
{
    MERCURY_EXPECTS(threads >= 1, "need at least one thread");
    const double n = threads;
    const double denom = 1.0 + params.sigma * (n - 1.0) +
                         params.kappa * n * (n - 1.0);
    return params.perCoreTps * n / denom;
}

double
xeonServerPowerW(unsigned cores, double memory_gb)
{
    // Fit to the paper's three baseline rows (143/159/285 W):
    // platform base, per-active-core, and per-GB DIMM draw.
    return 76.2 + 10.5 * cores + 0.319 * memory_gb;
}

BaselineServer
memcachedBaseline(MemcachedVersion version, unsigned cores,
                  double memory_gb)
{
    const PublishedRow row = publishedFor(version);
    BaselineServer server;
    server.name = row.name;
    server.cores = cores;
    server.memoryGB = memory_gb;
    server.powerW = xeonServerPowerW(cores, memory_gb);
    server.tps = scaledTps(scalingFor(version), cores);
    server.bwGBs = server.tps * 64.0 / 1e9;
    return server;
}

BaselineServer
memcachedBaseline(MemcachedVersion version)
{
    const PublishedRow row = publishedFor(version);
    return memcachedBaseline(version, row.cores, row.memoryGB);
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
