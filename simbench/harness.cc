#include "harness.hh"

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <thread>

namespace simbench
{

void
Digest::mix(double value)
{
    mix(std::bit_cast<std::uint64_t>(value));
}

double
calibrateTimerNs()
{
    constexpr int rounds = 31;
    constexpr int pairs = 2000;
    std::vector<double> per_pair;
    per_pair.reserve(rounds);
    std::uint64_t sink = 0;
    for (int r = 0; r < rounds; ++r) {
        const std::uint64_t start = nowNs();
        for (int i = 0; i < pairs; ++i) {
            const std::uint64_t t0 = nowNs();
            sink += nowNs() - t0;
        }
        per_pair.push_back(static_cast<double>(nowNs() - start) /
                           pairs);
    }
    // Keep the inner reads observable.
    if (sink == ~std::uint64_t{0})
        std::fputs("", stderr);
    return median(per_pair);
}

SpeedProbe::SpeedProbe() : ways_(sets * assoc), evict_(std::size_t{1} << 19)
{}

double
SpeedProbe::slowdown()
{
    for (std::size_t i = 0; i < evict_.size(); i += 8)
        evict_[i] += i;
    hits_ += evict_[hits_ % evict_.size()] & 1;

    // The same xorshift address stream every time, so every probe
    // does identical work once the tag array has settled.
    std::uint64_t x = 0x2545f4914f6cdd1dull;
    const std::uint64_t t0 = nowNs();
    for (unsigned i = 0; i < iterations; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        const std::uint64_t line = (x & 0xfffff) >> 6;
        const std::uint64_t tag = line / sets + 1;
        Way *set = &ways_[(line % sets) * assoc];
        Way *victim = set;
        bool hit = false;
        for (unsigned w = 0; w < assoc; ++w) {
            if (set[w].tag == tag) {
                set[w].stamp = ++stamp_;
                hit = true;
                break;
            }
            if (set[w].stamp < victim->stamp)
                victim = &set[w];
        }
        if (hit) {
            ++hits_;
        } else {
            victim->tag = tag;
            victim->stamp = ++stamp_;
        }
    }
    const double ns = static_cast<double>(nowNs() - t0);
    return ns / (iterations * nominalNsPerIteration);
}

StatSnapshot::StatSnapshot(const mercury::stats::Registry &registry)
{
    std::string json;
    registry.writeJson(json);
    // The registry writes one flat object of "dotted.path": number.
    std::size_t pos = 0;
    while ((pos = json.find('"', pos)) != std::string::npos) {
        const std::size_t key_end = json.find('"', pos + 1);
        if (key_end == std::string::npos)
            break;
        std::string key = json.substr(pos + 1, key_end - pos - 1);
        std::size_t value_pos = key_end + 1;
        while (value_pos < json.size() &&
               (json[value_pos] == ':' || json[value_pos] == ' '))
            ++value_pos;
        char *parse_end = nullptr;
        const double value =
            std::strtod(json.c_str() + value_pos, &parse_end);
        if (parse_end != json.c_str() + value_pos)
            values_[std::move(key)] = value;
        pos = parse_end ? static_cast<std::size_t>(parse_end -
                                                   json.c_str())
                        : value_pos;
        if (pos <= key_end)
            pos = key_end + 1;
    }
}

double
StatSnapshot::sum(const std::string &suffix) const
{
    double total = 0.0;
    for (const auto &[key, value] : values_) {
        if (key.size() >= suffix.size() &&
            key.compare(key.size() - suffix.size(), suffix.size(),
                        suffix) == 0)
            total += value;
    }
    return total;
}

double
StatWindow::delta(const std::string &suffix) const
{
    return end.sum(suffix) - begin.sum(suffix);
}

double
StatWindow::perRequest(const std::string &suffix) const
{
    return requests ? delta(suffix) / static_cast<double>(requests)
                    : 0.0;
}

double
StatWindow::missRate(const std::string &hits,
                     const std::string &misses) const
{
    const double miss = delta(misses);
    const double total = delta(hits) + miss;
    return total > 0.0 ? miss / total : 0.0;
}

void
addCoreAndCacheMetrics(Result &result, const StatWindow &w)
{
    result.add("cpu.instructions_per_req",
               w.perRequest(".core.instructions"), "count");
    result.add("cpu.mem_ops_per_req", w.perRequest(".core.memOps"),
               "count");
    const double stall = w.delta(".core.stallTicks");
    const double busy = w.delta(".core.computeTicks") + stall;
    result.add("cpu.stall_frac", busy > 0.0 ? stall / busy : 0.0,
               "frac");
    result.add("mem.l1i_miss_rate",
               w.missRate(".caches.l1iHits", ".caches.l1iMisses"),
               "frac");
    result.add("mem.l1d_miss_rate",
               w.missRate(".caches.l1dHits", ".caches.l1dMisses"),
               "frac");
    result.add("mem.l2_miss_rate",
               w.missRate(".caches.l2Hits", ".caches.l2Misses"),
               "frac");
    result.add("mem.fills_per_req",
               w.perRequest(".caches.l1iMisses") +
                   w.perRequest(".caches.l1dMisses") +
                   w.perRequest(".caches.l2Misses"),
               "count");
    result.add("mem.dram.calls_per_req",
               w.perRequest(".dram.reads") +
                   w.perRequest(".dram.writes"),
               "count");
    const double row_hits = w.delta(".dram.rowHits");
    const double rows = row_hits + w.delta(".dram.rowMisses");
    result.add("mem.dram.row_hit_rate",
               rows > 0.0 ? row_hits / rows : 0.0, "frac");
    result.add("mem.flash.calls_per_req",
               w.perRequest(".flash.lineReads") +
                   w.perRequest(".flash.lineWrites"),
               "count");
}

KvReplay::KvReplay(const mercury::kvstore::StoreParams &params,
                   const std::vector<std::string> &keys,
                   std::uint32_t value_bytes)
    : store_(params), keys_(keys), valueBytes_(value_bytes),
      setValue_(value_bytes, 'p')
{
    const std::string value(value_bytes, 'v');
    for (const std::string &key : keys_)
        store_.set(key, value);
}

void
KvReplay::replay(const std::vector<mercury::workload::Request> &batch,
                 double timer_ns)
{
    using mercury::workload::Request;
    std::size_t i = 0;
    while (i < batch.size()) {
        const bool gets = batch[i].op == Request::Op::Get;
        std::size_t end = i;
        std::uint64_t ok = 0;
        const std::uint64_t t0 = nowNs();
        for (; end < batch.size() &&
               (batch[end].op == Request::Op::Get) == gets;
             ++end) {
            const std::string &key = keys_[batch[end].keyId];
            mercury::kvstore::ProbeTrace probe;
            if (gets) {
                const auto r = store_.getTraced(key, probe);
                ok += r.hit && r.value.size() == valueBytes_;
            } else {
                ok += store_.setTraced(key, setValue_, 0, 0, probe) ==
                      mercury::kvstore::StoreStatus::Stored;
            }
        }
        const double ns = static_cast<double>(nowNs() - t0) - timer_ns;
        (gets ? get_ : set_).add(ns, end - i);
        if (gets)
            hits_ += ok;
        failed += (end - i) - ok;
        i = end;
    }
}

void
KvReplay::addMetrics(Result &result, double slowdown) const
{
    result.add("kvstore.get_ns", get_.mean() / slowdown, "ns");
    result.add("kvstore.set_ns", set_.mean() / slowdown, "ns");
    result.add("kvstore.hit_rate",
               get_.count ? static_cast<double>(hits_) /
                                static_cast<double>(get_.count)
                          : 0.0,
               "frac");
}

double
KvReplay::nsPerOp() const
{
    const std::uint64_t ops = get_.count + set_.count;
    return ops ? (get_.ns + set_.ns) / static_cast<double>(ops) : 0.0;
}

std::uint64_t
KvReplay::evictions() const
{
    return store_.counters().evictions.load();
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    const std::size_t mid = values.size() / 2;
    std::nth_element(values.begin(), values.begin() + mid, values.end());
    const double upper = values[mid];
    if (values.size() % 2)
        return upper;
    const double lower =
        *std::max_element(values.begin(), values.begin() + mid);
    return (lower + upper) / 2.0;
}

double
quantile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    const auto rank = static_cast<std::size_t>(
        std::ceil(p * static_cast<double>(values.size())));
    const std::size_t index =
        std::min(std::max<std::size_t>(rank, 1), values.size()) - 1;
    std::nth_element(values.begin(), values.begin() + index,
                     values.end());
    return values[index];
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB
}

namespace
{

std::string
number(double value)
{
    if (!std::isfinite(value))
        value = 0.0;
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
}

} // anonymous namespace

void
report(const Options &options, const Result &result)
{
    std::printf("simbench workload=%s seed=%llu seconds=%g trace=%d\n",
                options.workload.c_str(),
                static_cast<unsigned long long>(options.seed),
                options.seconds, options.trace ? 1 : 0);
    std::printf("fingerprint nproc=%u compiler=\"%s\" flags=\"%s\"\n",
                std::thread::hardware_concurrency(), SIMBENCH_COMPILER,
                SIMBENCH_FLAGS);
    std::printf("sim_digest 0x%016llx\n",
                static_cast<unsigned long long>(result.simDigest));
    const double failed_frac =
        result.attempted ? static_cast<double>(result.failed) /
                               static_cast<double>(result.attempted)
                         : 1.0;
    std::printf("checks failed=%llu attempted=%llu failed_frac=%g\n",
                static_cast<unsigned long long>(result.failed),
                static_cast<unsigned long long>(result.attempted),
                failed_frac);
    for (const Metric &m : result.metrics) {
        std::printf("  %-28s %16s %-6s %s\n", m.name.c_str(),
                    number(m.value).c_str(), m.unit.c_str(),
                    m.note.c_str());
    }

    const bool correct = result.failed == 0 && result.attempted > 0;
    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(result.attempted);
    json += ", \"failed\": " + std::to_string(result.failed);
    json += ", \"metrics\": {";
    bool first = true;
    for (const Metric &m : result.metrics) {
        if (!first)
            json += ", ";
        first = false;
        json += "\"" + m.name + "\": {\"value\": " + number(m.value) +
                ", \"unit\": \"" + m.unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
}

} // namespace simbench
