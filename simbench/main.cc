/**
 * @file
 * simbench: host cost of the simulator per simulated request.
 *
 *   simbench --workload NAME --seed N --seconds S --trace 0|1
 *
 * Runs one workload from a single thread and prints every metric by
 * name and unit, then one JSON line:
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 * --trace 0 reports the end-to-end metrics, --trace 1 the per-layer
 * ones. README.md in this directory lists the workloads and metrics.
 */

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "harness.hh"

namespace
{

int
usage(const char *message)
{
    std::fprintf(stderr,
                 "simbench: %s\nusage: simbench --workload NAME "
                 "--seed N --seconds S --trace 0|1\nworkloads: "
                 "mercury_small_get iridium_mixed_4k cluster_bad_day\n",
                 message);
    return 2;
}

bool
parseNumber(const std::string &text, double &out)
{
    char *end = nullptr;
    out = std::strtod(text.c_str(), &end);
    return !text.empty() && end == text.c_str() + text.size();
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    simbench::Options options;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + flag).c_str());
        const std::string value = argv[++i];
        double number = 0.0;
        if (flag == "--workload") {
            options.workload = value;
        } else if (flag == "--seed") {
            if (!parseNumber(value, number) || number < 0)
                return usage("bad --seed");
            options.seed = std::strtoull(value.c_str(), nullptr, 10);
        } else if (flag == "--seconds") {
            if (!parseNumber(value, number) || number <= 0 ||
                number > 600)
                return usage("bad --seconds");
            options.seconds = number;
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                return usage("--trace takes 0 or 1");
            options.trace = value == "1";
        } else {
            return usage(("unknown flag " + flag).c_str());
        }
    }

    simbench::Result result;
    try {
        if (options.workload == "cluster_bad_day")
            simbench::runClusterWorkload(options, result);
        else if (!simbench::runNodeWorkload(options, result))
            return usage("unknown or missing --workload");
    } catch (const std::exception &e) {
        std::fprintf(stderr, "simbench: %s\n", e.what());
        return 1;
    }
    // Failed checks are reported in the JSON ("correct": false), not
    // through the exit status.
    simbench::report(options, result);
    return 0;
}
