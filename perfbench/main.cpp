/**
 * @file
 * Benchmark entry point:
 *
 *   sisa_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                  [--trace-file PATH]
 *
 * Prints notes, then as its last line one JSON object with the keys
 * correct, attempted, failed and metrics. --trace 0 reports the
 * end-to-end metrics, --trace 1 the per-layer metrics (README.md).
 */

#include <charconv>
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>

#include "workloads.hpp"

namespace {

int
usage()
{
    std::fprintf(stderr,
                 "usage: sisa_perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--trace-file PATH]\n");
    return 2;
}

template <typename T>
bool
parseNumber(const char *text, T &out)
{
    const char *end = text + std::strlen(text);
    const auto [ptr, ec] = std::from_chars(text, end, out);
    return ec == std::errc() && ptr == end;
}

} // namespace

int
main(int argc, char **argv)
{
    sisa::perfbench::RunOptions opts;
    bool have_workload = false, have_seed = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const char *value = argv[i + 1];
        int trace = 0;
        if (key == "--workload") {
            opts.workload = value;
            have_workload = true;
        } else if (key == "--seed") {
            if (!parseNumber(value, opts.seed))
                return usage();
            have_seed = true;
        } else if (key == "--seconds") {
            if (!parseNumber(value, opts.seconds) || opts.seconds < 0)
                return usage();
        } else if (key == "--trace") {
            if (!parseNumber(value, trace) || trace < 0 || trace > 1)
                return usage();
            opts.trace = trace == 1;
        } else if (key == "--trace-file") {
            opts.traceFile = value;
        } else {
            return usage();
        }
    }
    if (argc % 2 == 0 || !have_workload || !have_seed)
        return usage();

    sisa::perfbench::RunResult result;
    try {
        result = sisa::perfbench::runWorkload(opts);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "sisa_perfbench: %s\n", e.what());
        return 1;
    }

    for (const std::string &note : result.notes)
        std::printf("# %s\n", note.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                result.correct ? "true" : "false",
                static_cast<unsigned long long>(result.attempted),
                static_cast<unsigned long long>(result.failed));
    for (std::size_t i = 0; i < result.metrics.size(); ++i) {
        const sisa::perfbench::Metric &m = result.metrics[i];
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", m.name.c_str(), m.value,
                    m.unit.c_str());
    }
    std::printf("}}\n");
    return 0;
}
