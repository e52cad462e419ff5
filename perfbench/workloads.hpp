/**
 * @file
 * The benchmark's workloads (tc-large, bk-dense, serve-open) and the
 * result record each one produces. See README.md for what every
 * metric means and which layer it belongs to.
 */

#ifndef SISA_PERFBENCH_WORKLOADS_HPP
#define SISA_PERFBENCH_WORKLOADS_HPP

#include <cstdint>
#include <string>
#include <vector>

namespace sisa::perfbench {

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

struct RunOptions
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 1.0;
    bool trace = false;
    /** Where a traced run writes its spans ("" = nowhere). */
    std::string traceFile;
};

struct RunResult
{
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;
    /** One line per note: calibration echo, tail percentile, ... */
    std::vector<std::string> notes;
};

/**
 * Run @p opts.workload (tc-large | bk-dense | serve-open); throws
 * std::invalid_argument if unknown.
 */
RunResult runWorkload(const RunOptions &opts);

} // namespace sisa::perfbench

#endif // SISA_PERFBENCH_WORKLOADS_HPP
