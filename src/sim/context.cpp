#include "sim/context.hpp"

#include <algorithm>

#include "support/logging.hpp"

namespace sisa::sim {

Range
blockRange(std::uint64_t total, std::uint32_t num_threads, ThreadId tid)
{
    sisa_assert(num_threads > 0 && tid < num_threads, "bad partition");
    const std::uint64_t chunk = total / num_threads;
    const std::uint64_t extra = total % num_threads;
    const std::uint64_t begin =
        tid * chunk + std::min<std::uint64_t>(tid, extra);
    const std::uint64_t size = chunk + (tid < extra ? 1 : 0);
    return {begin, begin + size};
}

SimContext::SimContext(std::uint32_t num_threads)
    : numThreads_(num_threads), busy_(num_threads, 0),
      stall_(num_threads, 0), patterns_(num_threads, 0)
{
    sisa_assert(num_threads >= 1, "need at least one simulated thread");
}

void
SimContext::reset(std::uint32_t num_threads)
{
    sisa_assert(num_threads >= 1, "need at least one simulated thread");
    numThreads_ = num_threads;
    busy_.assign(num_threads, 0);
    stall_.assign(num_threads, 0);
    patterns_.assign(num_threads, 0);
    patternCutoff_ = 0;
    traceEnabled_ = false;
    traces_.clear();
    counters_ = {};
    activeQuery_ = no_query;
    queryAccounts_.clear();
}

QueryAccount &
SimContext::activeAccount()
{
    return queryAccounts_[activeQuery_];
}

const QueryAccount &
SimContext::queryAccount(QueryId query) const
{
    static const QueryAccount empty{};
    auto it = queryAccounts_.find(query);
    return it == queryAccounts_.end() ? empty : it->second;
}

void
SimContext::absorbQueryAccounting(const SimContext &other)
{
    for (const auto &[query, account] : other.queryAccounts_) {
        QueryAccount &mine = queryAccounts_[query];
        mine.busy += account.busy;
        mine.stall += account.stall;
        mine.counters.absorb(account.counters);
    }
}

Cycles
SimContext::threadCycles(ThreadId tid) const
{
    return busy_[tid] + stall_[tid];
}

Cycles
SimContext::makespan() const
{
    Cycles max_cycles = 0;
    for (ThreadId t = 0; t < numThreads_; ++t)
        max_cycles = std::max(max_cycles, threadCycles(t));
    return max_cycles;
}

Cycles
SimContext::totalCycles() const
{
    Cycles total = 0;
    for (ThreadId t = 0; t < numThreads_; ++t)
        total += threadCycles(t);
    return total;
}

double
SimContext::stalledFraction(ThreadId tid) const
{
    const Cycles span = makespan();
    if (span == 0)
        return 0.0;
    const Cycles idle = span - threadCycles(tid);
    return static_cast<double>(stall_[tid] + idle) /
           static_cast<double>(span);
}

void
SimContext::enableSetSizeTrace(std::uint64_t bin_width)
{
    traceEnabled_ = true;
    traces_.clear();
    traces_.reserve(numThreads_);
    for (ThreadId t = 0; t < numThreads_; ++t)
        traces_.emplace_back(bin_width);
}

const support::Histogram &
SimContext::setSizeTrace(ThreadId tid) const
{
    sisa_assert(traceEnabled_, "set-size tracing is not enabled");
    return traces_[tid];
}

void
SimContext::setPatternCutoff(std::uint64_t per_thread)
{
    patternCutoff_ = per_thread;
}

std::uint64_t
SimContext::totalPatterns() const
{
    std::uint64_t total = 0;
    for (std::uint64_t p : patterns_)
        total += p;
    return total;
}

void
SimContext::absorbCounters(const SimContext &other)
{
    counters_.absorb(other.counters_);
    for (const auto &[query, account] : other.queryAccounts_)
        queryAccounts_[query].counters.absorb(account.counters);
}

std::uint64_t
SimContext::counter(std::string_view name) const
{
    const std::optional<Counter> id = counterByName(name);
    sisa_assert(id.has_value(), "unknown counter '", name, "'");
    return counters_[*id];
}

std::optional<Counter>
counterByName(std::string_view name)
{
    const auto it = std::lower_bound(counter_names.begin(),
                                     counter_names.end(), name);
    if (it == counter_names.end() || *it != name)
        return std::nullopt;
    return static_cast<Counter>(it - counter_names.begin());
}

std::map<std::string, std::uint64_t>
CounterSet::toMap() const
{
    std::map<std::string, std::uint64_t> out;
    for (const auto &[name, value] : *this)
        out.emplace_hint(out.end(), name, value);
    return out;
}

} // namespace sisa::sim
