/**
 * @file
 * Deterministic cycle-accounting simulation context. This replaces the
 * paper's Sniper+Pin toolchain (see DESIGN.md, Substitution 1): the
 * algorithms execute functionally on the host while charging modeled
 * cycles to logical simulated threads. Per-thread busy and stall
 * cycles support the load-balancing study (Figure 9a), set-size
 * traces support Figure 9b, and per-thread pattern cutoffs implement
 * the paper's technique for taming long simulations of NP-hard
 * mining problems (Section 9.1, "Tackling Long Simulation Runtimes").
 * Hardware and work statistics are counters of a fixed registry
 * (enum Counter + counter_names) held in flat per-context arrays, so
 * the dispatch hot path bumps and merges them without strings or
 * maps; the by-name view is built only for printing and tests.
 */

#ifndef SISA_SIM_CONTEXT_HPP
#define SISA_SIM_CONTEXT_HPP

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "mem/pim.hpp"
#include "support/stats.hpp"

namespace sisa::sim {

using mem::Cycles;

/** Identifier of a simulated (logical) thread. */
using ThreadId = std::uint32_t;

/**
 * Identifier of a serving-layer query (serve/scenario.hpp). Contexts
 * created outside the serving layer carry no_query and pay nothing
 * for the tag: charges only fold into a per-query account once
 * bindQuery() installs a real id.
 */
using QueryId = std::uint32_t;

/** Sentinel: charges are not attributed to any query. */
inline constexpr QueryId no_query = ~QueryId{0};

/** Half-open iteration range assigned to one simulated thread. */
struct Range
{
    std::uint64_t begin = 0;
    std::uint64_t end = 0;

    std::uint64_t size() const { return end - begin; }
    bool empty() const { return begin >= end; }
};

/** Contiguous block partition of [0, total) over @p num_threads. */
Range blockRange(std::uint64_t total, std::uint32_t num_threads,
                 ThreadId tid);

// --- Counter registry ------------------------------------------------------

/**
 * Every named statistic the SCU model keeps. Each entry has exactly
 * one printed name in counter_names (same position); entries are in
 * ascending name order, so iterating a CounterSet visits keys in the
 * same order as the by-name map that counters() returns. Adding a
 * counter = one entry here + its name at the same position below.
 */
enum class Counter : std::uint8_t
{
    AnalysisBatches,   ///< scu.analysis_batches
    AnalysisErrors,    ///< scu.analysis_errors
    AnalysisWarnings,  ///< scu.analysis_warnings
    AsyncDispatches,   ///< scu.async_dispatches
    AsyncDrains,       ///< scu.async_drains
    AsyncSyncs,        ///< scu.async_syncs
    BatchDispatches,   ///< scu.batch_dispatches
    BatchOps,          ///< scu.batch_ops
    CancelDrains,      ///< scu.cancel_drains
    ChecksumVerifies,  ///< scu.checksum_verifies
    LaneStalls,        ///< scu.lane_stalls
    Migrations,        ///< scu.migrations
    PnmRandomOps,      ///< scu.pnm_random_ops
    PnmStreamOps,      ///< scu.pnm_stream_ops
    PumOps,            ///< scu.pum_ops
    Quarantines,       ///< scu.quarantines
    Retries,           ///< scu.retries
    ShortCircuits,     ///< scu.short_circuits
    SmDramLookups,     ///< scu.sm_dram_lookups
    SmbHits,           ///< scu.smb_hits
    SmbMisses,         ///< scu.smb_misses
    XvaultTransfers,   ///< scu.xvault_transfers
    CancelledCycles,   ///< setops.cancelled_cycles
    MigrationBytes,    ///< setops.migration_bytes
    OutputElements,    ///< setops.output
    Probes,            ///< setops.probes
    RecoveryBytes,     ///< setops.recovery_bytes
    StreamedElements,  ///< setops.streamed
    BitvectorWords,    ///< setops.words
    XvaultBytes,       ///< setops.xvault_bytes
    XvaultReduceBytes, ///< setops.xvault_reduce_bytes
};

/** Number of registry entries. */
inline constexpr std::size_t counter_count =
    static_cast<std::size_t>(Counter::XvaultReduceBytes) + 1;

/** Printed name of each Counter, indexed by its enum value. */
inline constexpr std::array<std::string_view, counter_count>
    counter_names = {
        "scu.analysis_batches",  "scu.analysis_errors",
        "scu.analysis_warnings", "scu.async_dispatches",
        "scu.async_drains",      "scu.async_syncs",
        "scu.batch_dispatches",  "scu.batch_ops",
        "scu.cancel_drains",     "scu.checksum_verifies",
        "scu.lane_stalls",       "scu.migrations",
        "scu.pnm_random_ops",    "scu.pnm_stream_ops",
        "scu.pum_ops",           "scu.quarantines",
        "scu.retries",           "scu.short_circuits",
        "scu.sm_dram_lookups",   "scu.smb_hits",
        "scu.smb_misses",        "scu.xvault_transfers",
        "setops.cancelled_cycles", "setops.migration_bytes",
        "setops.output",         "setops.probes",
        "setops.recovery_bytes", "setops.streamed",
        "setops.words",          "setops.xvault_bytes",
        "setops.xvault_reduce_bytes",
};

static_assert(counter_count <= 64, "the touched mask is one word");
static_assert(
    [] {
        for (std::size_t i = 1; i < counter_count; ++i) {
            if (!(counter_names[i - 1] < counter_names[i]))
                return false;
        }
        return true;
    }(),
    "counter_names must be strictly ascending (CounterSet iterates "
    "in by-name map order)");

/** Registry entry named @p name, if there is one. */
std::optional<Counter> counterByName(std::string_view name);

/**
 * Flat tally of every registry counter plus a "touched" mask. A
 * counter is present (iterated, printed, compared) once it has been
 * bumped at least once, even by delta 0 -- the key set a by-name map
 * of the same bumps would hold. Bumping is an index-and-add; merging
 * is an element-wise add plus an OR of the masks.
 */
class CounterSet
{
  public:
    /** Add @p delta to counter @p id and mark it touched (even for 0). */
    void
    add(Counter id, std::uint64_t delta)
    {
        const auto i = static_cast<std::size_t>(id);
        values_[i] += delta;
        touched_ |= std::uint64_t{1} << i;
    }

    /** Value of counter @p id (0 if never touched). */
    std::uint64_t
    operator[](Counter id) const
    {
        return values_[static_cast<std::size_t>(id)];
    }

    /** Whether counter @p id was ever bumped (present as a key). */
    bool
    touched(Counter id) const
    {
        return ((touched_ >> static_cast<std::size_t>(id)) & 1) != 0;
    }

    /** Element-wise add of @p other; its touched keys stay touched. */
    void
    absorb(const CounterSet &other)
    {
        for (std::size_t i = 0; i < counter_count; ++i)
            values_[i] += other.values_[i];
        touched_ |= other.touched_;
    }

    /** The by-name view: one entry per touched counter. */
    std::map<std::string, std::uint64_t> toMap() const;

    bool operator==(const CounterSet &) const = default;

    /** Visits touched counters in name order as (name, value). */
    class const_iterator
    {
      public:
        using value_type = std::pair<const char *, std::uint64_t>;

        const_iterator(const CounterSet *set, std::uint64_t remaining)
            : set_(set), remaining_(remaining)
        {}

        value_type
        operator*() const
        {
            const auto i =
                static_cast<std::size_t>(std::countr_zero(remaining_));
            // Names are string literals, so data() is NUL-terminated.
            return {counter_names[i].data(), set_->values_[i]};
        }

        const_iterator &
        operator++()
        {
            remaining_ &= remaining_ - 1;
            return *this;
        }

        bool
        operator==(const const_iterator &other) const
        {
            return remaining_ == other.remaining_;
        }

      private:
        const CounterSet *set_ = nullptr;
        std::uint64_t remaining_ = 0;
    };

    const_iterator begin() const { return {this, touched_}; }
    const_iterator end() const { return {this, 0}; }

  private:
    std::array<std::uint64_t, counter_count> values_{};
    std::uint64_t touched_ = 0;
};

/**
 * Per-query slice of a SimContext: the busy/stall cycles and
 * registry counters charged while the context was bound to one
 * QueryId. The serving layer prices each tenant's SLO from these, and
 * the co-tenancy differentials compare them bit for bit solo vs.
 * shared.
 */
struct QueryAccount
{
    Cycles busy = 0;
    Cycles stall = 0;
    CounterSet counters;

    Cycles cycles() const { return busy + stall; }
};

/** Cycle and work accounting for one simulated execution. */
class SimContext
{
  public:
    explicit SimContext(std::uint32_t num_threads);

    /**
     * Return to the state of a fresh SimContext(@p num_threads):
     * zero cycles, patterns and counters, no cutoff, no trace, no
     * query accounts, unbound. Keeps the per-thread vectors'
     * capacity, so a context reused as dispatch scratch (one per
     * host worker) allocates nothing once it has seen its widest
     * dispatch.
     */
    void reset(std::uint32_t num_threads);

    std::uint32_t numThreads() const { return numThreads_; }

    // --- Per-query scoping (multi-tenant serving) -------------------------

    /**
     * Tag subsequent charges with @p query (no_query detaches). Every
     * chargeBusy/chargeStall/bumpCounter while bound ALSO accumulates
     * into the query's account; thread totals are unchanged, so the
     * invariant "sum of per-query accounts == sum of tagged charges"
     * holds by construction.
     */
    void bindQuery(QueryId query) { activeQuery_ = query; }

    QueryId activeQuery() const { return activeQuery_; }

    /** Account of @p query (zeroes if it never charged here). */
    const QueryAccount &queryAccount(QueryId query) const;

    const std::map<QueryId, QueryAccount> &queryAccounts() const
    {
        return queryAccounts_;
    }

    /**
     * Merge @p other's per-query accounts (cycles AND counters) into
     * this context's accounts. Unlike absorbCounters this moves
     * cycles too -- it is the serving aggregate's view of what each
     * query consumed, not a thread-timeline merge; thread busy/stall
     * vectors are untouched.
     */
    void absorbQueryAccounting(const SimContext &other);

    /** Charge compute (non-stalled) cycles to thread @p tid. */
    void
    chargeBusy(ThreadId tid, Cycles cycles)
    {
        busy_[tid] += cycles;
        if (activeQuery_ != no_query)
            activeAccount().busy += cycles;
    }

    /** Charge memory-stall cycles to thread @p tid. */
    void
    chargeStall(ThreadId tid, Cycles cycles)
    {
        stall_[tid] += cycles;
        if (activeQuery_ != no_query)
            activeAccount().stall += cycles;
    }

    /** Total cycles consumed by @p tid (busy + stall). */
    Cycles threadCycles(ThreadId tid) const;

    Cycles threadBusy(ThreadId tid) const { return busy_[tid]; }
    Cycles threadStall(ThreadId tid) const { return stall_[tid]; }

    /** Simulated run time: the slowest thread (barrier semantics). */
    Cycles makespan() const;

    /**
     * Sum of threadCycles over ALL threads -- the serving layer's
     * own-cycle base, monotone no matter which tid a dispatch issues
     * on (a multi-thread session serializes its modeled threads into
     * one served timeline).
     */
    Cycles totalCycles() const;

    /**
     * Fraction of the run during which @p tid was not doing useful
     * work: memory stalls plus end-of-run idling (load imbalance).
     */
    double stalledFraction(ThreadId tid) const;

    // --- Set-size tracing (Figure 9b) -----------------------------------

    /** Start recording processed-set sizes with @p bin_width bins. */
    void enableSetSizeTrace(std::uint64_t bin_width = 5);

    bool setSizeTraceEnabled() const { return traceEnabled_; }

    /** Record that @p tid processed a set of @p size elements. */
    void
    recordSetSize(ThreadId tid, std::uint64_t size)
    {
        if (traceEnabled_)
            traces_[tid].add(size);
    }

    /** Per-thread histogram of processed set sizes. */
    const support::Histogram &setSizeTrace(ThreadId tid) const;

    // --- Pattern cutoffs (Section 9.1) -----------------------------------

    /**
     * Stop each thread after it reports @p per_thread patterns
     * (0 disables the cutoff and simulates the full execution).
     */
    void setPatternCutoff(std::uint64_t per_thread);

    /**
     * Report one found pattern (clique, match, ...) on @p tid.
     * @return true while the thread is within its cutoff.
     */
    bool
    countPattern(ThreadId tid)
    {
        ++patterns_[tid];
        return patternCutoff_ == 0 || patterns_[tid] < patternCutoff_;
    }

    /**
     * Report @p n found patterns on @p tid at once: exactly the
     * state @p n countPattern calls leave when the caller stops at
     * the first false. With no cutoff the count grows by @p n; a
     * thread already at its cutoff takes one more pattern (the call
     * that returns false) if @p n > 0; otherwise the count grows by
     * @p n but stops at the cutoff.
     * @return !cutoffReached(tid) afterwards.
     */
    bool
    countPatterns(ThreadId tid, std::uint64_t n)
    {
        std::uint64_t &p = patterns_[tid];
        if (patternCutoff_ == 0) {
            p += n;
            return true;
        }
        if (p >= patternCutoff_)
            p += n > 0 ? 1 : 0;
        else
            p += std::min(n, patternCutoff_ - p);
        return p < patternCutoff_;
    }

    /** Whether @p tid exhausted its pattern budget. */
    bool
    cutoffReached(ThreadId tid) const
    {
        return patternCutoff_ != 0 && patterns_[tid] >= patternCutoff_;
    }

    std::uint64_t patterns(ThreadId tid) const { return patterns_[tid]; }
    std::uint64_t totalPatterns() const;

    // --- Registry counters ------------------------------------------------

    /**
     * Add @p delta to counter @p id (and mark it touched, even for a
     * 0 delta). While a query is bound the same delta also lands in
     * that query's account.
     */
    void
    bumpCounter(Counter id, std::uint64_t delta = 1)
    {
        counters_.add(id, delta);
        if (activeQuery_ != no_query)
            activeAccount().counters.add(id, delta);
    }

    /**
     * Merge every counter of @p other into this context -- the
     * barrier step of batched dispatch, where the lane charge
     * context folds its tallies into the issuing thread's context.
     * Cycles never merge (the caller charges the makespan instead).
     * Per-query COUNTER slices merge the same way; per-query cycles
     * do NOT (mirroring the thread rule -- the dispatch path charges
     * each query its share of the makespan directly).
     */
    void absorbCounters(const SimContext &other);

    std::uint64_t counter(Counter id) const { return counters_[id]; }

    /**
     * By-name read (e.g. "scu.pum_ops"): 0 for a registry counter
     * never bumped; panics on a name that is not in the registry, so
     * a typo cannot read as an untouched counter.
     */
    std::uint64_t counter(std::string_view name) const;

    /**
     * By-name copy of every touched counter (printing, JSON, and
     * map-equality tests). Built on demand -- not for hot paths.
     */
    std::map<std::string, std::uint64_t> counters() const
    {
        return counters_.toMap();
    }

  private:
    /** The bound query's account (the out-of-line, bound branch). */
    QueryAccount &activeAccount();

    std::uint32_t numThreads_;
    std::vector<Cycles> busy_;
    std::vector<Cycles> stall_;
    std::vector<std::uint64_t> patterns_;
    std::uint64_t patternCutoff_ = 0;
    bool traceEnabled_ = false;
    std::vector<support::Histogram> traces_;
    CounterSet counters_;
    QueryId activeQuery_ = no_query;
    std::map<QueryId, QueryAccount> queryAccounts_;
};

} // namespace sisa::sim

#endif // SISA_SIM_CONTEXT_HPP
