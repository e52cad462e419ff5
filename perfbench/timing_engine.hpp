/**
 * @file
 * TimingEngine: a core::SetEngine decorator that forwards every call
 * to an inner engine (the SisaEngine under test) and aggregates host
 * time per call kind. It is the benchmark's span at the core -> sisa
 * boundary: millions of calls collapse into one counter and one
 * nanosecond total per kind, so the trace stays small and cheap.
 *
 * The decorator never touches a SimContext or the store on its own,
 * so a run through it charges the same cycles and counters as an
 * unwrapped run (the benchmark checks this bit for bit). It does not
 * forward serving sessions: mining runs never bind one.
 */

#ifndef SISA_PERFBENCH_TIMING_ENGINE_HPP
#define SISA_PERFBENCH_TIMING_ENGINE_HPP

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/set_engine.hpp"

namespace sisa::perfbench {

using Clock = std::chrono::steady_clock;

inline std::uint64_t
nsBetween(Clock::time_point from, Clock::time_point to)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(to - from)
            .count());
}

inline std::uint64_t
elapsedNs(Clock::time_point since)
{
    return nsBetween(since, Clock::now());
}

/** Call count and host time of one call kind. */
struct CallTally
{
    std::uint64_t calls = 0;
    std::uint64_t ns = 0;
};

/** Per-kind aggregates of everything that crossed the boundary. */
struct EngineTrace
{
    CallTally dispatch; ///< executeBatch / executeBatchAsync.
    CallTally collect;  ///< collectBatch / drainBatches.
    CallTally serial;   ///< One-operation set and element calls.
    CallTally alloc;    ///< create* / clone / destroy.
    std::uint64_t batchOps = 0;
    std::uint64_t liveSetsPeak = 0;
    /** Host time of the first store() access (setup phase marker). */
    Clock::time_point firstStoreAccess{};
    bool storeAccessed = false;
    /** Operand pairs of every batched intersect-card, when recorded. */
    std::vector<std::pair<core::SetId, core::SetId>> cardPairs;

    std::uint64_t
    engineNs() const
    {
        return dispatch.ns + collect.ns + serial.ns + alloc.ns;
    }
};

class TimingEngine : public core::SetEngine
{
  public:
    TimingEngine(core::SetEngine &inner, bool record_card_pairs)
        : inner_(inner), recordPairs_(record_card_pairs)
    {
    }

    const EngineTrace &trace() const { return trace_; }

    core::SetStore &
    store() override
    {
        markStore();
        return inner_.store();
    }
    const core::SetStore &store() const override
    {
        return inner_.store();
    }
    const char *name() const override { return inner_.name(); }

    core::SetId
    intersect(sim::SimContext &ctx, sim::ThreadId tid, core::SetId a,
              core::SetId b, core::SisaOp variant) override
    {
        return timed(trace_.serial, [&] {
            return inner_.intersect(ctx, tid, a, b, variant);
        });
    }
    core::SetId
    setUnion(sim::SimContext &ctx, sim::ThreadId tid, core::SetId a,
             core::SetId b, core::SisaOp variant) override
    {
        return timed(trace_.serial, [&] {
            return inner_.setUnion(ctx, tid, a, b, variant);
        });
    }
    core::SetId
    difference(sim::SimContext &ctx, sim::ThreadId tid, core::SetId a,
               core::SetId b, core::SisaOp variant) override
    {
        return timed(trace_.serial, [&] {
            return inner_.difference(ctx, tid, a, b, variant);
        });
    }
    std::uint64_t
    intersectCard(sim::SimContext &ctx, sim::ThreadId tid, core::SetId a,
                  core::SetId b, core::SisaOp variant) override
    {
        return timed(trace_.serial, [&] {
            return inner_.intersectCard(ctx, tid, a, b, variant);
        });
    }
    std::uint64_t
    unionCard(sim::SimContext &ctx, sim::ThreadId tid, core::SetId a,
              core::SetId b) override
    {
        return timed(trace_.serial, [&] {
            return inner_.unionCard(ctx, tid, a, b);
        });
    }

    core::BatchResult
    executeBatch(sim::SimContext &ctx, sim::ThreadId tid,
                 const core::BatchRequest &batch) override
    {
        noteBatch(batch);
        return timed(trace_.dispatch, [&] {
            return inner_.executeBatch(ctx, tid, batch);
        });
    }
    core::BatchHandle
    executeBatchAsync(sim::SimContext &ctx, sim::ThreadId tid,
                      const core::BatchRequest &batch) override
    {
        noteBatch(batch);
        return timed(trace_.dispatch, [&] {
            return inner_.executeBatchAsync(ctx, tid, batch);
        });
    }
    core::BatchResult
    collectBatch(sim::SimContext &ctx, sim::ThreadId tid,
                 core::BatchHandle handle) override
    {
        return timed(trace_.collect, [&] {
            return inner_.collectBatch(ctx, tid, handle);
        });
    }
    void
    drainBatches(sim::SimContext &ctx, sim::ThreadId tid) override
    {
        timed(trace_.collect, [&] {
            inner_.drainBatches(ctx, tid);
            return 0;
        });
    }

    std::uint64_t
    cardinality(sim::SimContext &ctx, sim::ThreadId tid,
                core::SetId a) override
    {
        return timed(trace_.serial,
                     [&] { return inner_.cardinality(ctx, tid, a); });
    }
    bool
    member(sim::SimContext &ctx, sim::ThreadId tid, core::SetId a,
           core::Element x) override
    {
        return timed(trace_.serial,
                     [&] { return inner_.member(ctx, tid, a, x); });
    }
    void
    insert(sim::SimContext &ctx, sim::ThreadId tid, core::SetId a,
           core::Element x) override
    {
        timed(trace_.serial, [&] {
            inner_.insert(ctx, tid, a, x);
            return 0;
        });
    }
    void
    remove(sim::SimContext &ctx, sim::ThreadId tid, core::SetId a,
           core::Element x) override
    {
        timed(trace_.serial, [&] {
            inner_.remove(ctx, tid, a, x);
            return 0;
        });
    }

    core::SetId
    create(sim::SimContext &ctx, sim::ThreadId tid,
           std::vector<core::Element> elems, core::SetRepr repr) override
    {
        return timed(trace_.alloc, [&] {
            return inner_.create(ctx, tid, std::move(elems), repr);
        });
    }
    core::SetId
    createEmpty(sim::SimContext &ctx, sim::ThreadId tid,
                core::SetRepr repr) override
    {
        return timed(trace_.alloc, [&] {
            return inner_.createEmpty(ctx, tid, repr);
        });
    }
    core::SetId
    createFull(sim::SimContext &ctx, sim::ThreadId tid) override
    {
        return timed(trace_.alloc,
                     [&] { return inner_.createFull(ctx, tid); });
    }
    core::SetId
    clone(sim::SimContext &ctx, sim::ThreadId tid, core::SetId a) override
    {
        return timed(trace_.alloc,
                     [&] { return inner_.clone(ctx, tid, a); });
    }
    void
    destroy(sim::SimContext &ctx, sim::ThreadId tid, core::SetId a) override
    {
        timed(trace_.alloc, [&] {
            inner_.destroy(ctx, tid, a);
            return 0;
        });
    }

    std::vector<core::Element>
    elements(sim::SimContext &ctx, sim::ThreadId tid,
             core::SetId a) override
    {
        return timed(trace_.serial,
                     [&] { return inner_.elements(ctx, tid, a); });
    }

  private:
    /** Time @p fn into @p tally, then sample the live-set count. */
    template <typename Fn>
    auto
    timed(CallTally &tally, Fn &&fn) -> decltype(fn())
    {
        const Clock::time_point start = Clock::now();
        auto out = fn();
        tally.ns += elapsedNs(start);
        ++tally.calls;
        trace_.liveSetsPeak = std::max(
            trace_.liveSetsPeak, std::as_const(inner_).store().liveCount());
        return out;
    }

    void
    noteBatch(const core::BatchRequest &batch)
    {
        trace_.batchOps += batch.size();
        if (!recordPairs_)
            return;
        for (const core::BatchOp &op : batch.ops) {
            if (op.kind == core::BatchOpKind::IntersectCard)
                trace_.cardPairs.emplace_back(op.a, op.b);
        }
    }

    void
    markStore()
    {
        if (!trace_.storeAccessed) {
            trace_.storeAccessed = true;
            trace_.firstStoreAccess = Clock::now();
        }
    }

    core::SetEngine &inner_;
    bool recordPairs_;
    EngineTrace trace_;
};

} // namespace sisa::perfbench

#endif // SISA_PERFBENCH_TIMING_ENGINE_HPP
