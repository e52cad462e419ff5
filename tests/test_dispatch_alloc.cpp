/**
 * @file
 * Host allocation contract of batched dispatch: once warm, a
 * fault-free 1-worker barriered dispatch allocates nothing per op --
 * its only heap allocation is the BatchResult.entries it returns.
 * The lane charge context, the operand-fetch dedup table and
 * the result-ticket node are SCU scratch reused across dispatches.
 *
 * This binary replaces the global operator new with a counting one,
 * so it is its own test executable.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <random>
#include <vector>

#include "sisa/scu.hpp"
#include "sisa/set_store.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

} // namespace

void *
operator new(std::size_t size)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace {

using namespace sisa;
using namespace sisa::isa;
using sisa::sets::Element;
using sisa::sets::SetRepr;
using sisa::sim::SimContext;

/**
 * Triangle counting's mean batch shape: 86 intersect-card ops over
 * random sparse sets spread across the default vaults, with repeated
 * remote co-operands.
 */
struct Fixture
{
    static constexpr Element universe = 1u << 16;

    explicit Fixture(const ScuConfig &config)
        : store(universe), scu(store, config, 1)
    {
        std::mt19937_64 rng(7);
        std::vector<SetId> ids;
        for (int s = 0; s < 120; ++s) {
            std::vector<Element> elems;
            for (int e = 0; e < 200; ++e)
                elems.push_back(static_cast<Element>(rng() % universe));
            std::sort(elems.begin(), elems.end());
            elems.erase(std::unique(elems.begin(), elems.end()),
                        elems.end());
            ids.push_back(
                store.createFromSorted(elems, SetRepr::SparseArray));
        }
        for (int i = 0; i < 86; ++i)
            req.intersectCard(ids[rng() % ids.size()], ids[rng() % 10]);
    }

    SetStore store;
    Scu scu;
    BatchRequest req;
};

std::uint64_t
allocationsDuring(int dispatches, const auto &dispatch)
{
    const std::uint64_t before = g_allocations.load();
    for (int d = 0; d < dispatches; ++d)
        dispatch();
    return g_allocations.load() - before;
}

TEST(DispatchAlloc, OneWorkerBarrierAllocatesOnlyItsEntries)
{
    ScuConfig config;
    config.batchWorkers = 1;
    Fixture fx(config);
    SimContext ctx(1);
    const auto dispatch = [&] {
        const BatchResult res = fx.scu.dispatchBatch(ctx, 0, fx.req);
        ASSERT_EQ(res.size(), fx.req.size());
    };
    allocationsDuring(2, dispatch); // Warm the scratch.
    EXPECT_EQ(allocationsDuring(64, dispatch), 64u);
    EXPECT_GT(ctx.counter(sim::Counter::XvaultTransfers), 0u);
}

TEST(DispatchAlloc, TicketRoundTripReusesItsNode)
{
    // The async API with the window off: dispatchBatch plus an
    // immediately-retired ticket, collected at once.
    ScuConfig config;
    config.batchWorkers = 1;
    Fixture fx(config);
    SimContext ctx(1);
    const auto dispatch = [&] {
        const BatchResult res = fx.scu.collectBatch(
            ctx, 0, fx.scu.dispatchAsync(ctx, 0, fx.req));
        ASSERT_EQ(res.size(), fx.req.size());
    };
    allocationsDuring(2, dispatch);
    EXPECT_EQ(allocationsDuring(64, dispatch), 64u);
}

} // namespace
