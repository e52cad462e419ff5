/** @file Unit tests for the simulation harness. */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <random>
#include <string>

#include "sim/context.hpp"
#include "sim/cpu_model.hpp"

namespace {

using namespace sisa::sim;

TEST(BlockRange, CoversWithoutOverlap)
{
    const std::uint64_t total = 103;
    const std::uint32_t threads = 8;
    std::uint64_t covered = 0;
    std::uint64_t prev_end = 0;
    for (ThreadId t = 0; t < threads; ++t) {
        const Range r = blockRange(total, threads, t);
        EXPECT_EQ(r.begin, prev_end);
        prev_end = r.end;
        covered += r.size();
    }
    EXPECT_EQ(prev_end, total);
    EXPECT_EQ(covered, total);
}

TEST(BlockRange, BalancedWithinOne)
{
    for (std::uint32_t threads : {1u, 3u, 7u, 32u}) {
        std::uint64_t min_size = ~0ull, max_size = 0;
        for (ThreadId t = 0; t < threads; ++t) {
            const Range r = blockRange(100, threads, t);
            min_size = std::min(min_size, r.size());
            max_size = std::max(max_size, r.size());
        }
        EXPECT_LE(max_size - min_size, 1u);
    }
}

TEST(Context, MakespanIsSlowestThread)
{
    SimContext ctx(4);
    ctx.chargeBusy(0, 100);
    ctx.chargeBusy(1, 250);
    ctx.chargeStall(1, 50);
    ctx.chargeBusy(2, 10);
    EXPECT_EQ(ctx.makespan(), 300u);
    EXPECT_EQ(ctx.threadCycles(1), 300u);
    EXPECT_EQ(ctx.threadBusy(1), 250u);
    EXPECT_EQ(ctx.threadStall(1), 50u);
}

TEST(Context, StalledFractionIncludesIdle)
{
    SimContext ctx(2);
    ctx.chargeBusy(0, 100);     // Thread 0: all busy.
    ctx.chargeBusy(1, 40);
    ctx.chargeStall(1, 10);     // Thread 1: finishes at 50.
    // Makespan 100: thread 1 idles 50 and stalled 10 -> 0.6.
    EXPECT_DOUBLE_EQ(ctx.stalledFraction(1), 0.6);
    EXPECT_DOUBLE_EQ(ctx.stalledFraction(0), 0.0);
}

TEST(Context, PatternCutoffStopsThread)
{
    SimContext ctx(1);
    ctx.setPatternCutoff(3);
    EXPECT_TRUE(ctx.countPattern(0));
    EXPECT_TRUE(ctx.countPattern(0));
    EXPECT_FALSE(ctx.countPattern(0)); // Third hit reaches the cutoff.
    EXPECT_TRUE(ctx.cutoffReached(0));
    EXPECT_EQ(ctx.patterns(0), 3u);
}

TEST(Context, NoCutoffByDefault)
{
    SimContext ctx(1);
    for (int i = 0; i < 100; ++i)
        EXPECT_TRUE(ctx.countPattern(0));
    EXPECT_FALSE(ctx.cutoffReached(0));
}

TEST(Context, CutoffIsPerThread)
{
    SimContext ctx(2);
    ctx.setPatternCutoff(1);
    ctx.countPattern(0);
    EXPECT_TRUE(ctx.cutoffReached(0));
    EXPECT_FALSE(ctx.cutoffReached(1));
    EXPECT_EQ(ctx.totalPatterns(), 1u);
}

TEST(Context, CountPatternsMatchesRepeatedCountPattern)
{
    // Seeded differential: countPatterns(tid, n) must leave the same
    // per-thread counts and report the same "within cutoff" as n
    // countPattern calls stopping at the first false. Covers no
    // cutoff, cutoff 1, small and huge cutoffs, start counts below,
    // at and above the cutoff (a caller that ignores false can
    // overshoot), n = 0, and n large enough to overflow p + n.
    const auto reference = [](SimContext &ctx, ThreadId tid,
                              std::uint64_t n) {
        for (std::uint64_t t = 0; t < n; ++t) {
            if (!ctx.countPattern(tid))
                break;
        }
        return !ctx.cutoffReached(tid);
    };
    std::mt19937_64 rng(2024);
    const std::uint64_t huge = std::uint64_t{1} << 62;
    for (int trial = 0; trial < 400; ++trial) {
        std::uint64_t cutoff = 0;
        switch (trial % 4) {
          case 0: cutoff = 0; break;
          case 1: cutoff = 1; break;
          case 2: cutoff = 2 + rng() % 50; break;
          default: cutoff = huge; break;
        }
        // A bounded cutoff stops the reference loop early, so n may
        // be anything; otherwise it runs n iterations.
        const bool bounded = cutoff != 0 && cutoff != huge;
        SimContext bulk(2);
        SimContext loop(2);
        bulk.setPatternCutoff(cutoff);
        loop.setPatternCutoff(cutoff);
        // Start below, at or above the cutoff: countPattern with the
        // result ignored walks past it.
        const std::uint64_t start =
            bounded ? rng() % (2 * cutoff + 2) : rng() % 100;
        for (std::uint64_t t = 0; t < start; ++t) {
            bulk.countPattern(0);
            loop.countPattern(0);
        }
        for (int step = 0; step < 8; ++step) {
            const auto tid = static_cast<ThreadId>(rng() % 2);
            std::uint64_t n = 0;
            switch (rng() % 4) {
              case 0: n = 0; break;
              case 1: n = 1; break;
              case 2: n = rng() % 64; break;
              default: n = bounded ? ~std::uint64_t{0} - rng() % 3
                                   : rng() % 5000;
                  break;
            }
            SCOPED_TRACE(::testing::Message()
                         << "cutoff=" << cutoff << " start=" << start
                         << " step=" << step << " n=" << n);
            EXPECT_EQ(bulk.countPatterns(tid, n),
                      reference(loop, tid, n));
            EXPECT_EQ(bulk.patterns(0), loop.patterns(0));
            EXPECT_EQ(bulk.patterns(1), loop.patterns(1));
        }
    }
}

TEST(Context, SetSizeTrace)
{
    SimContext ctx(2);
    ctx.enableSetSizeTrace(5);
    ctx.recordSetSize(0, 3);
    ctx.recordSetSize(0, 4);
    ctx.recordSetSize(1, 50);
    EXPECT_EQ(ctx.setSizeTrace(0).totalWeight(), 2u);
    EXPECT_EQ(ctx.setSizeTrace(1).totalWeight(), 1u);
    EXPECT_DOUBLE_EQ(ctx.setSizeTrace(0).frequency(2), 1.0);
}

TEST(Context, Counters)
{
    SimContext ctx(1);
    ctx.bumpCounter(Counter::PumOps);
    ctx.bumpCounter(Counter::PumOps, 4);
    ctx.bumpCounter(Counter::Probes, 0); // Touched, still zero.
    EXPECT_EQ(ctx.counter(Counter::PumOps), 5u);
    EXPECT_EQ(ctx.counter("scu.pum_ops"), 5u);
    // A registry counter never bumped reads 0 and is absent by name.
    EXPECT_EQ(ctx.counter(Counter::Retries), 0u);
    EXPECT_EQ(ctx.counter("scu.retries"), 0u);
    const std::map<std::string, std::uint64_t> expect{
        {"scu.pum_ops", 5}, {"setops.probes", 0}};
    EXPECT_EQ(ctx.counters(), expect);
}

TEST(Context, AbsorbCountersAddsElementWiseAndUnionsKeys)
{
    SimContext ctx(1), worker_a(2), worker_b(1);
    ctx.bumpCounter(Counter::PumOps, 2);
    worker_a.bumpCounter(Counter::PumOps, 3);
    worker_a.bumpCounter(Counter::XvaultBytes, 64);
    worker_b.bumpCounter(Counter::LaneStalls, 0);
    worker_b.chargeBusy(0, 100); // Cycles never merge.
    ctx.absorbCounters(worker_a);
    ctx.absorbCounters(worker_b);
    const std::map<std::string, std::uint64_t> expect{
        {"scu.lane_stalls", 0},
        {"scu.pum_ops", 5},
        {"setops.xvault_bytes", 64}};
    EXPECT_EQ(ctx.counters(), expect);
    EXPECT_EQ(ctx.threadBusy(0), 0u);
}

TEST(Context, QueryBoundBumpsLandInTheAccount)
{
    SimContext ctx(1), worker(1);
    ctx.bumpCounter(Counter::BatchOps, 7); // Unbound: context only.
    ctx.bindQuery(4);
    ctx.bumpCounter(Counter::BatchOps, 2);
    ctx.bumpCounter(Counter::Retries, 0);
    ctx.chargeBusy(0, 10);
    worker.bindQuery(4);
    worker.bumpCounter(Counter::SmbHits, 3);
    worker.chargeBusy(0, 50);
    ctx.absorbCounters(worker);

    EXPECT_EQ(ctx.counter(Counter::BatchOps), 9u);
    EXPECT_EQ(ctx.counter(Counter::SmbHits), 3u);
    const QueryAccount &account = ctx.queryAccount(4);
    const std::map<std::string, std::uint64_t> expect{
        {"scu.batch_ops", 2}, {"scu.retries", 0}, {"scu.smb_hits", 3}};
    EXPECT_EQ(account.counters.toMap(), expect);
    // absorbCounters moves the account's counters, not its cycles.
    EXPECT_EQ(account.busy, 10u);
    EXPECT_TRUE(ctx.queryAccount(5).counters.toMap().empty());

    // absorbQueryAccounting moves counters AND cycles.
    SimContext aggregate(1);
    aggregate.absorbQueryAccounting(ctx);
    EXPECT_EQ(aggregate.queryAccount(4).counters, account.counters);
    EXPECT_EQ(aggregate.queryAccount(4).busy, 10u);
    EXPECT_TRUE(aggregate.counters().empty());
}

TEST(Context, RegistryNamesRoundTrip)
{
    EXPECT_EQ(counter_names.size(), 31u);
    for (std::size_t i = 0; i < counter_count; ++i) {
        const auto id = static_cast<Counter>(i);
        ASSERT_EQ(counterByName(counter_names[i]), id);
    }
    EXPECT_EQ(counter_names[static_cast<std::size_t>(
                  Counter::StreamedElements)],
              "setops.streamed");
    EXPECT_FALSE(counterByName("scu.pum_op").has_value());
    EXPECT_FALSE(counterByName("x").has_value());
}

TEST(ContextDeathTest, UnknownCounterNameFailsLoudly)
{
    SimContext ctx(1);
    EXPECT_DEATH(ctx.counter("scu.retires"), "unknown counter");
    EXPECT_DEATH(ctx.counter("missing"), "unknown counter");
}

// --- CPU model -------------------------------------------------------------

TEST(CpuModel, ComputeUsesIpc)
{
    CpuParams params;
    params.ipc = 2.0;
    SimContext ctx(1);
    CpuModel cpu(params, 1);
    cpu.compute(ctx, 0, 10);
    EXPECT_EQ(ctx.threadBusy(0), 5u);
}

TEST(CpuModel, DependentMissCostsMoreThanStreamMiss)
{
    CpuParams params;
    SimContext ctx(1);
    CpuModel cpu(params, 1);
    const auto dependent =
        cpu.load(ctx, 0, 0x100000, AccessKind::Dependent);
    const auto sequential =
        cpu.load(ctx, 0, 0x200000, AccessKind::Sequential);
    EXPECT_GT(dependent, sequential); // MLP hides streamed latency.
}

TEST(CpuModel, L1HitIsBusyNotStall)
{
    CpuParams params;
    SimContext ctx(1);
    CpuModel cpu(params, 1);
    cpu.load(ctx, 0, 0x3000, AccessKind::Dependent); // Cold.
    const Cycles stall_after_cold = ctx.threadStall(0);
    cpu.load(ctx, 0, 0x3000, AccessKind::Dependent); // Warm L1 hit.
    EXPECT_EQ(ctx.threadStall(0), stall_after_cold); // No new stalls.
}

TEST(CpuModel, StreamTouchesEachLineOnce)
{
    CpuParams params;
    SimContext ctx(1);
    CpuModel cpu(params, 1);
    // 64 elements x 4B = 256B = 4 lines; 4 misses max.
    cpu.stream(ctx, 0, 0x40000, 64, 4);
    EXPECT_LE(cpu.dramAccesses(0), 4u);
}

TEST(CpuModel, FixedBandwidthContentionGrowsWithThreads)
{
    CpuParams params;
    params.scalableBandwidth = false;
    SimContext ctx1(1);
    CpuModel cpu1(params, 1);
    const auto lat1 = cpu1.load(ctx1, 0, 0x50000,
                                AccessKind::Dependent);
    SimContext ctx32(32);
    CpuModel cpu32(params, 32);
    const auto lat32 = cpu32.load(ctx32, 0, 0x50000,
                                  AccessKind::Dependent);
    EXPECT_GT(lat32, lat1); // The Figure 1 effect.
}

TEST(CpuModel, ScalableBandwidthHasNoContention)
{
    CpuParams params;
    params.scalableBandwidth = true;
    SimContext ctx1(1);
    CpuModel cpu1(params, 1);
    const auto lat1 = cpu1.load(ctx1, 0, 0x50000,
                                AccessKind::Dependent);
    SimContext ctx32(32);
    CpuModel cpu32(params, 32);
    const auto lat32 = cpu32.load(ctx32, 0, 0x50000,
                                  AccessKind::Dependent);
    EXPECT_EQ(lat32, lat1);
}

TEST(CpuModel, PerThreadPrivateCaches)
{
    CpuParams params;
    SimContext ctx(2);
    CpuModel cpu(params, 2);
    cpu.load(ctx, 0, 0x60000, AccessKind::Dependent); // Warm t0 only.
    const auto t0 = cpu.load(ctx, 0, 0x60000, AccessKind::Dependent);
    const auto t1 = cpu.load(ctx, 1, 0x60000, AccessKind::Dependent);
    EXPECT_LT(t0, t1); // Thread 1's L1/L2 are cold (L3 shared).
}

} // namespace
