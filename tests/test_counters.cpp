/**
 * @file
 * Counter golden test: pins the complete named-counter map of seven
 * fixed small runs -- every key (including touched-but-zero ones),
 * every value -- plus every per-query QueryAccount counter slice.
 *
 * The differential suites compare mode X against mode Y through the
 * same counter registry, so a mis-mapped registry entry or a lost key
 * passes them on both sides. This test compares against fixed
 * recorded values, so it catches both. A change that legitimately
 * moves a counter must re-record the affected golden and say why.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "../bench/harness.hpp"
#include "graph/generators.hpp"
#include "serve/scenario.hpp"
#include "sisa/faults.hpp"
#include "sisa/scu.hpp"
#include "sisa/set_store.hpp"

namespace {

using namespace sisa;

graph::Graph
goldenGraph()
{
    graph::RmatParams params;
    params.scale = 8;
    params.edgeFactor = 8;
    return graph::rmat(params, 42);
}

/** "name=value" lines in iteration order (names ascend). */
template <typename Counters>
std::string
dump(const Counters &counters)
{
    std::ostringstream out;
    for (const auto &[name, value] : counters)
        out << name << '=' << value << '\n';
    return out.str();
}

/**
 * Run @p problem through the sisa_run harness; dump its value, its
 * modeled makespan, and its counters.
 */
std::string
runDump(const std::string &problem, const bench::RunConfig &rc)
{
    const bench::RunOutcome out = bench::runProblem(
        problem, goldenGraph(), bench::Mode::Sisa, rc);
    std::ostringstream text;
    text << "value=" << out.value << '\n'
         << "cycles=" << out.cycles << '\n'
         << dump(out.ctx->counters());
    return text.str();
}

/** The CI smokes' placement stack: locality + balanced + dynamic. */
bench::RunConfig
smokeConfig()
{
    bench::RunConfig rc;
    rc.threads = 4;
    rc.cutoff = 2000;
    rc.placement = "locality";
    rc.scu.routing = isa::Routing::Balanced;
    rc.replace = true;
    return rc;
}

TEST(CounterGolden, BarrieredTriangleCount)
{
    EXPECT_EQ(runDump("tc", smokeConfig()),
              "value=3817\n"
              "cycles=43907\n"
              "scu.batch_dispatches=213\n"
              "scu.batch_ops=1299\n"
              "scu.migrations=9\n"
              "scu.pnm_random_ops=322\n"
              "scu.pnm_stream_ops=852\n"
              "scu.pum_ops=683\n"
              "scu.short_circuits=125\n"
              "scu.smb_hits=2191\n"
              "scu.smb_misses=407\n"
              "scu.xvault_transfers=954\n"
              "setops.migration_bytes=80\n"
              "setops.output=3817\n"
              "setops.probes=1302\n"
              "setops.streamed=1571\n"
              "setops.words=2732\n"
              "setops.xvault_bytes=23352\n"
              "setops.xvault_reduce_bytes=9768\n");
}

TEST(CounterGolden, BronKerboschSerialCreateDestroy)
{
    bench::RunConfig rc;
    rc.threads = 2;
    rc.cutoff = 40;
    EXPECT_EQ(runDump("mc", rc),
              "value=80\n"
              "cycles=132319\n"
              "scu.batch_dispatches=131\n"
              "scu.batch_ops=326\n"
              "scu.pnm_random_ops=148\n"
              "scu.pnm_stream_ops=219\n"
              "scu.pum_ops=416\n"
              "scu.short_circuits=47\n"
              "scu.smb_hits=1554\n"
              "scu.smb_misses=64\n"
              "scu.xvault_transfers=278\n"
              "setops.output=419\n"
              "setops.probes=130\n"
              "setops.streamed=130\n"
              "setops.words=1208\n"
              "setops.xvault_bytes=8832\n"
              "setops.xvault_reduce_bytes=1688\n");
}

TEST(CounterGolden, AsyncTriangleCount)
{
    bench::RunConfig rc = smokeConfig();
    rc.scu.asyncDepth = 8; // async=on
    EXPECT_EQ(runDump("tc", rc),
              "value=3817\n"
              "cycles=20340\n"
              "scu.async_dispatches=213\n"
              "scu.async_drains=4\n"
              "scu.async_syncs=82\n"
              "scu.batch_dispatches=213\n"
              "scu.batch_ops=1299\n"
              "scu.migrations=9\n"
              "scu.pnm_random_ops=322\n"
              "scu.pnm_stream_ops=852\n"
              "scu.pum_ops=683\n"
              "scu.short_circuits=125\n"
              "scu.smb_hits=2191\n"
              "scu.smb_misses=407\n"
              "scu.xvault_transfers=954\n"
              "setops.migration_bytes=80\n"
              "setops.output=3817\n"
              "setops.probes=1302\n"
              "setops.streamed=1571\n"
              "setops.words=2732\n"
              "setops.xvault_bytes=23352\n"
              "setops.xvault_reduce_bytes=9768\n");
}

TEST(CounterGolden, FaultCampaignTriangleCount)
{
    bench::RunConfig rc = smokeConfig();
    const auto faults = isa::parseFaultSpec(
        "seed=7,corrupt=0.01,stall=0.005,drop=0.005,fail=3@2");
    ASSERT_TRUE(faults.has_value());
    rc.scu.faults = *faults;
    EXPECT_EQ(runDump("tc", rc),
              "value=3817\n"
              "cycles=64325\n"
              "scu.batch_dispatches=213\n"
              "scu.batch_ops=1299\n"
              "scu.checksum_verifies=2078\n"
              "scu.lane_stalls=4\n"
              "scu.migrations=11\n"
              "scu.pnm_random_ops=322\n"
              "scu.pnm_stream_ops=852\n"
              "scu.pum_ops=683\n"
              "scu.quarantines=1\n"
              "scu.retries=19\n"
              "scu.short_circuits=125\n"
              "scu.smb_hits=2191\n"
              "scu.smb_misses=407\n"
              "scu.xvault_transfers=904\n"
              "setops.migration_bytes=84\n"
              "setops.output=3817\n"
              "setops.probes=1302\n"
              "setops.recovery_bytes=168\n"
              "setops.streamed=1571\n"
              "setops.words=2732\n"
              "setops.xvault_bytes=22020\n"
              "setops.xvault_reduce_bytes=9496\n");
}

TEST(CounterGolden, AsyncFaultCampaignTriangleCount)
{
    // The permanent-failure fence: the dispatch carrying fail=3@2
    // drains the window and runs barriered, recovery included.
    bench::RunConfig rc = smokeConfig();
    rc.scu.asyncDepth = 8; // async=on
    const auto faults = isa::parseFaultSpec(
        "seed=7,corrupt=0.01,stall=0.005,drop=0.005,fail=3@2");
    ASSERT_TRUE(faults.has_value());
    rc.scu.faults = *faults;
    EXPECT_EQ(runDump("tc", rc),
              "value=3817\n"
              "cycles=41244\n"
              "scu.async_dispatches=212\n"
              "scu.async_drains=5\n"
              "scu.async_syncs=103\n"
              "scu.batch_dispatches=213\n"
              "scu.batch_ops=1299\n"
              "scu.checksum_verifies=2078\n"
              "scu.lane_stalls=4\n"
              "scu.migrations=11\n"
              "scu.pnm_random_ops=322\n"
              "scu.pnm_stream_ops=852\n"
              "scu.pum_ops=683\n"
              "scu.quarantines=1\n"
              "scu.retries=19\n"
              "scu.short_circuits=125\n"
              "scu.smb_hits=2191\n"
              "scu.smb_misses=407\n"
              "scu.xvault_transfers=904\n"
              "setops.migration_bytes=84\n"
              "setops.output=3817\n"
              "setops.probes=1302\n"
              "setops.recovery_bytes=168\n"
              "setops.streamed=1571\n"
              "setops.words=2732\n"
              "setops.xvault_bytes=22020\n"
              "setops.xvault_reduce_bytes=9496\n");
}

TEST(CounterGolden, CreditServingQueryAccounts)
{
    serve::ScenarioConfig config;
    config.policy = isa::SchedPolicy::Credit;
    config.quantum = 10000;
    config.placement = "locality";
    config.scu.routing = isa::Routing::Balanced;
    config.queries = {{.problem = "tc", .cutoff = 500},
                      {.problem = "mc", .cutoff = 40}};
    const serve::ScenarioReport report =
        serve::serveMixedWorkload(goldenGraph(), config);
    std::ostringstream text;
    for (const serve::QueryReport &q : report.queries) {
        text << "query " << q.id << ' ' << q.problem
             << " value=" << q.value << '\n'
             << dump(q.account.counters);
    }
    EXPECT_EQ(text.str(), "query 0 tc value=505\n"
                          "scu.batch_dispatches=18\n"
                          "scu.batch_ops=146\n"
                          "scu.pnm_random_ops=28\n"
                          "scu.pnm_stream_ops=101\n"
                          "scu.pum_ops=81\n"
                          "scu.short_circuits=17\n"
                          "scu.smb_hits=248\n"
                          "scu.smb_misses=44\n"
                          "scu.xvault_transfers=102\n"
                          "setops.output=543\n"
                          "setops.probes=108\n"
                          "setops.streamed=150\n"
                          "setops.words=324\n"
                          "setops.xvault_bytes=2520\n"
                          "setops.xvault_reduce_bytes=1112\n"
                          "query 1 mc value=40\n"
                          "scu.pum_ops=80\n"
                          "scu.smb_hits=238\n"
                          "scu.smb_misses=2\n");
}

TEST(CounterGolden, DenseBatchKeepsTouchedZeroKeys)
{
    // Dense-vs-dense ops stream no elements and probe nothing, yet
    // recordWork still touches setops.streamed/probes with delta 0:
    // those keys must be present with value 0, in the context and in
    // the bound query's account alike. No SMB: every SM lookup is a
    // DRAM access (scu.sm_dram_lookups).
    isa::SetStore store(512);
    isa::ScuConfig cfg;
    cfg.smbEnabled = false;
    isa::Scu scu(store, cfg, 1);
    std::vector<isa::SetId> ids;
    for (sets::Element base = 0; base < 4; ++base) {
        std::vector<sets::Element> elems;
        for (sets::Element e = base; e < 512; e += 3 + base)
            elems.push_back(e);
        ids.push_back(
            store.createFromSorted(elems, sets::SetRepr::DenseBitvector));
    }
    sim::SimContext ctx(1);
    ctx.bindQuery(3);
    isa::BatchRequest req;
    req.intersectCard(ids[0], ids[1]);
    req.intersectCard(ids[2], ids[3]);
    req.unionCard(ids[1], ids[2]);
    scu.dispatchBatch(ctx, 0, req);
    EXPECT_EQ(dump(ctx.counters()) + "account\n" +
                  dump(ctx.queryAccount(3).counters),
              "scu.batch_dispatches=1\n"
              "scu.batch_ops=3\n"
              "scu.pnm_stream_ops=3\n"
              "scu.pum_ops=3\n"
              "scu.sm_dram_lookups=6\n"
              "scu.xvault_transfers=3\n"
              "setops.output=84\n"
              "setops.probes=0\n"
              "setops.streamed=0\n"
              "setops.words=24\n"
              "setops.xvault_bytes=192\n"
              "setops.xvault_reduce_bytes=16\n"
              "account\n"
              "scu.batch_dispatches=1\n"
              "scu.batch_ops=3\n"
              "scu.pnm_stream_ops=3\n"
              "scu.pum_ops=3\n"
              "scu.sm_dram_lookups=6\n"
              "scu.xvault_transfers=3\n"
              "setops.output=84\n"
              "setops.probes=0\n"
              "setops.streamed=0\n"
              "setops.words=24\n"
              "setops.xvault_bytes=192\n"
              "setops.xvault_reduce_bytes=16\n");
}

TEST(CounterGolden, SerialIntersectManyMixedProbe)
{
    // A dense accumulator meets sparse operands: each fold is priced
    // by the SA-vs-DB mixed plan (probe vs stream), the one charge
    // whose backend counter is chosen per call.
    isa::SetStore store(4096);
    isa::Scu scu(store, isa::ScuConfig{}, 1);
    std::vector<sets::Element> dense_elems, small, large;
    for (sets::Element e = 0; e < 4096; e += 2)
        dense_elems.push_back(e);
    for (sets::Element e = 0; e < 4096; e += 512)
        small.push_back(e);
    for (sets::Element e = 0; e < 4096; e += 3)
        large.push_back(e);
    const isa::SetId dense = store.createFromSorted(
        dense_elems, sets::SetRepr::DenseBitvector);
    const isa::SetId dense_b = store.createFromSorted(
        dense_elems, sets::SetRepr::DenseBitvector);
    const isa::SetId sa_small =
        store.createFromSorted(small, sets::SetRepr::SparseArray);
    const isa::SetId sa_large =
        store.createFromSorted(large, sets::SetRepr::SparseArray);
    sim::SimContext ctx(1);
    // Two probe plans and one stream plan: a swapped backend mapping
    // changes the pinned counts.
    scu.intersectMany(ctx, 0, {dense, sa_small});
    scu.intersectMany(ctx, 0, {dense_b, sa_small});
    scu.intersectMany(ctx, 0, {dense, dense_b, sa_large});
    EXPECT_EQ(dump(ctx.counters()),
              "scu.pnm_random_ops=2\n"
              "scu.pnm_stream_ops=1\n"
              "scu.pum_ops=3\n"
              "scu.smb_hits=3\n"
              "scu.smb_misses=4\n"
              "setops.output=699\n"
              "setops.probes=1382\n"
              "setops.streamed=1382\n"
              "setops.words=0\n");
}

} // namespace
