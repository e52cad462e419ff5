/**
 * @file
 * Section 9.2 SCU-cache sensitivity reproduction: the Set Metadata
 * Buffer on/off, private vs shared, and a size sweep, for kcc-4 with
 * T = 1 and T = 32. Expected shape: disabling the SMB costs ~1.5x at
 * T=1 and less at high T (more threads dilute per-thread hit rates);
 * a single shared SMB adds a small (~1%) slowdown from its extra
 * access latency.
 */

#include <iostream>

#include "graph/dataset_registry.hpp"
#include "harness.hpp"
#include "support/table.hpp"

using namespace sisa;
using namespace sisa::bench;

namespace {

struct CacheRun
{
    std::uint64_t cycles;
    double hitRate;
};

CacheRun
run(const graph::Graph &g, std::uint32_t threads,
    const isa::ScuConfig &scu)
{
    RunConfig config;
    config.threads = threads;
    config.cutoff = 2000;
    config.scu = scu;
    const RunOutcome outcome =
        runProblem("kcc-4", g, Mode::Sisa, config);
    const double hits = static_cast<double>(
        outcome.ctx->counter(sim::Counter::SmbHits));
    const double misses = static_cast<double>(
        outcome.ctx->counter(sim::Counter::SmbMisses));
    return {outcome.cycles,
            hits + misses == 0.0 ? 0.0 : hits / (hits + misses)};
}

} // namespace

int
main()
{
    // bio-DM-CX has n = 4000 > the 2048 entries of a 32KB SMB, so
    // metadata capacity genuinely matters.
    const graph::Graph g = graph::makeDataset("bio-DM-CX");
    std::cout << "kcc-4 on bio-DM-CX analogue (" << g.describe()
              << ")\n\n";

    for (const std::uint32_t threads : {1u, 32u}) {
        support::TextTable table("SMB sensitivity, T=" +
                                 std::to_string(threads));
        table.setHeader({"configuration", "Mcycles", "vs baseline",
                         "hit-rate"});

        isa::ScuConfig baseline; // 32KB private SMB.
        const CacheRun base = run(g, threads, baseline);
        auto add = [&](const std::string &name,
                       const isa::ScuConfig &scu) {
            const CacheRun r = run(g, threads, scu);
            table.addRow(
                {name,
                 support::TextTable::formatDouble(
                     static_cast<double>(r.cycles) / 1e6, 2),
                 support::TextTable::formatDouble(
                     static_cast<double>(r.cycles) /
                         static_cast<double>(base.cycles),
                     3) + "x",
                 support::TextTable::formatDouble(r.hitRate, 3)});
        };

        table.addRow({"private 32KB (default)",
                      support::TextTable::formatDouble(
                          static_cast<double>(base.cycles) / 1e6, 2),
                      "1.000x",
                      support::TextTable::formatDouble(base.hitRate,
                                                       3)});

        isa::ScuConfig no_smb;
        no_smb.smbEnabled = false;
        add("no SMB (SM in DRAM)", no_smb);

        isa::ScuConfig shared;
        shared.smbShared = true;
        add("shared 32KB (+latency)", shared);

        isa::ScuConfig small;
        small.smbBytes = 4 * 1024;
        add("private 4KB", small);

        isa::ScuConfig large;
        large.smbBytes = 256 * 1024;
        add("private 256KB", large);

        table.print(std::cout);
        std::cout << '\n';
    }
    std::cout << "Shape check: no-SMB is the slowest configuration; "
                 "a too-small SMB loses hit rate; the shared SMB "
                 "adds a small latency penalty.\n";
    return 0;
}
