/**
 * @file
 * Quickstart: the SISA public API in one page.
 *
 * Builds a small graph, materializes its neighborhoods as SISA sets
 * (large ones as dense bitvectors, small ones as sparse arrays), runs
 * a few set-centric queries through the simulated SISA hardware, and
 * prints what the hardware did.
 *
 *   ./quickstart
 */

#include <cstdio>

#include "algorithms/triangle_count.hpp"
#include "core/sisa_engine.hpp"
#include "core/vertex_set.hpp"
#include "graph/generators.hpp"

using namespace sisa;

int
main()
{
    // 1. A power-law graph with a few hubs (bio-network style).
    graph::ChungLuParams params;
    params.n = 1000;
    params.m = 15000;
    params.exponent = 1.9;
    params.hubs = 8;
    params.hubDegreeFraction = 0.35;
    const graph::Graph g = graph::chungLu(params, /*seed=*/1);
    std::printf("graph: %s\n", g.describe().c_str());

    // 2. A SISA engine: the SCU + PUM/PNM hardware model.
    core::SisaEngine engine(g.numVertices(), isa::ScuConfig{},
                            /*num_threads=*/8);
    sim::SimContext ctx(8);

    // 3. Neighborhoods as SISA sets (t = 0.4, 10% storage budget).
    algorithms::OrientedSetGraph osg(g, engine);
    std::printf("dense neighborhoods: %u (budget-limited)\n",
                osg.sets->assignment().denseCount);

    // 4. Set algebra through the VertexSet abstraction, on the
    //    undirected neighborhoods of the two biggest hubs.
    core::SetGraph undirected(g, engine);
    graph::VertexId hub1 = 0, hub2 = 1;
    for (graph::VertexId v = 0; v < g.numVertices(); ++v) {
        if (g.degree(v) > g.degree(hub1)) {
            hub2 = hub1;
            hub1 = v;
        } else if (v != hub1 && g.degree(v) > g.degree(hub2)) {
            hub2 = v;
        }
    }
    auto na = core::VertexSet::borrow(engine, ctx, 0,
                                      undirected.neighborhood(hub1));
    auto nb = core::VertexSet::borrow(engine, ctx, 0,
                                      undirected.neighborhood(hub2));
    std::printf("|N(%u)| = %llu, |N(%u)| = %llu, common neighbors = "
                "%llu\n",
                hub1, static_cast<unsigned long long>(na.size()),
                hub2, static_cast<unsigned long long>(nb.size()),
                static_cast<unsigned long long>(
                    na.intersectCount(nb)));

    // 5. A full set-centric algorithm: triangle counting.
    const std::uint64_t triangles =
        algorithms::triangleCount(osg, ctx);
    std::printf("triangles: %llu\n",
                static_cast<unsigned long long>(triangles));

    // 6. What the hardware did.
    std::printf("simulated cycles (makespan): %llu\n",
                static_cast<unsigned long long>(ctx.makespan()));
    std::printf("  PUM bulk-bitwise ops: %llu\n",
                static_cast<unsigned long long>(
                    ctx.counter(sim::Counter::PumOps)));
    std::printf("  PNM streaming ops:    %llu\n",
                static_cast<unsigned long long>(
                    ctx.counter(sim::Counter::PnmStreamOps)));
    std::printf("  PNM random ops:       %llu\n",
                static_cast<unsigned long long>(
                    ctx.counter(sim::Counter::PnmRandomOps)));
    std::printf("  SMB hits/misses:      %llu/%llu\n",
                static_cast<unsigned long long>(
                    ctx.counter(sim::Counter::SmbHits)),
                static_cast<unsigned long long>(
                    ctx.counter(sim::Counter::SmbMisses)));
    return 0;
}
