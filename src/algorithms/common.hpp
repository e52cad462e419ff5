/**
 * @file
 * Shared plumbing for the set-centric algorithm implementations: the
 * degeneracy-oriented SetGraph bundle most pattern-matching kernels
 * start from (Sections 5.1.3, 5.4, 7.1), and the simulated-parallel
 * loop helper that partitions work across logical threads.
 */

#ifndef SISA_ALGORITHMS_COMMON_HPP
#define SISA_ALGORITHMS_COMMON_HPP

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>

#include "core/set_engine.hpp"
#include "core/set_graph.hpp"
#include "graph/degeneracy.hpp"
#include "graph/graph.hpp"

namespace sisa::algorithms {

using core::SetEngine;
using core::SetGraph;
using graph::Graph;
using graph::VertexId;

/**
 * A graph's exact degeneracy order and the graph oriented by it.
 * Read-only once built, so one copy can back the sets of many
 * engines (the serving layer's tenants share one per problem).
 */
struct Orientation
{
    graph::DegeneracyResult degeneracy;
    Graph oriented; ///< Arcs follow the degeneracy order.

    explicit Orientation(const Graph &graph)
        : degeneracy(graph::exactDegeneracyOrder(graph)),
          oriented(graph.orientByRank(degeneracy.rank))
    {
    }
};

/**
 * A graph oriented by its degeneracy ordering together with the
 * SetGraph over the out-neighborhoods -- the common preprocessing of
 * the k-clique family (Algorithm 3, Table 4) and triangle counting.
 */
struct OrientedSetGraph
{
    const Graph *original; ///< The undirected input graph.
    std::shared_ptr<const Orientation> orientation;
    const Graph &oriented; ///< orientation->oriented.
    std::unique_ptr<SetGraph> sets; ///< N+(v) as SISA sets.

    OrientedSetGraph(const Graph &graph, SetEngine &engine,
                     const sets::ReprPolicy &policy = {})
        : OrientedSetGraph(graph, std::make_shared<const Orientation>(graph),
                           engine, policy)
    {
    }

    /** N+(v) in @p engine over an orientation of @p graph built once. */
    OrientedSetGraph(const Graph &graph,
                     std::shared_ptr<const Orientation> shared,
                     SetEngine &engine,
                     const sets::ReprPolicy &policy = {})
        : original(&graph), orientation(std::move(shared)),
          oriented(orientation->oriented),
          sets(std::make_unique<SetGraph>(oriented, engine, policy))
    {
    }
};

/**
 * Simulated parallel-for: statically partitions [0, total) into
 * contiguous blocks, one per logical thread, and runs them
 * sequentially while each charges its own thread's cycle counters.
 * `fn(tid, i)` must charge all its costs to `tid`.
 */
template <typename Fn>
void
parallelFor(sim::SimContext &ctx, std::uint64_t total, Fn &&fn)
{
    for (sim::ThreadId tid = 0; tid < ctx.numThreads(); ++tid) {
        const sim::Range range =
            sim::blockRange(total, ctx.numThreads(), tid);
        for (std::uint64_t i = range.begin; i != range.end; ++i) {
            if (ctx.cutoffReached(tid))
                break;
            fn(tid, i);
        }
    }
}

/**
 * Chunked variant of parallelFor for batched dispatch: each logical
 * thread walks its contiguous block in sub-ranges of at most
 * @p chunk indices, calling `fn(tid, begin, end)` per sub-range
 * (cutoffs are checked between chunks; `fn` handles finer grain).
 */
template <typename Fn>
void
parallelForChunks(sim::SimContext &ctx, std::uint64_t total,
                  std::uint64_t chunk, Fn &&fn)
{
    for (sim::ThreadId tid = 0; tid < ctx.numThreads(); ++tid) {
        const sim::Range range =
            sim::blockRange(total, ctx.numThreads(), tid);
        for (std::uint64_t begin = range.begin;
             begin < range.end && !ctx.cutoffReached(tid);
             begin += chunk) {
            fn(tid, begin, std::min(range.end, begin + chunk));
        }
    }
}

} // namespace sisa::algorithms

#endif // SISA_ALGORITHMS_COMMON_HPP
