/** @file Correctness tests for the hand-tuned and paradigm baselines. */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "baselines/bk_baseline.hpp"
#include "baselines/clustering_baseline.hpp"
#include "baselines/csr_view.hpp"
#include "baselines/kclique_baseline.hpp"
#include "baselines/paradigms.hpp"
#include "baselines/tc_baseline.hpp"
#include "baselines/vf2_baseline.hpp"
#include "algorithms/subgraph_iso.hpp"
#include "graph/degeneracy.hpp"
#include "graph/generators.hpp"
#include "reference.hpp"

namespace {

using namespace sisa;
using namespace sisa::baselines;
using sisa::tests::refKCliqueCount;
using sisa::tests::refMaximalCliques;
using sisa::tests::refStarEmbeddings;
using sisa::tests::refTriangleCount;

struct Harness
{
    explicit Harness(const graph::Graph &g, std::uint32_t threads = 2)
        : cpu(sim::CpuParams{}, threads), ctx(threads), view(g, cpu)
    {
    }

    sim::CpuModel cpu;
    sim::SimContext ctx;
    CsrView view;
};

graph::Graph
oriented(const graph::Graph &g)
{
    return g.orientByRank(graph::exactDegeneracyOrder(g).rank);
}

TEST(CsrViewTest, ChargedAccessorsAreFunctional)
{
    const graph::Graph g = graph::complete(5);
    Harness h(g);
    EXPECT_EQ(h.view.neighbors(h.ctx, 0, 0).size(), 4u);
    EXPECT_TRUE(h.view.hasEdgeBinary(h.ctx, 0, 0, 4));
    EXPECT_FALSE(h.view.hasEdgeBinary(h.ctx, 0, 0, 0));
    EXPECT_EQ(h.view.mergeCountCommon(h.ctx, 0, 0, 1), 3u);
    EXPECT_GT(h.ctx.threadCycles(0), 0u);
}

TEST(TcBaseline, MatchesReference)
{
    const graph::Graph g = graph::erdosRenyi(60, 240, 5);
    const graph::Graph d = oriented(g);
    Harness h(d);
    EXPECT_EQ(triangleCountBaseline(h.view, h.ctx),
              refTriangleCount(g));
}

TEST(TcBaseline, CountsCyclesPerThread)
{
    const graph::Graph g = graph::erdosRenyi(60, 240, 5);
    const graph::Graph d = oriented(g);
    Harness h(d, 4);
    triangleCountBaseline(h.view, h.ctx);
    std::uint32_t active = 0;
    for (sim::ThreadId t = 0; t < 4; ++t)
        active += h.ctx.threadCycles(t) > 0;
    EXPECT_EQ(active, 4u);
}

TEST(BkBaseline, MatchesReference)
{
    const graph::Graph g = graph::erdosRenyi(25, 90, 7);
    Harness h(g);
    const auto result = maximalCliquesBaseline(h.view, h.ctx);
    EXPECT_EQ(result.cliqueCount, refMaximalCliques(g).size());
}

TEST(BkBaseline, CompleteGraphSingleClique)
{
    const graph::Graph g = graph::complete(8);
    Harness h(g);
    const auto result = maximalCliquesBaseline(h.view, h.ctx);
    EXPECT_EQ(result.cliqueCount, 1u);
    EXPECT_EQ(result.maxCliqueSize, 8u);
}

TEST(KcBaseline, MatchesReference)
{
    const graph::Graph g = graph::erdosRenyi(35, 180, 3);
    const graph::Graph d = oriented(g);
    Harness h(d);
    for (std::uint32_t k : {3u, 4u, 5u}) {
        EXPECT_EQ(kCliqueCountBaseline(h.view, h.ctx, k),
                  refKCliqueCount(g, k))
            << "k=" << k;
    }
}

TEST(KcBaseline, ListsDistinctCliques)
{
    const graph::Graph g = graph::complete(6);
    const graph::Graph d = oriented(g);
    Harness h(d);
    std::set<std::vector<graph::VertexId>> cliques;
    kCliqueListBaseline(
        h.view, h.ctx, 3,
        [&](sim::ThreadId, const std::vector<graph::VertexId> &c) {
            std::vector<graph::VertexId> s(c);
            std::sort(s.begin(), s.end());
            cliques.insert(s);
        });
    EXPECT_EQ(cliques.size(), 20u);
}

TEST(KcsBaseline, FindsStarsOfPlantedClique)
{
    // K5 + pendant: 3-cliques extend within K5.
    graph::GraphBuilder b(6);
    for (graph::VertexId u = 0; u < 5; ++u) {
        for (graph::VertexId v = u + 1; v < 5; ++v)
            b.addEdge(u, v);
    }
    b.addEdge(4, 5);
    const graph::Graph g = b.build();
    const graph::Graph d = oriented(g);
    Harness ho(d);
    Harness hu(g);
    const std::uint64_t stars =
        kCliqueStarBaseline(ho.view, hu.view, ho.ctx, 3);
    // Every 3-clique of K5 grows to the same star (all of K5),
    // so exactly one distinct star exists.
    EXPECT_EQ(stars, 1u);
}

TEST(ClusteringBaseline, JaccardThresholds)
{
    const graph::Graph g = graph::erdosRenyi(40, 160, 23);
    Harness h(g);
    const std::uint64_t all = jarvisPatrickBaseline(
        h.view, h.ctx, ClusterCoefficient::Jaccard, -1.0);
    EXPECT_EQ(all, g.numEdges()); // tau < 0 admits every edge.
    Harness h2(g);
    const std::uint64_t none = jarvisPatrickBaseline(
        h2.view, h2.ctx, ClusterCoefficient::Jaccard, 1.1);
    EXPECT_EQ(none, 0u); // Jaccard never exceeds 1.
}

TEST(ClusteringBaseline, CommonNeighborCountsMatchSetCentric)
{
    const graph::Graph g = graph::erdosRenyi(40, 160, 29);
    Harness h(g);
    // tau = 0.5 with TotalNeighbors counts edges with du+dv-cn > 0.5,
    // i.e., all edges between non-isolated endpoints.
    const std::uint64_t count = jarvisPatrickBaseline(
        h.view, h.ctx, ClusterCoefficient::TotalNeighbors, 0.5);
    EXPECT_EQ(count, g.numEdges());
}

TEST(Vf2Baseline, StarCountsMatchReference)
{
    const graph::Graph g = graph::erdosRenyi(25, 60, 37);
    Harness h(g);
    EXPECT_EQ(subgraphIsoBaseline(h.view, h.ctx,
                                  algorithms::starPattern(2)),
              refStarEmbeddings(g, 2));
}

TEST(Vf2Baseline, TriangleEmbeddings)
{
    const graph::Graph g = graph::erdosRenyi(25, 100, 41);
    Harness h(g);
    EXPECT_EQ(subgraphIsoBaseline(h.view, h.ctx,
                                  algorithms::cliquePattern(3)),
              6 * refTriangleCount(g));
}

TEST(Vf2Baseline, LabelsPrune)
{
    graph::Graph g = graph::erdosRenyi(30, 120, 43);
    g.setVertexLabels(graph::randomVertexLabels(30, 3, 7));
    Harness h1(g);
    const auto unlabeled = subgraphIsoBaseline(
        h1.view, h1.ctx, algorithms::starPattern(2));
    Harness h2(g);
    const auto labeled = subgraphIsoBaseline(
        h2.view, h2.ctx, algorithms::labeledStarPattern(2, 3));
    EXPECT_LT(labeled, unlabeled);
    // Labels prune recursion: fewer cycles too (the paper's "labeled
    // graphs are faster to process").
    EXPECT_LT(h2.ctx.makespan(), h1.ctx.makespan());
}

TEST(Paradigms, ExpansionKCliqueMatchesReference)
{
    const graph::Graph g = graph::erdosRenyi(25, 100, 3);
    Harness h(g);
    EXPECT_EQ(expansionKCliqueCount(h.view, h.ctx, 3),
              refKCliqueCount(g, 3));
    Harness h2(g);
    EXPECT_EQ(expansionKCliqueCount(h2.view, h2.ctx, 4),
              refKCliqueCount(g, 4));
}

TEST(Paradigms, ExpansionMaximalCliquesMatchesReference)
{
    const graph::Graph g = graph::erdosRenyi(18, 60, 7);
    Harness h(g);
    const auto ref = refMaximalCliques(g);
    std::uint64_t max_size = 0;
    for (const auto &c : ref)
        max_size = std::max<std::uint64_t>(max_size, c.size());
    EXPECT_EQ(expansionMaximalCliques(
                  h.view, h.ctx, static_cast<std::uint32_t>(max_size)),
              ref.size());
}

TEST(Paradigms, JoinKCliqueMatchesReference)
{
    const graph::Graph g = graph::erdosRenyi(25, 100, 11);
    Harness h(g);
    EXPECT_EQ(joinKCliqueCount(h.view, h.ctx, 3),
              refKCliqueCount(g, 3));
    Harness h2(g);
    EXPECT_EQ(joinKCliqueCount(h2.view, h2.ctx, 4),
              refKCliqueCount(g, 4));
}

TEST(Paradigms, ExpansionSlowerThanTunedBaseline)
{
    // The Section 9.2 gap: the tuned oriented kernel beats the
    // programmability-first expansion paradigm by a wide margin.
    const graph::Graph g = graph::erdosRenyi(60, 400, 13);
    const graph::Graph d = oriented(g);
    Harness tuned(d);
    kCliqueCountBaseline(tuned.view, tuned.ctx, 4);
    Harness expansion(g);
    expansionKCliqueCount(expansion.view, expansion.ctx, 4);
    EXPECT_GT(expansion.ctx.makespan(), 2 * tuned.ctx.makespan());
}

// Pattern-cutoff golden of the count-only baseline loops (see
// CutoffGolden in test_algorithms.cpp): per-thread patterns(), value
// and modeled makespan under three cutoffs, recorded with the
// per-pattern countPattern loops.
std::string
baselineCutoffDump(const std::string &problem, std::uint64_t cutoff)
{
    graph::RmatParams params;
    params.scale = 8;
    params.edgeFactor = 8;
    const graph::Graph d = oriented(graph::rmat(params, 42));
    constexpr std::uint32_t threads = 4;
    Harness h(d, threads);
    h.ctx.setPatternCutoff(cutoff);
    const std::uint64_t value =
        problem == "tc" ? triangleCountBaseline(h.view, h.ctx)
                        : kCliqueCountBaseline(h.view, h.ctx, 4);
    std::ostringstream out;
    out << "value=" << value << " makespan=" << h.ctx.makespan()
        << " patterns=";
    for (sim::ThreadId t = 0; t < threads; ++t)
        out << (t ? "," : "") << h.ctx.patterns(t);
    return out.str();
}

TEST(BaselineCutoffGolden, TriangleCount)
{
    EXPECT_EQ(baselineCutoffDump("tc", 1),
              "value=4 makespan=311 patterns=1,1,1,1");
    EXPECT_EQ(baselineCutoffDump("tc", 40),
              "value=176 makespan=1819 patterns=40,40,40,40");
    EXPECT_EQ(baselineCutoffDump("tc", 1000),
              "value=3206 makespan=34200 patterns=1000,924,1000,276");
}

TEST(BaselineCutoffGolden, KCliqueCount)
{
    EXPECT_EQ(baselineCutoffDump("kc4", 1),
              "value=4 makespan=672 patterns=1,1,1,1");
    EXPECT_EQ(baselineCutoffDump("kc4", 40),
              "value=162 makespan=5220 patterns=40,40,40,40");
    EXPECT_EQ(baselineCutoffDump("kc4", 1000),
              "value=3374 makespan=77789 patterns=1000,1000,1000,371");
}

} // namespace
