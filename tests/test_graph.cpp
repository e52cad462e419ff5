/** @file Unit tests for the graph substrate. */

#include <gtest/gtest.h>

#include <numeric>
#include <set>
#include <sstream>

#include "graph/dataset_registry.hpp"
#include "graph/degeneracy.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/io.hpp"
#include "support/rng.hpp"

namespace {

using namespace sisa::graph;

Graph
triangleWithTail()
{
    // 0-1-2 triangle plus a tail 2-3.
    GraphBuilder b(4);
    b.addEdge(0, 1);
    b.addEdge(1, 2);
    b.addEdge(0, 2);
    b.addEdge(2, 3);
    return b.build();
}

TEST(GraphBuilder, CountsAndMirrors)
{
    const Graph g = triangleWithTail();
    EXPECT_EQ(g.numVertices(), 4u);
    EXPECT_EQ(g.numEdges(), 4u);
    EXPECT_EQ(g.degree(2), 3u);
    EXPECT_EQ(g.degree(3), 1u);
    EXPECT_TRUE(g.hasEdge(0, 1));
    EXPECT_TRUE(g.hasEdge(1, 0)); // Mirrored.
    EXPECT_FALSE(g.hasEdge(0, 3));
}

TEST(GraphBuilder, DeduplicatesAndDropsSelfLoops)
{
    GraphBuilder b(3);
    b.addEdge(0, 1);
    b.addEdge(1, 0); // Duplicate in the other direction.
    b.addEdge(0, 1); // Exact duplicate.
    b.addEdge(2, 2); // Self loop.
    const Graph g = b.build();
    EXPECT_EQ(g.numEdges(), 1u);
    EXPECT_EQ(g.degree(2), 0u);
}

TEST(GraphBuilder, NeighborsSorted)
{
    GraphBuilder b(5);
    b.addEdge(0, 4);
    b.addEdge(0, 2);
    b.addEdge(0, 3);
    b.addEdge(0, 1);
    const Graph g = b.build();
    const auto nbrs = g.neighbors(0);
    EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
    EXPECT_EQ(nbrs.size(), 4u);
}

TEST(GraphBuilder, DirectedKeepsArcDirection)
{
    GraphBuilder b(3, /*directed=*/true);
    b.addEdge(0, 1);
    b.addEdge(1, 2);
    const Graph g = b.build();
    EXPECT_TRUE(g.hasEdge(0, 1));
    EXPECT_FALSE(g.hasEdge(1, 0));
    EXPECT_EQ(g.numEdges(), 2u);
}

// --- Randomized differential: GraphBuilder vs a std::set reference ---

using Arc = std::pair<VertexId, VertexId>;

/** The arcs a builder must store: self-loops gone, mirrors added. */
std::set<Arc>
referenceArcs(const std::vector<Arc> &edges, bool directed)
{
    std::set<Arc> arcs;
    for (auto [u, v] : edges) {
        if (u == v)
            continue;
        arcs.emplace(u, v);
        if (!directed)
            arcs.emplace(v, u);
    }
    return arcs;
}

/** Offsets, adjacency and numEdges() must equal the reference CSR. */
void
expectCsr(const Graph &g, VertexId n, bool directed,
          const std::set<Arc> &arcs)
{
    ASSERT_EQ(g.numVertices(), n);
    ASSERT_EQ(g.directed(), directed);
    EXPECT_EQ(g.numEdges(), directed ? arcs.size() : arcs.size() / 2);
    std::vector<std::uint64_t> offsets(static_cast<std::size_t>(n) + 1, 0);
    std::vector<VertexId> adj;
    for (auto [u, v] : arcs) { // std::set order: by u, then by v.
        ++offsets[u + 1];
        adj.push_back(v);
    }
    std::partial_sum(offsets.begin(), offsets.end(), offsets.begin());
    ASSERT_EQ(std::vector<std::uint64_t>(g.offsetsData(),
                                         g.offsetsData() + n + 1),
              offsets);
    EXPECT_EQ(std::vector<VertexId>(g.adjData(), g.adjData() + adj.size()),
              adj);
}

Graph
buildFrom(VertexId n, bool directed, const std::vector<Arc> &edges)
{
    GraphBuilder b(n, directed);
    for (auto [u, v] : edges)
        b.addEdge(u, v);
    EXPECT_EQ(b.pendingEdges(),
              static_cast<std::uint64_t>(std::count_if(
                  edges.begin(), edges.end(),
                  [](const Arc &e) { return e.first != e.second; })));
    return b.build();
}

/**
 * One random edge multiset: endpoints from [0, span) so vertices
 * span..n-1 stay isolated, with exact repeats, reversed repeats and
 * self-loops mixed in.
 */
std::vector<Arc>
randomEdges(sisa::support::Xoshiro256 &rng, VertexId span, std::size_t count)
{
    std::vector<Arc> edges;
    for (std::size_t i = 0; i < count; ++i) {
        const auto u = static_cast<VertexId>(rng.nextBounded(span));
        const auto v = static_cast<VertexId>(rng.nextBounded(span));
        edges.emplace_back(u, v);
        switch (rng.nextBounded(4)) {
          case 0: edges.emplace_back(u, v); break;
          case 1: edges.emplace_back(v, u); break;
          case 2: edges.emplace_back(u, u); break;
          default: break;
        }
    }
    return edges;
}

/** Builder, orientByRank and inducedSubgraph vs the reference. */
void
checkAgainstReference(VertexId n, bool directed,
                      const std::vector<Arc> &edges,
                      sisa::support::Xoshiro256 &rng)
{
    const std::set<Arc> arcs = referenceArcs(edges, directed);
    const Graph g = buildFrom(n, directed, edges);
    expectCsr(g, n, directed, arcs);

    std::vector<VertexId> perm(n);
    std::iota(perm.begin(), perm.end(), 0);
    for (VertexId i = n; i > 1; --i)
        std::swap(perm[i - 1], perm[rng.nextBounded(i)]);

    if (!directed) {
        // perm doubles as a random total order.
        std::set<Arc> oriented;
        for (auto [u, v] : arcs) {
            if (perm[u] < perm[v])
                oriented.emplace(u, v);
        }
        expectCsr(g.orientByRank(perm), n, true, oriented);
    }

    // A random vertex subset in random order, re-numbered densely.
    const auto keep = static_cast<VertexId>(rng.nextBounded(n + 1));
    const std::vector<VertexId> subset(perm.begin(), perm.begin() + keep);
    std::vector<VertexId> remap(n, invalid_vertex);
    for (VertexId i = 0; i < keep; ++i)
        remap[subset[i]] = i;
    std::set<Arc> induced;
    for (auto [u, v] : arcs) {
        if (remap[u] != invalid_vertex && remap[v] != invalid_vertex)
            induced.emplace(remap[u], remap[v]);
    }
    expectCsr(g.inducedSubgraph(subset), keep, directed, induced);
}

TEST(GraphBuilder, RandomizedDifferentialAgainstSetReference)
{
    sisa::support::Xoshiro256 rng(2024);
    for (bool directed : {false, true}) {
        SCOPED_TRACE(directed ? "directed" : "undirected");
        // n = 0 and n = 1 (a lone self-loop).
        checkAgainstReference(0, directed, {}, rng);
        checkAgainstReference(1, directed, {{0, 0}}, rng);
        for (int round = 0; round < 60; ++round) {
            const auto n = static_cast<VertexId>(2 + rng.nextBounded(200));
            // Every third round leaves a tail of isolated vertices.
            const auto span = round % 3 == 0
                                  ? static_cast<VertexId>(1 + n / 2)
                                  : n;
            const std::size_t count = rng.nextBounded(std::uint64_t{4} * n);
            checkAgainstReference(n, directed,
                                  randomEdges(rng, span, count), rng);
        }
        // A hub row fed thousands of repeats in both directions.
        std::vector<Arc> hub;
        for (VertexId i = 0; i < 6000; ++i) {
            const VertexId v = 1 + i % 37;
            hub.emplace_back(i % 2 ? 0 : v, i % 2 ? v : 0);
        }
        checkAgainstReference(50, directed, hub, rng);
    }
}

TEST(Graph, EdgeIndexFindsPosition)
{
    const Graph g = triangleWithTail();
    EXPECT_GE(g.edgeIndex(0, 1), 0);
    EXPECT_EQ(g.edgeIndex(0, 3), -1);
}

TEST(Graph, MaxDegreeAndDegreeSquareSum)
{
    const Graph g = star(5); // Center degree 4, leaves degree 1.
    EXPECT_EQ(g.maxDegree(), 4u);
    EXPECT_EQ(g.degreeSquareSum(), 16u + 4u);
}

TEST(Graph, OrientByRankHalvesArcs)
{
    const Graph g = complete(6);
    std::vector<std::uint32_t> rank(6);
    std::iota(rank.begin(), rank.end(), 0);
    const Graph d = g.orientByRank(rank);
    EXPECT_TRUE(d.directed());
    EXPECT_EQ(d.numEdges(), 15u); // C(6,2) arcs, one per edge.
    EXPECT_TRUE(d.hasEdge(0, 5));
    EXPECT_FALSE(d.hasEdge(5, 0));
    EXPECT_EQ(d.degree(5), 0u); // Last in rank: no out-arcs.
}

TEST(Graph, InducedSubgraphRenumbers)
{
    const Graph g = triangleWithTail();
    const Graph sub = g.inducedSubgraph({0, 1, 2});
    EXPECT_EQ(sub.numVertices(), 3u);
    EXPECT_EQ(sub.numEdges(), 3u); // The triangle survives.
    const Graph sub2 = g.inducedSubgraph({0, 3});
    EXPECT_EQ(sub2.numEdges(), 0u); // 0 and 3 are not adjacent.
}

TEST(Graph, VertexLabels)
{
    Graph g = triangleWithTail();
    g.setVertexLabels({7, 8, 9, 7});
    EXPECT_TRUE(g.hasVertexLabels());
    EXPECT_EQ(g.vertexLabel(2), 9u);
    const Graph sub = g.inducedSubgraph({2, 3});
    EXPECT_EQ(sub.vertexLabel(0), 9u);
    EXPECT_EQ(sub.vertexLabel(1), 7u);
}

TEST(Graph, EdgeLabels)
{
    Graph g = triangleWithTail();
    g.setEdgeLabels([](VertexId u, VertexId v) { return u + v; });
    EXPECT_TRUE(g.hasEdgeLabels());
    EXPECT_EQ(g.edgeLabel(0, 1), 1u);
    EXPECT_EQ(g.edgeLabel(1, 0), 1u); // Symmetric function.
    EXPECT_EQ(g.edgeLabel(2, 3), 5u);
}

TEST(Degeneracy, StarIsOne)
{
    const auto result = exactDegeneracyOrder(star(10));
    EXPECT_EQ(result.degeneracy, 1u);
}

TEST(Degeneracy, CompleteIsNMinusOne)
{
    const auto result = exactDegeneracyOrder(complete(7));
    EXPECT_EQ(result.degeneracy, 6u);
    for (VertexId v = 0; v < 7; ++v)
        EXPECT_EQ(result.coreNumber[v], 6u);
}

TEST(Degeneracy, CycleIsTwo)
{
    const auto result = exactDegeneracyOrder(cycle(9));
    EXPECT_EQ(result.degeneracy, 2u);
}

TEST(Degeneracy, PathIsOne)
{
    const auto result = exactDegeneracyOrder(path(9));
    EXPECT_EQ(result.degeneracy, 1u);
}

TEST(Degeneracy, OrderIsAPermutation)
{
    const Graph g = erdosRenyi(100, 300, 1);
    const auto result = exactDegeneracyOrder(g);
    std::vector<bool> seen(100, false);
    for (VertexId v : result.order) {
        EXPECT_FALSE(seen[v]);
        seen[v] = true;
    }
    for (VertexId v = 0; v < 100; ++v) {
        EXPECT_TRUE(seen[v]);
        EXPECT_EQ(result.order[result.rank[v]], v);
    }
}

TEST(Degeneracy, OrientedOutDegreeBoundedByDegeneracy)
{
    // The defining property of the degeneracy orientation.
    const Graph g = erdosRenyi(200, 800, 3);
    const auto result = exactDegeneracyOrder(g);
    const Graph d = g.orientByRank(result.rank);
    for (VertexId v = 0; v < 200; ++v)
        EXPECT_LE(d.degree(v), result.degeneracy);
}

TEST(Degeneracy, ApproxPeelsEverything)
{
    const Graph g = erdosRenyi(150, 600, 7);
    const auto approx = approxDegeneracyOrder(g, 0.1);
    EXPECT_EQ(approx.order.size(), g.numVertices());
    const auto exact = exactDegeneracyOrder(g);
    // Threshold-based bound: approx degeneracy >= exact, and within
    // the (2 + eps) guarantee of the optimum.
    EXPECT_GE(approx.degeneracy + 1, exact.degeneracy);
    EXPECT_LE(static_cast<double>(approx.degeneracy),
              2.2 * static_cast<double>(exact.degeneracy) + 2.0);
}

TEST(Degeneracy, KCoreOfCompletePlusTail)
{
    // K5 with a pendant vertex: 4-core is exactly the K5.
    GraphBuilder b(6);
    for (VertexId u = 0; u < 5; ++u) {
        for (VertexId v = u + 1; v < 5; ++v)
            b.addEdge(u, v);
    }
    b.addEdge(4, 5);
    const Graph g = b.build();
    const auto core = kCore(g, 4);
    EXPECT_EQ(core.size(), 5u);
    for (VertexId v = 0; v < 5; ++v)
        EXPECT_NE(std::find(core.begin(), core.end(), v), core.end());
}

TEST(Generators, ErdosRenyiEdgeCount)
{
    const Graph g = erdosRenyi(50, 200, 11);
    EXPECT_EQ(g.numVertices(), 50u);
    EXPECT_EQ(g.numEdges(), 200u);
}

TEST(Generators, ErdosRenyiDeterministic)
{
    const Graph a = erdosRenyi(60, 150, 5);
    const Graph b = erdosRenyi(60, 150, 5);
    for (VertexId v = 0; v < 60; ++v)
        EXPECT_EQ(a.degree(v), b.degree(v));
}

TEST(Generators, CompleteStarPathCycle)
{
    EXPECT_EQ(complete(5).numEdges(), 10u);
    EXPECT_EQ(star(5).numEdges(), 4u);
    EXPECT_EQ(path(5).numEdges(), 4u);
    EXPECT_EQ(cycle(5).numEdges(), 5u);
}

TEST(Generators, RmatShape)
{
    RmatParams p;
    p.scale = 8;
    p.edgeFactor = 8;
    const Graph g = rmat(p, 42);
    EXPECT_EQ(g.numVertices(), 256u);
    EXPECT_GT(g.numEdges(), 500u); // Some dedup losses are expected.
    EXPECT_LE(g.numEdges(), 2048u);
}

TEST(Generators, ChungLuHubsCreateHeavyTail)
{
    ChungLuParams p;
    p.n = 2000;
    p.m = 20000;
    p.exponent = 1.9;
    p.hubs = 10;
    p.hubDegreeFraction = 0.3;
    const Graph g = chungLu(p, 9);
    // At least one vertex should reach a significant fraction of n.
    EXPECT_GT(g.maxDegree(), g.numVertices() / 6);
}

TEST(Generators, ChungLuDegreeCapLightensTail)
{
    ChungLuParams p;
    p.n = 2000;
    p.m = 20000;
    p.exponent = 2.9;
    p.maxDegreeFraction = 0.03;
    const Graph g = chungLu(p, 9);
    // The cap bounds the expected max degree at 60; allow sampling
    // noise above it but far below the uncapped ~500.
    EXPECT_LT(g.maxDegree(), 160u);
}

TEST(Generators, ChungLuHitsEdgeTarget)
{
    ChungLuParams p;
    p.n = 1700;
    p.m = 34000;
    p.exponent = 1.9;
    p.hubs = 8;
    p.hubDegreeFraction = 0.4;
    const Graph g = chungLu(p, 4);
    EXPECT_GE(g.numEdges(), p.m * 95 / 100);
}

TEST(Generators, PlantCliquesAddsCliques)
{
    const Graph base = erdosRenyi(100, 50, 3);
    PlantedCliqueParams p;
    p.count = 3;
    p.minSize = 5;
    p.maxSize = 5;
    const Graph g = plantCliques(base, p, 17);
    EXPECT_GE(g.numEdges(), base.numEdges());
    // A planted 5-clique forces degeneracy >= 4.
    EXPECT_GE(exactDegeneracyOrder(g).degeneracy, 4u);
}

TEST(Generators, RandomLabelsInRange)
{
    const auto labels = randomVertexLabels(500, 3, 77);
    EXPECT_EQ(labels.size(), 500u);
    for (Label l : labels)
        EXPECT_LT(l, 3u);
}

TEST(Io, RoundTrip)
{
    const Graph g = erdosRenyi(40, 100, 2);
    std::stringstream ss;
    writeEdgeList(g, ss);
    const Graph h = readEdgeList(ss);
    ASSERT_EQ(h.numVertices(), g.numVertices());
    EXPECT_EQ(h.numEdges(), g.numEdges());
    for (VertexId v = 0; v < 40; ++v)
        EXPECT_EQ(h.degree(v), g.degree(v));
}

TEST(Io, SkipsComments)
{
    std::stringstream ss("# comment\n% other\n0 1\n1 2\n");
    const Graph g = readEdgeList(ss);
    EXPECT_EQ(g.numVertices(), 3u);
    EXPECT_EQ(g.numEdges(), 2u);
}

TEST(Io, TolerantOfBlankLinesAndIndentation)
{
    std::stringstream ss("\n  \t\n  0 1\n1\t2  \n");
    const Graph g = readEdgeList(ss);
    EXPECT_EQ(g.numVertices(), 3u);
    EXPECT_EQ(g.numEdges(), 2u);
}

TEST(Io, MalformedInputThrowsTypedError)
{
    // Each case must throw GraphIoError carrying the offending
    // 1-based line -- never crash, never return a partial graph.
    const std::pair<const char *, std::uint64_t> cases[] = {
        {"0 1\nx 2\n", 2},        // non-numeric id
        {"0 1\n-1 2\n", 2},       // negative id
        {"0 1\n2\n", 2},          // truncated pair
        {"0 1\n1 2 3\n", 2},      // trailing junk
        {"12junk 1\n", 1},        // junk glued to a number
        {"0 1\n1 4294967296\n", 2}, // VertexId overflow
        {"0 1\n1 4294967295\n", 2}, // invalid_vertex: n would wrap to 0
        {"0 1\n1 1e3\n", 2},      // exponent notation
    };
    for (const auto &[text, line] : cases) {
        std::stringstream ss(text);
        try {
            readEdgeList(ss);
            FAIL() << "accepted malformed input: " << text;
        } catch (const GraphIoError &e) {
            EXPECT_EQ(e.line(), line) << text;
            EXPECT_NE(std::string(e.what()).find("line"),
                      std::string::npos);
        }
    }
}

TEST(Io, MissingFileThrowsTypedError)
{
    EXPECT_THROW(readEdgeListFile("/nonexistent/sisa_io_test.txt"),
                 GraphIoError);
}

TEST(Registry, AllDatasetsResolvable)
{
    for (const auto &spec : allDatasets()) {
        EXPECT_NO_FATAL_FAILURE(findDataset(spec.name));
        EXPECT_GT(spec.vertices, 0u);
        EXPECT_GT(spec.edges, 0u);
    }
}

TEST(Registry, SmallSuiteHasTwentyGraphs)
{
    EXPECT_EQ(fig6Suite().size(), 20u);
}

TEST(Registry, LargeSuiteScaled)
{
    for (const auto &spec : largeSuite()) {
        EXPECT_TRUE(spec.large);
        EXPECT_FALSE(spec.scaleNote.empty());
        EXPECT_LE(spec.edges, spec.paperEdges);
    }
}

TEST(Registry, HeavyTailGraphsAreHeavier)
{
    const Graph heavy = makeDataset("bio-SC-GT");
    const Graph light = makeDataset("soc-fbMsg");
    const double heavy_frac =
        static_cast<double>(heavy.maxDegree()) / heavy.numVertices();
    const double light_frac =
        static_cast<double>(light.maxDegree()) / light.numVertices();
    EXPECT_GT(heavy_frac, light_frac);
}

TEST(Registry, Deterministic)
{
    const Graph a = makeDataset("int-antCol3-d1");
    const Graph b = makeDataset("int-antCol3-d1");
    ASSERT_EQ(a.numVertices(), b.numVertices());
    EXPECT_EQ(a.numEdges(), b.numEdges());
    for (VertexId v = 0; v < a.numVertices(); ++v)
        EXPECT_EQ(a.degree(v), b.degree(v));
}

class RegistrySweep
    : public ::testing::TestWithParam<const char *>
{
};

TEST_P(RegistrySweep, SizesNearSpec)
{
    const DatasetSpec &spec = findDataset(GetParam());
    const Graph g = makeDataset(spec);
    EXPECT_EQ(g.numVertices(), spec.vertices);
    // Generators hit the edge target within 20% (dedup losses).
    const double ratio = static_cast<double>(g.numEdges()) /
                         static_cast<double>(spec.edges);
    EXPECT_GT(ratio, 0.7) << spec.name;
    EXPECT_LT(ratio, 1.3) << spec.name;
}

INSTANTIATE_TEST_SUITE_P(
    SmallGraphs, RegistrySweep,
    ::testing::Values("bio-SC-GT", "bn-mouse", "int-antCol3-d1",
                      "econ-beacxc", "soc-fbMsg", "dimacs-c500-9",
                      "int-HosWardProx", "bio-HS-LC"));

} // namespace
