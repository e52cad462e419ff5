/**
 * @file
 * Graph fingerprints: every synthesized graph is pinned by an FNV-1a
 * hash of (n, m, directedness, degree sequence, adjacency). The
 * generators promise that a graph is a pure function of (params,
 * seed), so any change to synthesis, dedup or CSR construction that
 * alters a single arc -- or even the order of a row -- fails here.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <ios>
#include <iterator>
#include <string>

#include "graph/dataset_registry.hpp"
#include "graph/degeneracy.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"

namespace {

using namespace sisa::graph;

/** FNV-1a over 64-bit little-endian words. */
class Fnv1a
{
  public:
    void
    word(std::uint64_t x)
    {
        for (int i = 0; i < 8; ++i) {
            hash_ ^= (x >> (8 * i)) & 0xffU;
            hash_ *= 0x100000001b3ULL;
        }
    }

    std::uint64_t value() const { return hash_; }

  private:
    std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

std::uint64_t
fingerprint(const Graph &g)
{
    Fnv1a fnv;
    fnv.word(g.numVertices());
    fnv.word(g.numEdges());
    fnv.word(g.directed() ? 1 : 0);
    for (VertexId v = 0; v < g.numVertices(); ++v)
        fnv.word(g.degree(v));
    for (VertexId v = 0; v < g.numVertices(); ++v) {
        for (VertexId w : g.neighbors(v))
            fnv.word(w);
    }
    return fnv.value();
}

/**
 * Registry graph by name; "name#seed" draws a fresh graph of the
 * named dataset's shape, the way the end-to-end benchmark does.
 */
Graph
registryGraph(const std::string &name)
{
    const std::size_t hash = name.find('#');
    DatasetSpec spec = findDataset(name.substr(0, hash));
    spec.name = name;
    return makeDataset(spec);
}

struct Pin
{
    const char *name;
    VertexId n;
    std::uint64_t m;
    std::uint64_t fingerprint;
};

void
expectPinned(const Pin &pin, const Graph &g)
{
    const std::uint64_t fp = fingerprint(g);
    EXPECT_EQ(g.numVertices(), pin.n) << pin.name;
    EXPECT_EQ(g.numEdges(), pin.m) << pin.name;
    // The message is the row to pin after a deliberate recipe change.
    EXPECT_EQ(fp, pin.fingerprint)
        << "{\"" << pin.name << "\", " << g.numVertices() << ", "
        << g.numEdges() << ", 0x" << std::hex << fp << "ULL}";
}

// A pin moves only with a deliberate change to a generator recipe.
// The m column doubles as a cross-check against independently known
// sizes: bio-humanGene has 1,208,872 edges and bio-SC-GT 35,019.
const Pin registryPins[] = {
    {"bio-SC-GT", 1700, 35019, 0xb455c8abd780c34fULL},
    {"bn-flyMedulla", 1800, 8992, 0xcf81417bab80b0b8ULL},
    {"bn-mouse", 1100, 91017, 0x9ace3b2b5065d642ULL},
    {"int-antCol3-d1", 161, 11100, 0x940058936cc2b920ULL},
    {"int-antCol5-d1", 153, 9000, 0x1b20571eb19978eeULL},
    {"int-antCol6-d2", 165, 10200, 0x34eedf72a22ae369ULL},
    {"bio-CE-PG", 1800, 49472, 0xbb418cb6d5dc4ab7ULL},
    {"bio-DM-CX", 4000, 79708, 0x63d70b47f2b648d3ULL},
    {"bio-DR-CX", 3200, 87089, 0x28f5382f64aaf231ULL},
    {"bio-HS-LC", 4200, 41066, 0xae5ee21d9dc5d624ULL},
    {"bio-SC-HT", 2000, 64392, 0x18ed93bb7b2ddd1aULL},
    {"bio-WormNetB3", 2400, 80351, 0x95df5daf39ad3953ULL},
    {"dimacs-c500-9", 501, 112000, 0xfbf38dedb807fa9fULL},
    {"econ-beacxc", 498, 42125, 0xd20304b40f828eb3ULL},
    {"econ-beaflw", 508, 45097, 0x8e8cc753ca8d0bffULL},
    {"econ-mbeacxc", 493, 41769, 0xed1424512de69fcbULL},
    {"econ-orani678", 2500, 87622, 0xefc686cf37f61de3ULL},
    {"int-HosWardProx", 1800, 1494, 0x73cc8c1f369f506cULL},
    {"intD-antCol4", 134, 5000, 0xab483fcc7a90511cULL},
    {"soc-fbMsg", 1900, 13800, 0x825b0326f0560b09ULL},
    {"int-authorship", 3000, 25166, 0xc7c890a33cc48030ULL},
    {"int-citations", 2500, 20129, 0xefba7a19480818c1ULL},
    {"social-Flx", 4000, 35000, 0x9e9d4beada69bb9fULL},
    {"social-Pok", 5000, 60000, 0xfcf0bcde868e3097ULL},
    {"bio-humanGene", 14000, 1208872, 0xe3a368521dcccaf6ULL},
    {"bio-mouseGene", 30000, 1522685, 0xad1432039d60f21eULL},
    {"edit-enwiktionary", 120000, 320000, 0x53045ec85a3c8b3aULL},
    {"int-dating", 40000, 1002037, 0xf60c2e142a8eb4caULL},
    {"sc-pwtk", 50000, 1300000, 0x7c57a2fe8cfed736ULL},
    {"soc-orkut", 80000, 3000000, 0x9bdb02e3f2afbdc4ULL},
    {"bio-humanGene#1", 14000, 1209123, 0x8e5161d5421be153ULL},
    {"bio-humanGene#7919", 14000, 1209450, 0x3039f340c7e2f5aaULL},
};

TEST(GraphFingerprint, RegistryDatasets)
{
    const auto all = allDatasets();
    ASSERT_EQ(all.size() + 2, std::size(registryPins));
    std::size_t i = 0;
    for (const auto &spec : all) {
        ASSERT_EQ(spec.name, registryPins[i].name);
        expectPinned(registryPins[i++], makeDataset(spec));
    }
    // The per-seed graphs the tc-large benchmark workload draws.
    for (; i < std::size(registryPins); ++i)
        expectPinned(registryPins[i], registryGraph(registryPins[i].name));
}

TEST(GraphFingerprint, Generators)
{
    RmatParams rmat9;
    rmat9.scale = 9;
    rmat9.edgeFactor = 8;
    ChungLuParams cl;
    cl.n = 3000;
    cl.m = 40000;
    cl.exponent = 1.9;
    cl.hubs = 15;
    const Pin pins[] = {
        {"rmat-9x8#42", 512, 2848, 0x50c7c3a254f1993eULL},
        {"rmat-10x16#7", 1024, 10579, 0x961a95da8e25ff72ULL},
        {"er-1000-20000#5", 1000, 20000, 0xd253dfb2b3d5b6dfULL},
        {"er-60-1700#9", 60, 1700, 0x0e400508b165e8a4ULL},
        {"chunglu-3000-40000#11", 3000, 40000, 0xad9d3a9cb8b23469ULL},
        {"complete-40", 40, 780, 0x8f9f67e06840f730ULL},
    };
    expectPinned(pins[0], rmat(rmat9, 42));
    expectPinned(pins[1], rmat(RmatParams{}, 7));
    expectPinned(pins[2], erdosRenyi(1000, 20000, 5));
    expectPinned(pins[3], erdosRenyi(60, 1700, 9)); // 96% dense.
    expectPinned(pins[4], chungLu(cl, 11));
    expectPinned(pins[5], complete(40));
}

TEST(GraphFingerprint, DegeneracyOrientation)
{
    const Pin pins[] = {
        {"bio-SC-GT/degeneracy", 1700, 35019, 0x5b69358caca31431ULL},
        {"bio-humanGene/degeneracy", 14000, 1208872, 0x831d386e5a1e9634ULL},
        {"soc-fbMsg/degeneracy", 1900, 13800, 0xd9c4564426d23603ULL},
    };
    const char *names[] = {"bio-SC-GT", "bio-humanGene", "soc-fbMsg"};
    for (std::size_t i = 0; i < std::size(names); ++i) {
        const Graph g = makeDataset(names[i]);
        const Graph oriented =
            g.orientByRank(exactDegeneracyOrder(g).rank);
        expectPinned(pins[i], oriented);
    }
}

} // namespace
