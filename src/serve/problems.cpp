#include "serve/problems.hpp"

#include <memory>
#include <utility>

#include "algorithms/bron_kerbosch.hpp"
#include "algorithms/clustering.hpp"
#include "algorithms/kclique.hpp"
#include "algorithms/kclique_star.hpp"
#include "algorithms/link_prediction.hpp"
#include "algorithms/subgraph_iso.hpp"
#include "algorithms/triangle_count.hpp"
#include "baselines/bk_baseline.hpp"
#include "baselines/clustering_baseline.hpp"
#include "baselines/kclique_baseline.hpp"
#include "baselines/tc_baseline.hpp"
#include "baselines/vf2_baseline.hpp"
#include "graph/generators.hpp"
#include "sisa/placement.hpp"
#include "support/logging.hpp"

namespace sisa::serve {

namespace {

using algorithms::SimilarityMeasure;
using baselines::ClusterCoefficient;
using baselines::CsrView;
using graph::Graph;
using sim::SimContext;

// Captureless lambdas: each converts to the entry's function pointer.
constexpr Problem::NonSetRunner tcNonSet =
    [](const Graph &, CsrView &view, SimContext &ctx) {
        return baselines::triangleCountBaseline(view, ctx);
    };
constexpr Problem::SetRunner tcSets = [](ProblemSets &sets,
                                         SimContext &ctx) {
    return algorithms::triangleCount(*sets.oriented, ctx);
};

template <std::uint32_t K>
constexpr Problem::NonSetRunner kccNonSet =
    [](const Graph &, CsrView &view, SimContext &ctx) {
        return baselines::kCliqueCountBaseline(view, ctx, K);
    };
template <std::uint32_t K>
constexpr Problem::SetRunner kccSets = [](ProblemSets &sets,
                                          SimContext &ctx) {
    return algorithms::kCliqueCount(*sets.oriented, ctx, K);
};

template <std::uint32_t K>
constexpr Problem::NonSetRunner kscNonSet =
    [](const Graph &input, CsrView &view, SimContext &ctx) {
        CsrView undirected(input, view.cpu());
        return baselines::kCliqueStarBaseline(view, undirected, ctx, K);
    };
template <std::uint32_t K>
constexpr Problem::SetRunner kscSets = [](ProblemSets &sets,
                                          SimContext &ctx) {
    return algorithms::kCliqueStarsJabbour(*sets.oriented, ctx, K)
        .starCount;
};

constexpr Problem::NonSetRunner mcNonSet =
    [](const Graph &, CsrView &view, SimContext &ctx) {
        return baselines::maximalCliquesBaseline(view, ctx).cliqueCount;
    };
constexpr Problem::SetRunner mcSets = [](ProblemSets &sets,
                                         SimContext &ctx) {
    return algorithms::maximalCliques(*sets.undirected, ctx).cliqueCount;
};

// The query is the 3-leaf star, with 3 rotating labels when labelled.
template <bool Labeled>
constexpr Problem::NonSetRunner siNonSet =
    [](const Graph &, CsrView &view, SimContext &ctx) {
        return baselines::subgraphIsoBaseline(
            view, ctx,
            Labeled ? algorithms::labeledStarPattern(3, 3)
                    : algorithms::starPattern(3));
    };
template <bool Labeled>
constexpr Problem::SetRunner siSets = [](ProblemSets &sets,
                                         SimContext &ctx) {
    return algorithms::subgraphIsomorphism(
               *sets.undirected, ctx,
               Labeled ? algorithms::labeledStarPattern(3, 3)
                       : algorithms::starPattern(3))
        .matches;
};

// Jarvis-Patrick thresholds a neighbor count (tot) or a ratio at 0.05.
template <ClusterCoefficient C>
constexpr Problem::NonSetRunner clNonSet =
    [](const Graph &, CsrView &view, SimContext &ctx) {
        return baselines::jarvisPatrickBaseline(
            view, ctx, C,
            C == ClusterCoefficient::TotalNeighbors ? 2.0 : 0.05);
    };
template <SimilarityMeasure M>
constexpr Problem::SetRunner clSets = [](ProblemSets &sets,
                                         SimContext &ctx) {
    return algorithms::jarvisPatrick(
               *sets.undirected, ctx, M,
               M == SimilarityMeasure::TotalNeighbors ? 2.0 : 0.05)
        .clusterEdges;
};

/** lp owns all its sets; only the graph is shared. */
constexpr Problem::SetRunner lpSets = [](ProblemSets &sets,
                                         SimContext &ctx) {
    return algorithms::linkPredictionTest(
               *sets.engine, *sets.graph, ctx,
               SimilarityMeasure::CommonNeighbors, 0.1, /*seed=*/7)
        .correct;
};

using enum GraphState;

constexpr Problem kProblems[] = {
    {"tc", Oriented, 2000, 0, tcNonSet, tcSets},
    {"kcc-3", Oriented, 300, 0, kccNonSet<3>, kccSets<3>},
    {"kcc-4", Oriented, 300, 0, kccNonSet<4>, kccSets<4>},
    {"kcc-5", Oriented, 300, 0, kccNonSet<5>, kccSets<5>},
    {"kcc-6", Oriented, 300, 0, kccNonSet<6>, kccSets<6>},
    {"ksc-3", Oriented, 60, 0, kscNonSet<3>, kscSets<3>},
    {"ksc-4", Oriented, 60, 0, kscNonSet<4>, kscSets<4>},
    {"ksc-5", Oriented, 60, 0, kscNonSet<5>, kscSets<5>},
    {"ksc-6", Oriented, 60, 0, kscNonSet<6>, kscSets<6>},
    {"mc", Undirected, 60, 0, mcNonSet, mcSets},
    {"si-4s", Undirected, 150, 0, siNonSet<false>, siSets<false>},
    {"si-4s-L", Undirected, 150, 3, siNonSet<true>, siSets<true>},
    {"cl-jac", Undirected, 1500, 0, clNonSet<ClusterCoefficient::Jaccard>,
     clSets<SimilarityMeasure::Jaccard>},
    {"cl-ovr", Undirected, 1500, 0, clNonSet<ClusterCoefficient::Overlap>,
     clSets<SimilarityMeasure::Overlap>},
    {"cl-tot", Undirected, 1500, 0,
     clNonSet<ClusterCoefficient::TotalNeighbors>,
     clSets<SimilarityMeasure::TotalNeighbors>},
    {"lp", None, 0, 0, nullptr, lpSets},
};

} // namespace

ProblemInput
Problem::prepare(const Graph &graph) const
{
    ProblemInput input;
    input.graph = &graph;
    if (labels != 0) {
        auto labeled = std::make_unique<Graph>(graph);
        labeled->setVertexLabels(
            graph::randomVertexLabels(graph.numVertices(), labels, 7));
        input.labeled = std::move(labeled);
        input.graph = input.labeled.get();
    }
    if (state == Oriented) {
        input.orientation =
            std::make_shared<const algorithms::Orientation>(*input.graph);
    }
    return input;
}

ProblemSets
Problem::buildSets(const ProblemInput &input, core::SetEngine &engine,
                   const sets::ReprPolicy &policy) const
{
    ProblemSets sets;
    sets.graph = input.graph;
    sets.engine = &engine;
    if (state == Oriented) {
        sets.oriented = std::make_unique<algorithms::OrientedSetGraph>(
            *input.graph, input.orientation, engine, policy);
    } else if (state == Undirected) {
        sets.undirected =
            std::make_unique<core::SetGraph>(*input.graph, engine, policy);
    }
    return sets;
}

std::span<const Problem>
problems()
{
    return kProblems;
}

const Problem *
findProblem(std::string_view name)
{
    for (const Problem &problem : kProblems) {
        if (problem.name == name)
            return &problem;
    }
    return nullptr;
}

std::string
problemNames()
{
    std::string names;
    for (const Problem &problem : kProblems) {
        if (!names.empty())
            names += " | ";
        names += problem.name;
    }
    return names;
}

void
installPlacement(core::SisaEngine &engine, std::string_view name,
                 bool dynamic, const ProblemSets &sets)
{
    const core::SetGraph *neighborhoods =
        sets.oriented ? sets.oriented->sets.get() : sets.undirected.get();
    if (!neighborhoods)
        return;
    const std::uint32_t vaults = engine.scu().config().pim.vaults;
    std::shared_ptr<isa::PlacementPolicy> policy;
    if (name == "range") {
        policy = std::make_shared<isa::RangePlacement>(vaults);
    } else if (name == "locality") {
        policy = isa::greedyLocalityPlacement(
            vaults, core::placementArcs(*neighborhoods));
    } else {
        sisa_assert(name.empty() || name == "hash",
                    "unknown placement policy (hash | range | locality)");
        if (!dynamic)
            return; // Hash is the SCU's default placement.
        policy = std::make_shared<isa::HashPlacement>(vaults);
    }
    if (dynamic)
        policy = std::make_shared<isa::DynamicPlacement>(std::move(policy));
    engine.scu().setPlacement(std::move(policy));
}

} // namespace sisa::serve
