/**
 * @file
 * Problem registry tests: every registered problem, in every mode
 * that has a runner, pinned to fixed value / makespan / pattern
 * totals on RMAT-8 at small cutoffs. The pins were recorded before
 * the registry existed -- the harness's own per-problem branches for
 * the three modes, and a K=1 serving run for lp's sisa row (lp's
 * set-based row is the algorithm on a CpuSetEngine) -- so the table
 * proves each registry runner reproduces what the front ends used
 * to run. The lp rows run one modeled thread: a served query reports
 * one summed timeline, which equals the makespan only then.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <string>

#include "../bench/harness.hpp"
#include "graph/generators.hpp"
#include "serve/problems.hpp"

namespace {

using namespace sisa;
using bench::Mode;

graph::Graph
goldenGraph()
{
    graph::RmatParams params;
    params.scale = 8;
    params.edgeFactor = 8;
    return graph::rmat(params, 42);
}

struct Golden
{
    const char *problem;
    Mode mode;
    std::uint32_t threads;
    std::uint64_t cutoff; ///< Per-thread pattern cutoff (0 = none).
    std::uint64_t value;
    std::uint64_t cycles;   ///< Makespan.
    std::uint64_t patterns; ///< totalPatterns().
};

constexpr Golden kGoldens[] = {
    {"tc", Mode::NonSet, 4, 40, 176, 1819, 160},
    {"tc", Mode::SetBased, 4, 40, 176, 1599, 160},
    {"tc", Mode::Sisa, 4, 40, 176, 2449, 160},
    {"kcc-3", Mode::NonSet, 4, 30, 135, 3723, 120},
    {"kcc-3", Mode::SetBased, 4, 30, 135, 3822, 120},
    {"kcc-3", Mode::Sisa, 4, 30, 135, 4196, 120},
    {"kcc-4", Mode::NonSet, 4, 30, 122, 3867, 120},
    {"kcc-4", Mode::SetBased, 4, 30, 122, 6072, 120},
    {"kcc-4", Mode::Sisa, 4, 30, 122, 5702, 120},
    {"kcc-5", Mode::NonSet, 4, 30, 125, 4424, 120},
    {"kcc-5", Mode::SetBased, 4, 30, 125, 10410, 120},
    {"kcc-5", Mode::Sisa, 4, 30, 125, 9620, 120},
    {"kcc-6", Mode::NonSet, 4, 30, 123, 5713, 120},
    {"kcc-6", Mode::SetBased, 4, 30, 123, 21182, 120},
    {"kcc-6", Mode::Sisa, 4, 30, 123, 18401, 120},
    {"ksc-3", Mode::NonSet, 4, 10, 36, 94946, 40},
    {"ksc-3", Mode::SetBased, 4, 10, 36, 12702, 40},
    {"ksc-3", Mode::Sisa, 4, 10, 36, 19294, 40},
    {"ksc-4", Mode::NonSet, 4, 10, 30, 116658, 40},
    {"ksc-4", Mode::SetBased, 4, 10, 30, 16198, 40},
    {"ksc-4", Mode::Sisa, 4, 10, 30, 24114, 40},
    {"ksc-5", Mode::NonSet, 4, 10, 28, 136342, 40},
    {"ksc-5", Mode::SetBased, 4, 10, 28, 19735, 40},
    {"ksc-5", Mode::Sisa, 4, 10, 28, 28931, 40},
    {"ksc-6", Mode::NonSet, 4, 10, 23, 144885, 40},
    {"ksc-6", Mode::SetBased, 4, 10, 23, 27333, 40},
    {"ksc-6", Mode::Sisa, 4, 10, 23, 37680, 40},
    {"mc", Mode::NonSet, 4, 10, 40, 54912, 40},
    {"mc", Mode::SetBased, 4, 10, 40, 20744, 40},
    {"mc", Mode::Sisa, 4, 10, 40, 42539, 40},
    {"si-4s", Mode::NonSet, 4, 20, 80, 32331, 80},
    {"si-4s", Mode::SetBased, 4, 20, 80, 96910, 80},
    {"si-4s", Mode::Sisa, 4, 20, 80, 187662, 80},
    {"si-4s-L", Mode::NonSet, 4, 20, 80, 48381, 80},
    {"si-4s-L", Mode::SetBased, 4, 20, 80, 150793, 80},
    {"si-4s-L", Mode::Sisa, 4, 20, 80, 323812, 80},
    {"cl-jac", Mode::NonSet, 4, 100, 400, 113838, 400},
    {"cl-jac", Mode::SetBased, 4, 100, 400, 31478, 400},
    {"cl-jac", Mode::Sisa, 4, 100, 400, 55000, 400},
    {"cl-ovr", Mode::NonSet, 4, 100, 400, 83321, 400},
    {"cl-ovr", Mode::SetBased, 4, 100, 400, 28860, 400},
    {"cl-ovr", Mode::Sisa, 4, 100, 400, 54540, 400},
    {"cl-tot", Mode::NonSet, 4, 100, 400, 81891, 400},
    {"cl-tot", Mode::SetBased, 4, 100, 400, 22420, 400},
    {"cl-tot", Mode::Sisa, 4, 100, 400, 53520, 400},
    {"lp", Mode::SetBased, 1, 0, 25, 770923, 0},
    {"lp", Mode::Sisa, 1, 0, 25, 1228457, 0},
};

const Golden *
findGolden(std::string_view problem, Mode mode)
{
    for (const Golden &golden : kGoldens) {
        if (golden.problem == problem && golden.mode == mode)
            return &golden;
    }
    return nullptr;
}

TEST(Problems, EveryProblemEveryModeGolden)
{
    const graph::Graph g = goldenGraph();
    std::size_t checked = 0;
    for (const serve::Problem &problem : serve::problems()) {
        for (const Mode mode :
             {Mode::NonSet, Mode::SetBased, Mode::Sisa}) {
            if (mode == Mode::NonSet && !problem.nonSet)
                continue;
            const std::string name(problem.name);
            SCOPED_TRACE(name + " " + bench::modeName(mode));
            const Golden *golden = findGolden(name, mode);
            ASSERT_NE(golden, nullptr);
            bench::RunConfig rc;
            rc.threads = golden->threads;
            rc.cutoff = golden->cutoff;
            const bench::RunOutcome out =
                bench::runProblem(name, g, mode, rc);
            EXPECT_EQ(out.value, golden->value);
            EXPECT_EQ(out.cycles, golden->cycles);
            EXPECT_EQ(out.patterns, golden->patterns);
            ++checked;
        }
    }
    // Every pin belongs to a registered (problem, mode) pair.
    EXPECT_EQ(checked, std::size(kGoldens));
}

TEST(Problems, OnePreparedInputServesManyEngines)
{
    // Serving prepares a problem's read-only inputs once and builds
    // every tenant's sets over them: two engines sharing one input
    // must compute what an engine over its own fresh input computes.
    const graph::Graph g = goldenGraph();
    isa::ScuConfig scu;
    scu.batchWorkers = 1;
    for (const serve::Problem &problem : serve::problems()) {
        SCOPED_TRACE(std::string(problem.name));
        const serve::ProblemInput shared = problem.prepare(g);
        EXPECT_EQ(shared.graph == &g, problem.labels == 0);
        EXPECT_EQ(shared.orientation != nullptr,
                  problem.state == serve::GraphState::Oriented);
        const auto runOn = [&](const serve::ProblemInput &input) {
            core::SisaEngine engine(g.numVertices(), scu, 1);
            serve::ProblemSets sets = problem.buildSets(input, engine);
            EXPECT_EQ(sets.graph, input.graph);
            if (sets.oriented) {
                EXPECT_EQ(sets.oriented->orientation, input.orientation);
            }
            sim::SimContext ctx(1);
            ctx.setPatternCutoff(problem.defaultCutoff / 4);
            return problem.run(sets, ctx);
        };
        const std::uint64_t first = runOn(shared);
        const std::uint64_t second = runOn(shared);
        const std::uint64_t fresh = runOn(problem.prepare(g));
        EXPECT_EQ(first, second);
        EXPECT_EQ(first, fresh);
    }
}

} // namespace
