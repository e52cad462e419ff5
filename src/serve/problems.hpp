/**
 * @file
 * The problem registry: one entry per mining problem, read by every
 * front end (the bench harness, the serving scenario and `sisa_run`).
 * Each problem is written once against set operations; its entry
 * holds the graph state the formulation starts from, its default
 * pattern cutoff, its vertex labels, the hand-tuned non-set baseline
 * it is compared against (Section 9.1), and the one set-centric
 * runner that set-based mode, sisa mode and serving all execute.
 * Names are exact: "kcc-7" and "kcc-x" are not problems.
 */

#ifndef SISA_SERVE_PROBLEMS_HPP
#define SISA_SERVE_PROBLEMS_HPP

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>

#include "algorithms/common.hpp"
#include "baselines/csr_view.hpp"
#include "core/sisa_engine.hpp"

namespace sisa::serve {

/** The graph state a problem's runners start from. */
enum class GraphState
{
    Oriented,   ///< Degeneracy-oriented N+(v) (tc, kcc, ksc).
    Undirected, ///< The input graph's N(v).
    None,       ///< No neighborhood sets: the runner builds its own.
};

/**
 * A problem's read-only graph inputs: its labelled copy of the graph
 * and its degeneracy orientation, as the problem asks. Built once,
 * then shared by every engine's sets (serving builds one per problem
 * and scenario, not one per tenant).
 */
struct ProblemInput
{
    const graph::Graph *graph = nullptr; ///< The input the sets read.
    std::unique_ptr<const graph::Graph> labeled; ///< Labels > 0 only.
    /** GraphState::Oriented only. */
    std::shared_ptr<const algorithms::Orientation> orientation;
};

/** The set-side state a set-centric runner starts from. */
struct ProblemSets
{
    const graph::Graph *graph = nullptr; ///< The run's input graph.
    core::SetEngine *engine = nullptr;   ///< Evaluates every set op.
    std::unique_ptr<algorithms::OrientedSetGraph> oriented; ///< N+(v).
    std::unique_ptr<core::SetGraph> undirected;             ///< N(v).
};

/** One registered mining problem. */
struct Problem
{
    /**
     * Non-set baseline on the CPU model. @p view is the CSR of the
     * degeneracy-oriented graph for GraphState::Oriented problems and
     * of @p input (the undirected input graph) otherwise.
     */
    using NonSetRunner = std::uint64_t (*)(const graph::Graph &input,
                                           baselines::CsrView &view,
                                           sim::SimContext &ctx);
    /** Set-centric formulation; serving passes its session's ctx. */
    using SetRunner = std::uint64_t (*)(ProblemSets &sets,
                                        sim::SimContext &ctx);

    std::string_view name;
    GraphState state;
    std::uint64_t defaultCutoff; ///< Per-thread pattern cutoff.
    std::uint32_t labels;        ///< >0: random vertex labels (seed 7).
    NonSetRunner nonSet;         ///< Null: no non-set baseline (lp).
    SetRunner run;

    /**
     * This problem's inputs on @p graph: @p graph itself or its copy
     * with this problem's labels, oriented if the problem starts from
     * N+(v). @p graph must outlive the result.
     */
    ProblemInput prepare(const graph::Graph &graph) const;

    /**
     * This problem's neighborhood sets of @p input, in @p engine;
     * @p input must outlive them.
     */
    ProblemSets buildSets(const ProblemInput &input,
                          core::SetEngine &engine,
                          const sets::ReprPolicy &policy = {}) const;
};

/** Every registered problem, in listing order. */
std::span<const Problem> problems();

/** The problem named exactly @p name, or null. */
const Problem *findProblem(std::string_view name);

/** "tc | kcc-3 | ... | lp": the registered names, for help text. */
std::string problemNames();

/**
 * Install vault placement @p name ("" / "hash" | "range" |
 * "locality") on @p engine's SCU, seeded from @p sets' neighborhood
 * arcs; @p dynamic wraps it in DynamicPlacement. Hash without dynamic
 * keeps the SCU's default, and so does a problem without
 * neighborhood sets (lp builds its own sets during the run).
 */
void installPlacement(core::SisaEngine &engine, std::string_view name,
                      bool dynamic, const ProblemSets &sets);

} // namespace sisa::serve

#endif // SISA_SERVE_PROBLEMS_HPP
