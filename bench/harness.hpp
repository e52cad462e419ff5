/**
 * @file
 * Shared benchmark harness: runs one (problem, graph, mode) cell of
 * the evaluation and reports simulated cycles. The three modes are
 * the paper's comparison bars (Section 9.1):
 *
 *   NonSet   hand-tuned baseline on the OoO CPU + cache model
 *   SetBased set-centric formulation executed in software
 *   Sisa     set-centric formulation offloaded to the PIM model
 *
 * All modes run with PIM-grade scalable bandwidth ("for fair
 * comparison"); per-thread pattern cutoffs tame the NP-hard kernels
 * exactly as Section 9.1 describes.
 */

#ifndef SISA_BENCH_HARNESS_HPP
#define SISA_BENCH_HARNESS_HPP

#include <cstdint>
#include <memory>
#include <string>

#include "baselines/csr_view.hpp"
#include "core/cpu_set_engine.hpp"
#include "core/sisa_engine.hpp"
#include "graph/degeneracy.hpp"
#include "serve/problems.hpp"
#include "support/logging.hpp"

namespace sisa::bench {

using graph::Graph;

/** Execution mode (one evaluation bar). */
enum class Mode { NonSet, SetBased, Sisa };

inline const char *
modeName(Mode mode)
{
    switch (mode) {
      case Mode::NonSet: return "non-set";
      case Mode::SetBased: return "set-based";
      case Mode::Sisa: return "sisa";
    }
    return "?";
}

/** Per-run configuration. */
struct RunConfig
{
    std::uint32_t threads = 32;
    std::uint64_t cutoff = 100; ///< Patterns per thread (0 = full).
    sets::ReprPolicy policy{};
    isa::ScuConfig scu{}; ///< Sisa mode's SCU (routing included).
    sim::CpuParams cpu{};
    bool traceSetSizes = false;
    /**
     * Vault placement for Sisa mode: "hash" (default), "range", or
     * "locality" (greedy edge-locality seeded from the run's graph).
     * Placement moves cycle charges and setops.xvault_* counters
     * only; results are policy-invariant.
     */
    std::string placement{};
    /**
     * Dynamic re-placement for Sisa mode: wrap the chosen placement
     * in a DynamicPlacement that migrates sets observed being
     * fetched into the same remote vault repeatedly (counters
     * scu.migrations / setops.migration_bytes).
     */
    bool replace = false;
    /**
     * Record the run's full encoded SISA instruction stream (Sisa
     * mode): the caller-owned trace attaches to the SCU before any
     * set exists, so offline linting (`sisa_run ... analyze=trace`,
     * sisa/analysis.hpp) sees every instruction the run issued.
     */
    isa::InstructionTrace *trace = nullptr;
};

/** Outcome of one run. */
struct RunOutcome
{
    std::uint64_t cycles = 0;   ///< Simulated makespan.
    std::uint64_t value = 0;    ///< Problem-specific count.
    std::uint64_t patterns = 0; ///< Patterns reported before cutoff.
    std::unique_ptr<sim::SimContext> ctx; ///< Full stats.
};

/**
 * Run the registered @p problem (serve/problems.hpp) on @p graph
 * under @p mode.
 */
inline RunOutcome
runProblem(const std::string &problem, const Graph &graph, Mode mode,
           const RunConfig &config)
{
    const serve::Problem *entry = serve::findProblem(problem);
    sisa_assert(entry, "runProblem: unknown problem");
    RunOutcome outcome;
    outcome.ctx =
        std::make_unique<sim::SimContext>(config.threads);
    sim::SimContext &ctx = *outcome.ctx;
    ctx.setPatternCutoff(config.cutoff);
    if (config.traceSetSizes)
        ctx.enableSetSizeTrace(5);

    const serve::ProblemInput input = entry->prepare(graph);
    const Graph &g = *input.graph;

    if (mode == Mode::NonSet) {
        sisa_assert(entry->nonSet,
                    "runProblem: problem has no non-set baseline");
        sim::CpuModel cpu(config.cpu, config.threads);
        baselines::CsrView view(
            input.orientation ? input.orientation->oriented : g, cpu);
        outcome.value = entry->nonSet(g, view, ctx);
    } else {
        std::unique_ptr<core::SetEngine> engine;
        core::SisaEngine *sisa_engine = nullptr;
        if (mode == Mode::Sisa) {
            auto sisa = std::make_unique<core::SisaEngine>(
                g.numVertices(), config.scu, config.threads);
            sisa_engine = sisa.get();
            if (config.trace)
                sisa_engine->scu().setTrace(config.trace);
            engine = std::move(sisa);
        } else {
            engine = std::make_unique<core::CpuSetEngine>(
                g.numVertices(), config.cpu, config.threads);
        }
        serve::ProblemSets sets =
            entry->buildSets(input, *engine, config.policy);
        // Placement seeds from the neighborhood sets just built.
        if (sisa_engine)
            serve::installPlacement(*sisa_engine, config.placement,
                                    config.replace, sets);
        outcome.value = entry->run(sets, ctx);
    }

    outcome.cycles = ctx.makespan();
    outcome.patterns = ctx.totalPatterns();
    return outcome;
}

} // namespace sisa::bench

#endif // SISA_BENCH_HARNESS_HPP
