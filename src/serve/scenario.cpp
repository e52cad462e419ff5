#include "serve/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <utility>

#include "core/query_session.hpp"
#include "core/sisa_engine.hpp"
#include "serve/problems.hpp"
#include "support/logging.hpp"
#include "support/rng.hpp"

namespace sisa::serve {

namespace {

/** Everything one tenant owns (engine, sets, session). */
struct Tenant
{
    const Problem *problem = nullptr;
    std::unique_ptr<core::SisaEngine> engine;
    std::unique_ptr<core::QuerySession> session;
    ProblemSets sets;
    std::uint64_t value = 0;
};

} // namespace

std::vector<mem::Cycles>
poissonArrivals(std::uint64_t seed, double mean, std::size_t n)
{
    sisa_assert(mean > 0.0, "poissonArrivals: mean must be positive");
    support::SplitMix64 rng(seed);
    std::vector<mem::Cycles> arrivals;
    arrivals.reserve(n);
    double clock = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        // 53-bit mantissa uniform in (0, 1]: never feeds log() zero.
        const double u =
            1.0 - static_cast<double>(rng.next() >> 11) * 0x1.0p-53;
        clock += -mean * std::log(u);
        arrivals.push_back(static_cast<mem::Cycles>(clock));
    }
    return arrivals;
}

ScenarioReport
serveMixedWorkload(const graph::Graph &graph,
                   const ScenarioConfig &config)
{
    sisa_assert(!config.queries.empty(),
                "serveMixedWorkload: no queries");
    isa::QueryScheduler sched(config.policy, config.quantum);
    sched.setOverload(config.shed, config.admitCapacity,
                      config.scu.pim.vaults);
    // Declared before the tenants, whose sets point into it.
    std::map<const Problem *, ProblemInput> inputs;
    std::vector<Tenant> tenants(config.queries.size());
    for (std::size_t i = 0; i < tenants.size(); ++i) {
        tenants[i].problem = findProblem(config.queries[i].problem);
        sisa_assert(tenants[i].problem,
                    "serveMixedWorkload: unknown problem");
    }

    // Phase 1 (serial): per-tenant engines, sessions, and sets.
    // Setup dispatches are not admission-gated and the shared pool is
    // single-dispatch, so this must not overlap the serving phase.
    // Enrollment order == spec order, which is what FCFS arrival rank
    // and Credit round-robin order mean. The read-only graph inputs
    // (labelled copy, degeneracy orientation) are built once per
    // problem and shared by every tenant's sets.
    std::shared_ptr<isa::VaultWorkerPool> pool;
    for (std::size_t i = 0; i < config.queries.size(); ++i) {
        const QuerySpec &spec = config.queries[i];
        Tenant &t = tenants[i];
        t.engine = std::make_unique<core::SisaEngine>(
            graph.numVertices(), config.scu, config.threads);
        if (!pool)
            pool = t.engine->scu().sharedPool();
        else
            t.engine->scu().adoptPool(pool);
        isa::AdmissionSpec admission;
        admission.priority = spec.priority;
        admission.arrival = spec.arrival;
        admission.deadline = spec.deadline;
        admission.faultBudget = spec.faultBudget;
        t.session = std::make_unique<core::QuerySession>(
            spec.problem, sched, config.threads, admission);
        t.session->ctx().setPatternCutoff(
            spec.cutoff != 0 ? spec.cutoff : t.problem->defaultCutoff);
        auto [input, fresh] = inputs.try_emplace(t.problem);
        if (fresh)
            input->second = t.problem->prepare(graph);
        t.sets = t.problem->buildSets(input->second, *t.engine);
        installPlacement(*t.engine, config.placement, /*dynamic=*/false,
                         t.sets);
    }

    // Phase 2: attach everything, then run. Attach comes after ALL
    // setup so no gated dispatch can start while another tenant is
    // still doing ungated setup work on the shared pool.
    for (Tenant &t : tenants) {
        t.session->attach(*t.engine);
        sisa_assert(&t.session->engine() == t.sets.engine,
                    "serveMixedWorkload: session is bound to a "
                    "different engine than the query's sets");
    }

    // Phase 3: every tenant is a fiber of the scheduler's grant loop
    // on this thread. Query ids are enrollment order, so body i
    // serves tenant i.
    std::vector<std::function<void()>> bodies;
    bodies.reserve(tenants.size());
    for (Tenant &t : tenants) {
        bodies.emplace_back([&t] {
            std::exception_ptr error;
            try {
                t.value = t.problem->run(t.sets, t.session->ctx());
            } catch (const isa::QueryCancelledError &) {
                // A lifecycle verdict (TimedOut / Shed / Aborted),
                // not an error: the report carries the state and the
                // query's value stays 0.
            } catch (...) {
                error = std::current_exception();
            }
            // Retire even on error (a query that never leaves would
            // park every co-tenant forever), after the catch blocks:
            // nothing that may reach admit() runs while this fiber
            // holds a caught exception.
            try {
                t.session->finish();
            } catch (...) {
                if (!error)
                    error = std::current_exception();
            }
            // The loop rethrows the lowest tenant's error after every
            // session retired.
            if (error)
                std::rethrow_exception(error);
        });
    }
    sched.run(std::move(bodies));

    ScenarioReport report;
    report.queries.reserve(tenants.size());
    report.admissionLog = sched.model().admissionLog();
    report.lifecycleLog = sched.model().lifecycleLog();
    for (std::size_t i = 0; i < tenants.size(); ++i) {
        Tenant &t = tenants[i];
        QueryReport qr;
        qr.problem = config.queries[i].problem;
        qr.id = t.session->id();
        qr.value = t.value;
        qr.ownCycles = sched.model().ownCycles(qr.id);
        qr.completion = sched.model().completion(qr.id);
        qr.state = sched.model().state(qr.id);
        qr.arrival = sched.model().arrival(qr.id);
        qr.deadline = sched.model().deadline(qr.id);
        qr.deadlineMet = sched.model().deadlineMet(qr.id);
        qr.faults = t.session->faults();
        qr.account = t.session->ctx().queryAccount(qr.id);
        report.makespan = std::max(report.makespan, qr.completion);
        report.queries.push_back(std::move(qr));
    }
    return report;
}

} // namespace sisa::serve
