#include "workloads.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <map>
#include <memory>
#include <stdexcept>

#include "algorithms/bron_kerbosch.hpp"
#include "algorithms/triangle_count.hpp"
#include "baselines/bk_baseline.hpp"
#include "baselines/csr_view.hpp"
#include "baselines/tc_baseline.hpp"
#include "core/sisa_engine.hpp"
#include "graph/dataset_registry.hpp"
#include "graph/generators.hpp"
#include "oracles.hpp"
#include "serve/scenario.hpp"
#include "sets/operations.hpp"
#include "sim/cpu_model.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "timing_engine.hpp"

namespace sisa::perfbench {

namespace {

// --- Metric tables ---------------------------------------------------------
//
// Every run reports every metric of its table, in this order; a
// metric that does not apply to the workload reads 0. BENCHMARK.json
// lists the same names and units.

struct MetricSpec
{
    const char *name;
    const char *unit;
};

constexpr MetricSpec end_to_end_metrics[] = {
    {"setup_s", "s"},
    {"mine_s", "s"},
    {"peak_rss_mb", "MB"},
    {"cycles", "cycles"},
    {"p50_latency_cycles", "cycles"},
    {"tail_latency_cycles", "cycles"},
    {"goodput", "fraction"},
};

constexpr MetricSpec per_layer_metrics[] = {
    {"graph.generate_s", "s"},
    {"graph.orient_s", "s"},
    {"graph.edges", "count"},
    {"graph.max_degree", "count"},
    {"core.set_build_s", "s"},
    {"core.dense_sets", "count"},
    {"core.storage_mb", "MB"},
    {"core.batch_calls", "count"},
    {"core.batch_ops", "count"},
    {"core.ops_per_batch", "ops"},
    {"core.batch_s", "s"},
    {"core.serial_calls", "count"},
    {"core.serial_s", "s"},
    {"core.alloc_calls", "count"},
    {"core.alloc_s", "s"},
    {"core.live_sets_peak", "count"},
    {"sisa.host_ns_per_op", "ns"},
    {"sisa.pool_overhead_s", "s"},
    {"sisa.dispatches", "count"},
    {"sisa.pum_ops", "count"},
    {"sisa.pnm_stream_ops", "count"},
    {"sisa.pnm_random_ops", "count"},
    {"sisa.short_circuits", "count"},
    {"sisa.smb_hit_ratio", "fraction"},
    {"sisa.xvault_bytes", "bytes"},
    {"sets.kernel_s", "s"},
    {"sets.streamed", "count"},
    {"sets.probes", "count"},
    {"sets.words", "count"},
    {"sets.output", "count"},
    {"sim.stall_fraction", "fraction"},
    {"sim.imbalance", "ratio"},
    {"algorithms.self_s", "s"},
    {"algorithms.patterns", "count"},
    {"serve.grants", "count"},
    {"serve.lifecycle_events", "count"},
    {"serve.completed", "count"},
    {"serve.shed", "count"},
    {"serve.timed_out", "count"},
    {"serve.aborted", "count"},
    {"serve.queue_wait_p50_cycles", "cycles"},
    {"serve.tail_percentile", "percent"},
    {"serve.latency_samples", "count"},
    {"serve.host_us_per_grant", "us"},
    {"serve.host_growth", "log2"},
    {"serve.default_sched_mine_s", "s"},
    {"baselines.nonset_cycles", "cycles"},
    {"baselines.speedup_vs_nonset", "x"},
    {"trace.overhead_s", "s"},
};

class MetricSet
{
  public:
    void set(const std::string &name, double value) { values_[name] = value; }

    template <std::size_t N>
    std::vector<Metric>
    emit(const MetricSpec (&table)[N]) const
    {
        std::vector<Metric> out;
        for (const MetricSpec &spec : table) {
            const auto it = values_.find(spec.name);
            out.push_back({spec.name,
                           it == values_.end() ? 0.0 : it->second,
                           spec.unit});
        }
        return out;
    }

  private:
    std::map<std::string, double> values_;
};

// --- Helpers ---------------------------------------------------------------

/** Modeled threads of the mining workloads (the sisa_run default). */
constexpr std::uint32_t mining_threads = 32;

/**
 * Host pool width of the mining workloads. On a shared 4-core host the
 * default pool (batchWorkers = 0) made single mining runs swing 1.5-5.4 s
 * (tc-large) and 7-16 s (bk-dense); one worker is steadier and faster.
 * The traced run still measures the pool (sisa.pool_overhead_s).
 */
constexpr std::uint32_t mining_workers = 1;
constexpr std::uint32_t default_pool = 0;

double
toSeconds(std::uint64_t ns)
{
    return static_cast<double>(ns) * 1e-9;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t mid = v.size() / 2;
    return v.size() % 2 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

/** "name samples: v1 v2 ..." for the run log. */
std::string
samplesNote(const char *name, const std::vector<double> &v)
{
    std::string note = std::string(name) + " samples:";
    for (double x : v) {
        char buf[32];
        std::snprintf(buf, sizeof buf, " %.4g", x);
        note += buf;
    }
    return note;
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB -> MiB
}

/**
 * Repeat @p body until @p seconds of host time have passed and it ran
 * at least @p min_iters times.
 */
template <typename Fn>
void
repeatFor(double seconds, std::size_t min_iters, Fn &&body)
{
    const Clock::time_point start = Clock::now();
    for (std::size_t i = 0;
         i < min_iters || toSeconds(elapsedNs(start)) < seconds; ++i)
        body(i);
}

/** Coarse phase spans, kept in memory and written out at the end. */
class SpanLog
{
  public:
    void
    add(const std::string &name, Clock::time_point start,
        Clock::time_point end)
    {
        spans_.push_back({name, start, end});
    }

    /** Chrome trace-event JSON (opens in Perfetto). */
    void
    write(const std::string &path) const
    {
        std::ofstream out(path);
        out << std::fixed << std::setprecision(3) << "{\"traceEvents\":[";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            out << (i ? "," : "") << "{\"name\":\"" << s.name
                << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
                << us(s.start) << ",\"dur\":" << us(s.end) - us(s.start)
                << "}";
        }
        out << "]}\n";
    }

  private:
    struct Span
    {
        std::string name;
        Clock::time_point start, end;
    };

    double
    us(Clock::time_point t) const
    {
        return spans_.empty()
                   ? 0.0
                   : std::chrono::duration<double, std::micro>(
                         t - spans_.front().start)
                         .count();
    }

    std::vector<Span> spans_;
};

/** Everything a run must reproduce exactly: the modeled outcome. */
struct ModeledOutcome
{
    std::uint64_t value = 0;
    std::vector<mem::Cycles> busy, stall;
    std::map<std::string, std::uint64_t> counters;

    explicit ModeledOutcome(std::uint64_t v, const sim::SimContext &ctx)
        : value(v), counters(ctx.counters())
    {
        for (sim::ThreadId t = 0; t < ctx.numThreads(); ++t) {
            busy.push_back(ctx.threadBusy(t));
            stall.push_back(ctx.threadStall(t));
        }
    }

    bool operator==(const ModeledOutcome &) const = default;
};

/** Per-layer metrics read from SimContext counters. */
void
setCounterMetrics(MetricSet &m,
                  const std::map<std::string, std::uint64_t> &c)
{
    const auto get = [&](const char *name) {
        const auto it = c.find(name);
        return it == c.end() ? 0.0 : static_cast<double>(it->second);
    };
    m.set("sisa.dispatches", get("scu.batch_dispatches"));
    m.set("sisa.pum_ops", get("scu.pum_ops"));
    m.set("sisa.pnm_stream_ops", get("scu.pnm_stream_ops"));
    m.set("sisa.pnm_random_ops", get("scu.pnm_random_ops"));
    m.set("sisa.short_circuits", get("scu.short_circuits"));
    const double lookups = get("scu.smb_hits") + get("scu.smb_misses");
    m.set("sisa.smb_hit_ratio",
          lookups > 0 ? get("scu.smb_hits") / lookups : 0.0);
    m.set("sisa.xvault_bytes", get("setops.xvault_bytes"));
    m.set("sets.streamed", get("setops.streamed"));
    m.set("sets.probes", get("setops.probes"));
    m.set("sets.words", get("setops.words"));
    m.set("sets.output", get("setops.output"));
}

void
setGraphMetrics(MetricSet &m, const graph::Graph &g)
{
    m.set("graph.edges", static_cast<double>(g.numEdges()));
    m.set("graph.max_degree", static_cast<double>(g.maxDegree()));
}

// --- Mining workloads (tc-large, bk-dense) ----------------------------------

/** What distinguishes the two mining workloads. */
struct MiningSpec
{
    const char *dataset;       ///< Registry shape (n, m, family).
    bool triangles;            ///< tc (oriented) vs BK (undirected).
    /**
     * true: draw a fresh graph of the dataset's shape from the seed.
     * false: take the registry graph itself under a seeded vertex
     * numbering (an isomorphic copy; see README.md for why).
     */
    bool freshGraph;
};

/**
 * A fresh graph of @p dataset's registry shape, drawn by the registry's
 * own recipe under a name that carries @p seed (the registry seeds its
 * generators from the dataset name).
 */
graph::Graph
seededDataset(const std::string &dataset, std::uint64_t seed)
{
    graph::DatasetSpec spec = graph::findDataset(dataset);
    spec.name += "#" + std::to_string(seed);
    return graph::makeDataset(spec);
}

/** @p g with its vertex ids permuted by a shuffle drawn from @p seed. */
graph::Graph
relabel(const graph::Graph &g, std::uint64_t seed)
{
    const graph::VertexId n = g.numVertices();
    std::vector<graph::VertexId> perm(n);
    for (graph::VertexId v = 0; v < n; ++v)
        perm[v] = v;
    support::Xoshiro256 rng(seed);
    for (graph::VertexId i = n; i > 1; --i)
        std::swap(perm[i - 1], perm[rng.nextBounded(i)]);
    graph::GraphBuilder builder(n);
    for (graph::VertexId v = 0; v < n; ++v) {
        for (graph::VertexId w : g.neighbors(v)) {
            if (v < w)
                builder.addEdge(perm[v], perm[w]);
        }
    }
    return builder.build();
}

/**
 * One mining instance: graph, engine, optional timing decorator, and
 * the set layout. Members are declared so destruction runs layout ->
 * decorator -> engine -> graph.
 */
struct MiningInstance
{
    graph::Graph graph;
    std::unique_ptr<core::SisaEngine> engine;
    std::unique_ptr<TimingEngine> timing;
    std::unique_ptr<algorithms::OrientedSetGraph> osg;
    std::unique_ptr<core::SetGraph> sg;

    MiningInstance() = default;
    MiningInstance(const MiningInstance &) = delete;
    MiningInstance &operator=(const MiningInstance &) = delete;

    core::SetEngine &
    front()
    {
        return timing ? static_cast<core::SetEngine &>(*timing)
                      : *engine;
    }

    const core::SetGraph &
    sets() const
    {
        return osg ? *osg->sets : *sg;
    }
};

/** Host-time phases of one mining run. */
struct MiningTimes
{
    std::uint64_t generateNs = 0, layoutNs = 0, mineNs = 0;
    Clock::time_point layoutStart{};

    double setupS() const { return toSeconds(generateNs + layoutNs); }
};

class MiningRun
{
  public:
    MiningRun(const MiningSpec &spec, std::uint64_t seed, SpanLog *spans)
        : spec_(spec), seed_(seed), spans_(spans)
    {
    }

    /**
     * Build the instance from scratch and mine it once. @p workers
     * overrides the spec's pool width; @p traced wraps the engine in
     * the timing decorator.
     */
    std::uint64_t
    run(MiningInstance &inst, sim::SimContext &ctx, MiningTimes &times,
        std::uint32_t workers, bool traced)
    {
        const Clock::time_point t0 = Clock::now();
        inst.graph =
            spec_.freshGraph
                ? seededDataset(spec_.dataset, seed_)
                : relabel(graph::makeDataset(spec_.dataset), seed_);
        const Clock::time_point t1 = Clock::now();
        isa::ScuConfig config;
        config.batchWorkers = workers;
        inst.engine = std::make_unique<core::SisaEngine>(
            inst.graph.numVertices(), config, mining_threads);
        if (traced) {
            inst.timing =
                std::make_unique<TimingEngine>(*inst.engine,
                                               spec_.triangles);
        }
        if (spec_.triangles) {
            inst.osg = std::make_unique<algorithms::OrientedSetGraph>(
                inst.graph, inst.front());
        } else {
            inst.sg = std::make_unique<core::SetGraph>(inst.graph,
                                                       inst.front());
        }
        const Clock::time_point t2 = Clock::now();
        ctx.setPatternCutoff(0);
        const std::uint64_t value =
            spec_.triangles
                ? algorithms::triangleCount(*inst.osg, ctx)
                : algorithms::maximalCliques(*inst.sg, ctx).cliqueCount;
        const Clock::time_point t3 = Clock::now();
        times.generateNs = nsBetween(t0, t1);
        times.layoutNs = nsBetween(t1, t2);
        times.mineNs = nsBetween(t2, t3);
        times.layoutStart = t1;
        if (spans_) {
            const std::string tag = traced ? "traced." : "";
            spans_->add(tag + "graph.generate", t0, t1);
            spans_->add(tag + "core.layout", t1, t2);
            spans_->add(tag + "algorithms.mine", t2, t3);
        }
        return value;
    }

    /** Independent reference answer for @p inst's graph. */
    std::uint64_t
    reference(const MiningInstance &inst) const
    {
        if (spec_.triangles)
            return orientedTriangleCount(inst.osg->oriented);
        return MaximalCliqueOracle(inst.graph).count();
    }

    /** Non-set CPU baseline on @p inst's graph (value, ctx). */
    std::uint64_t
    baseline(const MiningInstance &inst, sim::SimContext &ctx) const
    {
        sim::CpuModel cpu(sim::CpuParams{}, mining_threads);
        if (spec_.triangles) {
            baselines::CsrView view(inst.osg->oriented, cpu);
            return baselines::triangleCountBaseline(view, ctx);
        }
        baselines::CsrView view(inst.graph, cpu);
        return baselines::maximalCliquesBaseline(view, ctx).cliqueCount;
    }

  private:
    MiningSpec spec_;
    std::uint64_t seed_;
    SpanLog *spans_;
};

/**
 * sets.kernel_s: the recorded intersect-card operand pairs replayed
 * through the public sets:: kernels (no SCU, no cost model). Returns
 * the summed cardinality, which must equal the mined count.
 */
std::uint64_t
replayCardPairs(const isa::SetStore &store,
                const std::vector<std::pair<core::SetId, core::SetId>>
                    &pairs)
{
    std::uint64_t total = 0;
    sets::OpWork work;
    for (const auto &[a, b] : pairs) {
        const bool da = store.isDense(a), db = store.isDense(b);
        if (da && db) {
            total += sets::intersectCardDbDb(store.db(a), store.db(b),
                                             work);
        } else if (da || db) {
            total += sets::intersectCardSaDb(store.sa(da ? b : a),
                                             store.db(da ? a : b), work);
        } else {
            const sets::SortedArraySet &x = store.sa(a);
            const sets::SortedArraySet &y = store.sa(b);
            const bool x_small = x.size() <= y.size();
            const sets::SortedArraySet &small = x_small ? x : y;
            const sets::SortedArraySet &large = x_small ? y : x;
            // Gallop when one side dwarfs the other, merge otherwise.
            total += large.size() >= 32 * small.size()
                         ? sets::intersectCardGallop(small, large, work)
                         : sets::intersectCardMerge(small, large, work);
        }
    }
    return total;
}

RunResult
runMining(const MiningSpec &spec, const RunOptions &opts)
{
    RunResult result;
    MetricSet m;
    SpanLog spans;
    MiningRun runner(spec, opts.seed, opts.trace ? &spans : nullptr);

    std::uint64_t reference = 0;
    double makespan = 0.0;
    std::unique_ptr<ModeledOutcome> first;
    std::vector<double> setup_s, mine_s;
    const auto check = [&](std::uint64_t value, const ModeledOutcome &o) {
        ++result.attempted;
        if (value != reference) {
            ++result.failed;
            result.correct = false;
            result.notes.push_back("mined " + std::to_string(value) +
                                   ", reference " +
                                   std::to_string(reference));
        }
        if (!(o == *first)) {
            result.correct = false;
            result.notes.push_back("modeled outcome changed between "
                                   "runs of one seed");
        }
    };

    // One untraced repetition: the samples of the end-to-end metrics.
    const auto untraced = [&](std::size_t i) {
        MiningInstance inst;
        sim::SimContext ctx(mining_threads);
        MiningTimes times;
        const std::uint64_t value =
            runner.run(inst, ctx, times, mining_workers, false);
        if (i == 0) {
            reference = runner.reference(inst);
            first = std::make_unique<ModeledOutcome>(value, ctx);
            setGraphMetrics(m, inst.graph);
            makespan = static_cast<double>(ctx.makespan());
            m.set("cycles", makespan);
            m.set("algorithms.patterns",
                  static_cast<double>(ctx.totalPatterns()));
            setCounterMetrics(m, ctx.counters());
            mem::Cycles total = 0, stall = 0;
            for (sim::ThreadId t = 0; t < mining_threads; ++t) {
                total += ctx.threadCycles(t);
                stall += ctx.threadStall(t);
            }
            m.set("sim.stall_fraction",
                  total ? static_cast<double>(stall) /
                              static_cast<double>(total)
                        : 0.0);
            m.set("sim.imbalance",
                  total ? static_cast<double>(ctx.makespan()) *
                              mining_threads / static_cast<double>(total)
                        : 0.0);
            const sets::ReprAssignment &repr = inst.sets().assignment();
            m.set("core.dense_sets", repr.denseCount);
            m.set("core.storage_mb",
                  static_cast<double>(repr.chosenBits) / 8.0 / 1048576.0);
        }
        check(value, ModeledOutcome(value, ctx));
        setup_s.push_back(times.setupS());
        mine_s.push_back(toSeconds(times.mineNs));
    };
    repeatFor(opts.trace ? 0.0 : opts.seconds, opts.trace ? 1 : 3,
              untraced);

    if (opts.trace) {
        // Traced run through the timing decorator.
        MiningInstance inst;
        sim::SimContext ctx(mining_threads);
        MiningTimes times;
        const std::uint64_t value =
            runner.run(inst, ctx, times, mining_workers, true);
        check(value, ModeledOutcome(value, ctx));
        const EngineTrace &t = inst.timing->trace();
        // The layout's first store() access ends orientation and
        // starts the set build (core/set_graph.cpp).
        const std::uint64_t orient_ns =
            t.storeAccessed ? nsBetween(times.layoutStart, t.firstStoreAccess)
                            : 0;
        m.set("graph.generate_s", toSeconds(times.generateNs));
        m.set("graph.orient_s", toSeconds(orient_ns));
        m.set("core.set_build_s", toSeconds(times.layoutNs - orient_ns));
        m.set("core.batch_calls", static_cast<double>(t.dispatch.calls));
        m.set("core.batch_ops", static_cast<double>(t.batchOps));
        m.set("core.ops_per_batch",
              t.dispatch.calls ? static_cast<double>(t.batchOps) /
                                     static_cast<double>(t.dispatch.calls)
                               : 0.0);
        m.set("core.batch_s", toSeconds(t.dispatch.ns + t.collect.ns));
        m.set("core.serial_calls", static_cast<double>(t.serial.calls));
        m.set("core.serial_s", toSeconds(t.serial.ns));
        m.set("core.alloc_calls", static_cast<double>(t.alloc.calls));
        m.set("core.alloc_s", toSeconds(t.alloc.ns));
        m.set("core.live_sets_peak", static_cast<double>(t.liveSetsPeak));
        const std::uint64_t ops = t.batchOps + t.serial.calls;
        m.set("sisa.host_ns_per_op",
              ops ? static_cast<double>(t.engineNs()) /
                        static_cast<double>(ops)
                  : 0.0);
        m.set("algorithms.self_s",
              toSeconds(times.mineNs - std::min(times.mineNs,
                                                 t.engineNs())));
        // The traced run sits between two untraced ones, so a drift
        // in host speed cancels out of the overhead.
        untraced(1);
        m.set("trace.overhead_s",
              toSeconds(times.mineNs) - median(mine_s));

        if (!t.cardPairs.empty()) {
            const Clock::time_point k0 = Clock::now();
            const std::uint64_t replayed =
                replayCardPairs(inst.engine->store(), t.cardPairs);
            spans.add("sets.kernel_replay", k0, Clock::now());
            m.set("sets.kernel_s", toSeconds(elapsedNs(k0)));
            if (replayed != reference) {
                result.correct = false;
                result.notes.push_back("kernel replay disagrees");
            }
        }

        // Non-set baseline: paper context for the speedup claim.
        sim::SimContext base_ctx(mining_threads);
        const Clock::time_point b0 = Clock::now();
        const std::uint64_t base_value = runner.baseline(inst, base_ctx);
        spans.add("baselines.nonset", b0, Clock::now());
        ++result.attempted;
        if (base_value != reference) {
            ++result.failed;
            result.correct = false;
            result.notes.push_back("non-set baseline disagrees");
        }
        m.set("baselines.nonset_cycles",
              static_cast<double>(base_ctx.makespan()));
        m.set("baselines.speedup_vs_nonset",
              static_cast<double>(base_ctx.makespan()) /
                  static_cast<double>(ctx.makespan()));
    }

    if (opts.trace) {
        // Pool probe: the same run on the default pool; its modeled
        // outcome must match the 1-worker runs.
        MiningInstance inst;
        sim::SimContext ctx(mining_threads);
        MiningTimes times;
        const std::uint64_t value =
            runner.run(inst, ctx, times, default_pool, false);
        check(value, ModeledOutcome(value, ctx));
        m.set("sisa.pool_overhead_s",
              toSeconds(times.mineNs) - median(mine_s));
        if (!opts.traceFile.empty())
            spans.write(opts.traceFile);
    }

    result.notes.push_back(samplesNote("setup_s", setup_s));
    result.notes.push_back(samplesNote("mine_s", mine_s));
    m.set("setup_s", median(setup_s));
    m.set("mine_s", median(mine_s));
    m.set("peak_rss_mb", peakRssMb());
    // A mining run is one query that arrives at cycle 0 with no
    // deadline: its latency is the makespan, and it counts toward
    // goodput when its answer is right.
    m.set("p50_latency_cycles", makespan);
    m.set("tail_latency_cycles", makespan);
    m.set("goodput", static_cast<double>(result.attempted - result.failed) /
                         static_cast<double>(result.attempted));
    result.metrics = opts.trace ? m.emit(per_layer_metrics)
                                : m.emit(end_to_end_metrics);
    return result;
}

// --- Serving workload (serve-open) -------------------------------------------

/**
 * Open-loop serving constants, calibrated once near capacity and then
 * frozen (README.md): never derived from the program's own speed. A
 * burst of all 128 queries drains in 917,480 cycles, 7,168 per query,
 * so a mean gap of 8,000 offers 0.90 of that rate. The deadline is
 * 10% above the slowest solo query (cl-jac, 327,110).
 */
constexpr std::size_t serve_queries = 128;
constexpr double serve_mean_gap = 8000.0;
constexpr mem::Cycles serve_rel_deadline = 360000;
constexpr std::uint32_t serve_admit_capacity = 16;

/** Query @p i's problem: 13 tc : 1 mc : 1 cl-jac : 1 kcc-4. */
const char *
serveProblem(std::size_t i)
{
    switch (i % 16) {
      case 3: return "mc";
      case 8: return "cl-jac";
      case 13: return "kcc-4";
      default: return "tc";
    }
}

serve::ScenarioConfig
serveConfig(const std::vector<mem::Cycles> &arrivals, std::size_t count)
{
    serve::ScenarioConfig config;
    // EDF grants before the base policy is consulted, and one relative
    // deadline for every query makes that arrival order: the credit
    // scheduler is configured but never decides a grant here.
    config.policy = isa::SchedPolicy::Credit;
    config.scu.batchWorkers = 1;
    config.shed = isa::ShedPolicy::Edf;
    config.admitCapacity = serve_admit_capacity;
    for (std::size_t i = 0; i < count; ++i) {
        serve::QuerySpec spec;
        spec.problem = serveProblem(i);
        spec.arrival = arrivals[i];
        spec.deadline = arrivals[i] + serve_rel_deadline;
        config.queries.push_back(spec);
    }
    return config;
}

/**
 * The served graph: the serving bench's RMAT-9 (edge factor 8,
 * generator seed 42). It is fixed, so the benchmark seed varies only
 * the arrival process (README.md).
 */
graph::Graph
serveGraph()
{
    graph::RmatParams params;
    params.scale = 9;
    params.edgeFactor = 8;
    return graph::rmat(params, 42);
}

/** Each problem's value when it runs alone on @p g. */
std::map<std::string, std::uint64_t>
soloValues(const graph::Graph &g, std::vector<std::string> &notes)
{
    std::map<std::string, std::uint64_t> solo;
    for (std::size_t i = 0; i < 16; ++i) {
        const std::string problem = serveProblem(i);
        if (solo.count(problem))
            continue;
        serve::ScenarioConfig config;
        config.scu.batchWorkers = 1;
        config.queries.push_back({problem});
        const serve::QueryReport q =
            serve::serveMixedWorkload(g, config).queries[0];
        solo[problem] = q.value;
        notes.push_back("solo " + problem + ": value " +
                        std::to_string(q.value) + ", " +
                        std::to_string(q.completion) + " cycles");
    }
    return solo;
}

/** The modeled outcome of one scenario, which must repeat exactly. */
struct ServeOutcome
{
    std::vector<std::tuple<isa::QueryState, std::uint64_t, mem::Cycles>>
        queries;
    std::vector<sim::QueryId> admissionLog;
    std::size_t lifecycleEvents = 0;

    explicit ServeOutcome(const serve::ScenarioReport &report)
        : admissionLog(report.admissionLog),
          lifecycleEvents(report.lifecycleLog.size())
    {
        for (const serve::QueryReport &q : report.queries)
            queries.emplace_back(q.state, q.value, q.completion);
    }

    bool operator==(const ServeOutcome &) const = default;
};

/**
 * The tail percentile: the highest of a fixed ladder whose nearest
 * rank still leaves at least ten samples above it.
 */
double
tailPercentile(std::size_t samples)
{
    for (double p : {99.9, 99.0, 95.0, 90.0, 75.0}) {
        const auto rank = static_cast<std::size_t>(
            std::ceil(p / 100.0 * static_cast<double>(samples)));
        if (samples >= rank + 10)
            return p;
    }
    return 50.0;
}

void
setServeModeledMetrics(MetricSet &m, const serve::ScenarioReport &report,
                       std::vector<std::string> &notes)
{
    std::vector<double> latency, wait;
    std::size_t good = 0, shed = 0, timed_out = 0, aborted = 0;
    std::map<std::string, std::uint64_t> counters;
    for (const serve::QueryReport &q : report.queries) {
        for (const auto &[name, value] : q.account.counters)
            counters[name] += value;
        switch (q.state) {
          case isa::QueryState::Completed:
            latency.push_back(static_cast<double>(q.completion - q.arrival));
            wait.push_back(static_cast<double>(q.completion - q.arrival -
                                               q.ownCycles));
            good += q.deadlineMet ? 1 : 0;
            break;
          case isa::QueryState::Shed: ++shed; break;
          case isa::QueryState::TimedOut: ++timed_out; break;
          case isa::QueryState::Aborted: ++aborted; break;
          default: break;
        }
    }
    const double tail_p = tailPercentile(latency.size());
    m.set("p50_latency_cycles", support::percentile(latency, 50.0));
    m.set("tail_latency_cycles", support::percentile(latency, tail_p));
    m.set("goodput", static_cast<double>(good) /
                         static_cast<double>(report.queries.size()));
    // An open loop's makespan is mostly the last arrival time, so the
    // serving "cycles" is the work served: the queries' own cycles.
    mem::Cycles served = 0;
    for (const serve::QueryReport &q : report.queries)
        served += q.ownCycles;
    m.set("cycles", static_cast<double>(served));
    m.set("serve.grants", static_cast<double>(report.admissionLog.size()));
    m.set("serve.lifecycle_events",
          static_cast<double>(report.lifecycleLog.size()));
    m.set("serve.completed", static_cast<double>(latency.size()));
    m.set("serve.shed", static_cast<double>(shed));
    m.set("serve.timed_out", static_cast<double>(timed_out));
    m.set("serve.aborted", static_cast<double>(aborted));
    m.set("serve.queue_wait_p50_cycles", support::percentile(wait, 50.0));
    m.set("serve.tail_percentile", tail_p);
    m.set("serve.latency_samples", static_cast<double>(latency.size()));
    setCounterMetrics(m, counters);
    char note[160];
    std::snprintf(note, sizeof note,
                  "tail_latency_cycles is p%g of %zu completed queries "
                  "(%zu offered)",
                  tail_p, latency.size(), report.queries.size());
    notes.emplace_back(note);
}

/**
 * Pin the calling thread, and every thread it starts afterwards, to the
 * CPU it is running on. The serving layer's query threads run in
 * lockstep, one at a time, so a second CPU adds nothing but cross-CPU
 * wakeups, and their cost made unpinned scenarios swing 0.9-3.1 s on a
 * shared 4-core host (0.6-1.2 s pinned). Best effort: on failure the
 * run stays unpinned.
 */
void
pinToCurrentCpu()
{
    const int cpu = sched_getcpu();
    if (cpu < 0)
        return;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(static_cast<unsigned>(cpu), &set);
    sched_setaffinity(0, sizeof set, &set);
}

/**
 * Put the calling thread, and every thread it starts afterwards, under
 * scheduling @p policy. Under SCHED_BATCH a woken thread does not
 * preempt the thread that woke it. The serving layer's grants wake all
 * waiting query threads at once (notify_all), and under the default
 * policy how many of them run before the grantee does is a race: one
 * seed's 128-query scenario made 20K-155K context switches and took
 * 0.13-0.54 s, so whole runs differed by a third. Under SCHED_BATCH
 * the same scenario makes 5K-8K switches and takes 0.10-0.19 s.
 * Best effort: on failure the policy stays as it was.
 */
void
setSchedPolicy(int policy)
{
    sched_param param{};
    sched_setscheduler(0, policy, &param);
}

RunResult
runServe(const RunOptions &opts)
{
    RunResult result;
    MetricSet m;
    SpanLog spans;
    pinToCurrentCpu();
    setSchedPolicy(SCHED_BATCH);

    // The reference: every problem kind solo, on the same graph.
    const std::map<std::string, std::uint64_t> solo =
        soloValues(serveGraph(), result.notes);

    std::unique_ptr<ServeOutcome> first;
    std::vector<double> setup_s, mine_s;
    // One scenario run: set-up (graph + arrivals), then serving.
    const auto serveOnce = [&](std::size_t count,
                               serve::ScenarioReport &report,
                               graph::Graph &g) {
        const Clock::time_point t0 = Clock::now();
        g = serveGraph();
        const serve::ScenarioConfig config = serveConfig(
            serve::poissonArrivals(opts.seed, serve_mean_gap, count),
            count);
        const Clock::time_point t1 = Clock::now();
        result.attempted += count;
        try {
            report = serve::serveMixedWorkload(g, config);
        } catch (const std::exception &e) {
            result.failed += count;
            result.correct = false;
            result.notes.push_back(std::string("scenario threw: ") +
                                   e.what());
        }
        const Clock::time_point t2 = Clock::now();
        spans.add("graph.generate", t0, t1);
        spans.add("serve.scenario", t1, t2);
        for (const serve::QueryReport &q : report.queries) {
            const bool wrong = q.state == isa::QueryState::Completed &&
                               q.value != solo.at(q.problem);
            if (wrong || q.state == isa::QueryState::Aborted)
                ++result.failed;
        }
        setup_s.push_back(toSeconds(nsBetween(t0, t1)));
        return toSeconds(nsBetween(t1, t2));
    };

    // One full scenario; its modeled outcome must repeat the first's.
    const auto serveFull = [&](std::size_t i) {
        serve::ScenarioReport report;
        graph::Graph g;
        const double scenario_s = serveOnce(serve_queries, report, g);
        const ServeOutcome outcome(report);
        if (i == 0) {
            first = std::make_unique<ServeOutcome>(outcome);
            setServeModeledMetrics(m, report, result.notes);
            setGraphMetrics(m, g);
        } else if (!(outcome == *first)) {
            result.correct = false;
            result.notes.push_back("modeled outcome changed between "
                                   "runs of one seed");
        }
        return scenario_s;
    };

    const std::size_t min_iters = opts.trace ? 1 : 3;
    const double seconds = opts.trace ? 0.0 : opts.seconds;
    repeatFor(seconds, min_iters,
              [&](std::size_t i) { mine_s.push_back(serveFull(i)); });
    result.notes.push_back(samplesNote("setup_s", setup_s));
    result.notes.push_back(samplesNote("mine_s", mine_s));
    m.set("setup_s", median(setup_s));
    m.set("mine_s", median(mine_s));
    m.set("peak_rss_mb", peakRssMb());
    m.set("graph.generate_s", median(setup_s));
    m.set("serve.host_us_per_grant",
          median(mine_s) * 1e6 /
              std::max(1.0, static_cast<double>(first->admissionLog.size())));

    if (opts.trace) {
        // Host growth: the same arrivals, first half of the queries.
        serve::ScenarioReport half;
        graph::Graph g;
        const double half_s = serveOnce(serve_queries / 2, half, g);
        m.set("serve.host_growth", std::log2(median(mine_s) / half_s));
        // The scenario's host time under the default scheduling policy,
        // wakeup races included (see setSchedPolicy).
        setSchedPolicy(SCHED_OTHER);
        std::vector<double> default_s;
        repeatFor(0.0, 5, [&](std::size_t i) {
            default_s.push_back(serveFull(i + 1));
        });
        m.set("serve.default_sched_mine_s", median(default_s));
        if (!opts.traceFile.empty())
            spans.write(opts.traceFile);
    }

    if (result.failed)
        result.correct = false;
    result.metrics = opts.trace ? m.emit(per_layer_metrics)
                                : m.emit(end_to_end_metrics);
    return result;
}

} // namespace

RunResult
runWorkload(const RunOptions &opts)
{
    if (opts.workload == "tc-large")
        return runMining({"bio-humanGene", true, true}, opts);
    if (opts.workload == "bk-dense")
        return runMining({"bio-SC-GT", false, false}, opts);
    if (opts.workload == "serve-open")
        return runServe(opts);
    throw std::invalid_argument("unknown workload '" + opts.workload + "'");
}

} // namespace sisa::perfbench
