// Selection turnaround under runtime graph deltas: full recompute (cold
// cache, CSR patching disabled) vs incremental re-selection (journal-driven
// CSR patching plus footprint-aware SelectorCache survival).
//
// The workload models the paper's dlopen scenario: a large application graph
// with a plugin cluster of ~1% of the nodes hanging off to the side (a sink —
// nothing on the instrumented paths calls into it, it calls nobody outside).
// Each iteration churns edges inside the plugin and re-runs a multi-stage
// selection over the main application. The full path rebuilds the CSR and
// re-evaluates every stage; the incremental path patches the touched rows
// and answers every unaffected stage from the surviving cache. The ratio
// Full/Incremental at the same node count is the re-selection speedup the
// incremental engine buys (target from the roadmap: >= 10x at 200k nodes,
// <= 1% churn per round).
//
// A third case churns edges inside the hot region itself — the honest worst
// case where footprints intersect the delta and stages must re-run.
//
// BM_RefineStep times a whole refinement step, not only Pipeline::run: the
// session's selection (pipeline, has-body mask, inline compensation, IC
// build) and the delta repatch that applies its IC, reported apart. It
// rotates the paper specs, so after one lap every stage hits the session's
// cache; BM_RefineStepThresholdSweep times the step that misses it.
// BM_DynCapiInit times the start-up that precedes the loop (Tinit): DynCapi
// construction plus applyIc of the mpi IC on a fresh process image.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "binsim/process.hpp"
#include "cg/call_graph.hpp"
#include "cg/csr_view.hpp"
#include "dyncapi/dyncapi.hpp"
#include "dyncapi/refinement.hpp"
#include "select/pipeline.hpp"
#include "select/selector_cache.hpp"
#include "spec/parser.hpp"
#include "support/rng.hpp"

namespace {

using namespace capi;

/// Multi-stage selection over the main application: metric filters feeding
/// reachability, k-hop neighborhoods and coarse pruning. No spec stage can
/// reach the plugin cluster (it is unreachable from main and contains no MPI
/// or high-statement functions), so plugin churn stays outside every
/// footprint.
const char* kTurnaroundSpec =
    "hot = statements(\">=\", 25, %%)\n"
    "mpi = mpiFunctions(%%)\n"
    "paths = onCallPathTo(%hot)\n"
    "near = join(callers(%mpi), callees(%mpi, 2))\n"
    "trimmed = coarse(%paths, %hot)\n"
    "join(%trimmed, %near)\n";

struct PluginFixture {
    cg::CallGraph graph;
    std::vector<cg::FunctionId> plugin;   ///< The churn cluster (~1% of nodes).
    std::vector<cg::FunctionId> hotRegion;  ///< Sample of main-app nodes.
};

/// Scaled OpenFOAM graph plus a plugin sink cluster of n/100 nodes with
/// internal chain edges. Plugin functions have tiny statement counts so no
/// metric filter selects them.
PluginFixture makeFixture(std::uint32_t nodes) {
    PluginFixture fx;
    fx.graph = bench::scaledOpenFoamGraph(nodes);  // Copy: we mutate it.
    const std::size_t pluginSize = std::max<std::size_t>(16, nodes / 100);
    cg::FunctionId previous = cg::kInvalidFunction;
    for (std::size_t i = 0; i < pluginSize; ++i) {
        cg::FunctionDesc desc;
        desc.name = "plugin_fn" + std::to_string(i);
        desc.prettyName = desc.name;
        desc.flags.hasBody = true;
        desc.metrics.numStatements = 1;
        cg::FunctionId id = fx.graph.addFunction(desc);
        if (previous != cg::kInvalidFunction) {
            fx.graph.addCallEdge(previous, id);
        }
        previous = id;
        fx.plugin.push_back(id);
    }
    for (cg::FunctionId id = 0; id < nodes; id += std::max(1u, nodes / 64)) {
        fx.hotRegion.push_back(id);
    }
    return fx;
}

/// One churn round: toggles ~cluster-size edges between random members of
/// `cluster` (<= 1% of the graph dirty per round).
void churn(cg::CallGraph& graph, const std::vector<cg::FunctionId>& cluster,
           support::SplitMix64& rng) {
    const std::size_t flips = cluster.size() / 2;
    for (std::size_t i = 0; i < flips; ++i) {
        cg::FunctionId from = cluster[rng.nextBelow(cluster.size())];
        cg::FunctionId to = cluster[rng.nextBelow(cluster.size())];
        if (from == to) {
            continue;
        }
        if (graph.hasEdge(from, to)) {
            graph.removeCallEdge(from, to);
        } else {
            graph.addCallEdge(from, to);
        }
    }
}

void runTurnaround(benchmark::State& state, bool incremental,
                   bool churnHotRegion) {
    PluginFixture fx = makeFixture(static_cast<std::uint32_t>(state.range(0)));
    select::Pipeline pipeline(spec::parseSpec(kTurnaroundSpec));
    select::SelectorCache cache;
    support::SplitMix64 rng(1234);

    cg::CsrView::setIncrementalPatching(incremental);
    select::PipelineOptions options;
    options.cache = incremental ? &cache : nullptr;
    if (incremental) {
        pipeline.run(fx.graph, options);  // Warm the cache once.
    }

    std::size_t selected = 0;
    for (auto _ : state) {
        state.PauseTiming();
        churn(fx.graph, churnHotRegion ? fx.hotRegion : fx.plugin, rng);
        if (!incremental) {
            cache.clear();
        }
        state.ResumeTiming();
        select::PipelineRun run = pipeline.run(fx.graph, options);
        selected = run.result.count();
        benchmark::DoNotOptimize(selected);
    }
    cg::CsrView::setIncrementalPatching(true);

    state.counters["selected"] =
        benchmark::Counter(static_cast<double>(selected));
    if (incremental) {
        select::SelectorCache::Stats stats = cache.stats();
        state.counters["cache_survivals"] =
            benchmark::Counter(static_cast<double>(stats.survivals));
        state.counters["cache_invalidations"] =
            benchmark::Counter(static_cast<double>(stats.invalidations));
    }
}

void BM_ReselectTurnaroundFull(benchmark::State& state) {
    runTurnaround(state, /*incremental=*/false, /*churnHotRegion=*/false);
}

void BM_ReselectTurnaroundIncremental(benchmark::State& state) {
    runTurnaround(state, /*incremental=*/true, /*churnHotRegion=*/false);
}

void BM_ReselectTurnaroundIncrementalDirtyHotRegion(benchmark::State& state) {
    // Worst case: the churn hits the instrumented region, so traversal
    // footprints intersect the delta and those stages re-evaluate — the win
    // shrinks to the CSR patch and the untouched filter stages.
    runTurnaround(state, /*incremental=*/true, /*churnHotRegion=*/true);
}

BENCHMARK(BM_ReselectTurnaroundFull)->Arg(20000)->Arg(200000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ReselectTurnaroundIncremental)->Arg(20000)->Arg(200000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ReselectTurnaroundIncrementalDirtyHotRegion)
    ->Arg(20000)->Arg(200000)->Unit(benchmark::kMillisecond);

/// CSR maintenance alone: journal-driven patch vs full rebuild, per churn
/// round (the snapshot layer's share of the turnaround win).
void BM_CsrSnapshot(benchmark::State& state) {
    const bool incremental = state.range(1) != 0;
    PluginFixture fx = makeFixture(static_cast<std::uint32_t>(state.range(0)));
    support::SplitMix64 rng(99);
    cg::CsrView::setIncrementalPatching(incremental);
    cg::CsrView::snapshot(fx.graph);
    for (auto _ : state) {
        state.PauseTiming();
        churn(fx.graph, fx.plugin, rng);
        state.ResumeTiming();
        auto view = cg::CsrView::snapshot(fx.graph);
        benchmark::DoNotOptimize(view->edgeCount());
    }
    cg::CsrView::setIncrementalPatching(true);
}

BENCHMARK(BM_CsrSnapshot)
    ->ArgsProduct({{20000, 200000}, {0, 1}})
    ->ArgNames({"nodes", "patch"})
    ->Unit(benchmark::kMicrosecond);

/// The refinement loop's inputs: a selection-scale OpenFOAM graph and its
/// XRay build (built once per node count, outside the timing).
const bench::PreparedApp& refineApp(std::uint32_t nodes) {
    static std::map<std::uint32_t, bench::PreparedApp> apps;
    auto it = apps.find(nodes);
    if (it == apps.end()) {
        apps::OpenFoamParams params = apps::OpenFoamParams::selectionScale();
        params.targetNodes = nodes;
        it = apps.emplace(nodes, bench::prepare("openfoam", apps::makeOpenFoam(params)))
                 .first;
    }
    return it->second;
}

/// One closed-loop refinement step per iteration: RefinementSession::select
/// of the next paper spec (in rotation, so every step changes the IC), then
/// DynCapi::applyIcDelta of its IC. `select_ms` and `apply_ms` split the
/// step; `flipped` is the functions each delta patched or unpatched.
void BM_RefineStep(benchmark::State& state) {
    using Clock = std::chrono::steady_clock;
    const bench::PreparedApp& app = refineApp(static_cast<std::uint32_t>(state.range(0)));
    static const spec::ModuleResolver resolver = apps::bundledResolver();
    const dyncapi::ProcessSymbolOracle oracle(app.compiled);
    select::SelectionOptions base;
    base.resolver = &resolver;
    base.symbolOracle = &oracle;
    const std::vector<apps::NamedSpec> specs = apps::evaluationSpecs();

    binsim::Process process(app.compiled);
    dyncapi::DynCapi dyn(process);
    dyncapi::RefinementSession session(app.graph);
    // The session starts where the loop does: the first spec applied.
    dyn.applyIc(session.select(specs[0].text, specs[0].name, base).ic);

    std::size_t next = 1;
    double selectNs = 0.0;
    double applyNs = 0.0;
    double flipped = 0.0;
    for (auto _ : state) {
        const apps::NamedSpec& spec = specs[next++ % specs.size()];
        const Clock::time_point start = Clock::now();
        select::SelectionReport report = session.select(spec.text, spec.name, base);
        const Clock::time_point selected = Clock::now();
        dyncapi::DeltaStats delta = dyn.applyIcDelta(report.ic);
        const Clock::time_point applied = Clock::now();
        benchmark::DoNotOptimize(report.ic.functions.data());
        benchmark::DoNotOptimize(delta.pagesTouched);
        selectNs += std::chrono::duration<double, std::nano>(selected - start).count();
        applyNs += std::chrono::duration<double, std::nano>(applied - selected).count();
        flipped += static_cast<double>(delta.functionsPatched + delta.functionsUnpatched);
    }
    state.counters["select_ms"] =
        benchmark::Counter(selectNs / 1e6, benchmark::Counter::kAvgIterations);
    state.counters["apply_ms"] =
        benchmark::Counter(applyNs / 1e6, benchmark::Counter::kAvgIterations);
    state.counters["flipped"] =
        benchmark::Counter(flipped, benchmark::Counter::kAvgIterations);
}

BENCHMARK(BM_RefineStep)->Arg(50000)->Unit(benchmark::kMillisecond);

/// The refinement step a user takes while tuning a threshold: every
/// iteration selects the kernels spec at a flops threshold the session has
/// not seen, so kernels_raw, onCallPathTo and the final stage miss the
/// SelectorCache (BM_RefineStep's rotation hits it after one lap), then
/// applies the IC as a delta. A fresh session, warmed outside the timing on
/// another threshold, takes over every kSweepLap iterations; the graph, and
/// so its snapshot and entry closure, stay the same throughout.
void BM_RefineStepThresholdSweep(benchmark::State& state) {
    using Clock = std::chrono::steady_clock;
    constexpr std::uint64_t kSweepLap = 32;  // Thresholds 5..36 per session.
    const bench::PreparedApp& app = refineApp(static_cast<std::uint32_t>(state.range(0)));
    static const spec::ModuleResolver resolver = apps::bundledResolver();
    const dyncapi::ProcessSymbolOracle oracle(app.compiled);
    select::SelectionOptions base;
    base.resolver = &resolver;
    base.symbolOracle = &oracle;
    auto kernelsAt = [](std::uint64_t flops) {
        return "excluded = join(inSystemHeader(%%), inlineSpecified(%%))\n"
               "kernels_raw = flops(\">=\", " + std::to_string(flops) +
               ", loopDepth(\">=\", 1, %%))\n"
               "subtract(onCallPathTo(%kernels_raw), %excluded)\n";
    };

    binsim::Process process(app.compiled);
    dyncapi::DynCapi dyn(process);
    std::unique_ptr<dyncapi::RefinementSession> session;
    std::uint64_t step = 0;
    double selectNs = 0.0;
    double applyNs = 0.0;
    for (auto _ : state) {
        if (step % kSweepLap == 0) {
            state.PauseTiming();
            session = std::make_unique<dyncapi::RefinementSession>(app.graph);
            dyn.applyIcDelta(session->select(kernelsAt(4), "kernels", base).ic);
            state.ResumeTiming();
        }
        const std::string spec = kernelsAt(5 + step++ % kSweepLap);
        const Clock::time_point start = Clock::now();
        select::SelectionReport report = session->select(spec, "kernels", base);
        const Clock::time_point selected = Clock::now();
        dyncapi::DeltaStats delta = dyn.applyIcDelta(report.ic);
        const Clock::time_point applied = Clock::now();
        benchmark::DoNotOptimize(report.ic.functions.data());
        benchmark::DoNotOptimize(delta.pagesTouched);
        selectNs += std::chrono::duration<double, std::nano>(selected - start).count();
        applyNs += std::chrono::duration<double, std::nano>(applied - selected).count();
    }
    state.counters["select_ms"] =
        benchmark::Counter(selectNs / 1e6, benchmark::Counter::kAvgIterations);
    state.counters["apply_ms"] =
        benchmark::Counter(applyNs / 1e6, benchmark::Counter::kAvgIterations);
}

BENCHMARK(BM_RefineStepThresholdSweep)->Arg(50000)->Unit(benchmark::kMillisecond);

/// DynCAPI start-up (the paper's Tinit): per iteration a fresh process image
/// is built outside the timer, then DynCapi construction (fid<->name
/// resolution over every object) and applyIc of the mpi IC are timed;
/// `resolve_ms` and `apply_ms` split the two.
void BM_DynCapiInit(benchmark::State& state) {
    using Clock = std::chrono::steady_clock;
    const bench::PreparedApp& app = refineApp(static_cast<std::uint32_t>(state.range(0)));
    const select::InstrumentationConfig ic =
        bench::runPaperSelection(app, "mpi", apps::mpiSpec()).ic;

    double resolveNs = 0.0;
    double applyNs = 0.0;
    for (auto _ : state) {
        state.PauseTiming();
        auto process = std::make_unique<binsim::Process>(app.compiled);
        state.ResumeTiming();
        const Clock::time_point start = Clock::now();
        auto dyn = std::make_unique<dyncapi::DynCapi>(*process);
        const Clock::time_point resolved = Clock::now();
        dyncapi::InitStats stats = dyn->applyIc(ic);
        const Clock::time_point applied = Clock::now();
        benchmark::DoNotOptimize(stats.patchedFunctions);
        resolveNs += std::chrono::duration<double, std::nano>(resolved - start).count();
        applyNs += std::chrono::duration<double, std::nano>(applied - resolved).count();
        state.PauseTiming();
        dyn.reset();
        process.reset();
        state.ResumeTiming();
    }
    state.counters["resolve_ms"] =
        benchmark::Counter(resolveNs / 1e6, benchmark::Counter::kAvgIterations);
    state.counters["apply_ms"] =
        benchmark::Counter(applyNs / 1e6, benchmark::Counter::kAvgIterations);
}

BENCHMARK(BM_DynCapiInit)->Arg(50000)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
