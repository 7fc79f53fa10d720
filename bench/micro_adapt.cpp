// Micro-benchmarks for the adaptive subsystem: delta repatching against a
// full repatch through the XRay runtime (unpatch every sled, then patch the
// IC function by function) on IC swaps of varying width, and the
// budget planner at call-graph scale: one epoch's plan over a bound
// candidate table, and building that table.
#include <benchmark/benchmark.h>

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "adapt/budget_planner.hpp"
#include "adapt/overhead_model.hpp"
#include "bench_util.hpp"
#include "binsim/compiler.hpp"
#include "binsim/process.hpp"
#include "dyncapi/dyncapi.hpp"
#include "select/ic.hpp"

namespace {

using namespace capi;

/// Flat executable with `functions` sledded functions.
binsim::AppModel flatModel(std::uint32_t functions) {
    binsim::AppModel model;
    model.name = "repatch";
    for (std::uint32_t i = 0; i < functions; ++i) {
        binsim::AppFunction fn;
        fn.name = "fn" + std::to_string(i);
        fn.unit = "repatch.cpp";
        fn.metrics.numInstructions = 100;
        fn.flags.hasBody = true;
        model.functions.push_back(fn);
    }
    model.entry = 0;
    return model;
}

/// Two ICs over `functions` names: both instrument the even half; B swaps
/// `width` even entries for odd ones, so A->B->A... flips 2*width functions.
std::pair<select::InstrumentationConfig, select::InstrumentationConfig> swapIcs(
    std::uint32_t functions, std::uint32_t width) {
    select::InstrumentationConfig a;
    select::InstrumentationConfig b;
    for (std::uint32_t i = 0; i < functions; i += 2) {
        a.addFunction("fn" + std::to_string(i));
        b.addFunction("fn" + std::to_string(i < 2 * width ? i + 1 : i));
    }
    return {std::move(a), std::move(b)};
}

void BM_FullRepatch(benchmark::State& state) {
    binsim::Process process(binsim::compile(
        flatModel(static_cast<std::uint32_t>(state.range(0)))));
    dyncapi::DynCapi dyn(process);
    auto [icA, icB] = swapIcs(static_cast<std::uint32_t>(state.range(0)),
                              static_cast<std::uint32_t>(state.range(1)));
    auto resolve = [&](const select::InstrumentationConfig& ic) {
        std::vector<xray::PackedId> pids;
        for (const std::string& name : ic.functions) {
            if (std::optional<xray::PackedId> pid = dyn.resolveName(name)) {
                pids.push_back(*pid);
            }
        }
        return pids;
    };
    const std::vector<xray::PackedId> pidsA = resolve(icA);
    const std::vector<xray::PackedId> pidsB = resolve(icB);
    xray::XRayRuntime& xr = process.xray();
    const std::uint64_t pagesBefore = process.memory().pagesMadeWritable();
    bool flip = false;
    for (auto _ : state) {
        xr.unpatchAll();
        for (xray::PackedId pid : flip ? pidsB : pidsA) {
            benchmark::DoNotOptimize(xr.patchFunction(pid));
        }
        flip = !flip;
    }
    const std::uint64_t pages = process.memory().pagesMadeWritable() - pagesBefore;
    state.counters["pages/op"] =
        static_cast<double>(pages) / static_cast<double>(state.iterations());
}
BENCHMARK(BM_FullRepatch)->Args({5000, 16})->Args({5000, 256});

void BM_DeltaRepatch(benchmark::State& state) {
    binsim::Process process(binsim::compile(
        flatModel(static_cast<std::uint32_t>(state.range(0)))));
    dyncapi::DynCapi dyn(process);
    auto [icA, icB] = swapIcs(static_cast<std::uint32_t>(state.range(0)),
                              static_cast<std::uint32_t>(state.range(1)));
    dyn.applyIc(icA);
    std::uint64_t pages = 0;
    bool flip = true;
    for (auto _ : state) {
        dyncapi::DeltaStats stats = dyn.applyIcDelta(flip ? icB : icA);
        pages += stats.pagesTouched;
        flip = !flip;
    }
    state.counters["pages/op"] =
        static_cast<double>(pages) / static_cast<double>(state.iterations());
}
BENCHMARK(BM_DeltaRepatch)->Args({5000, 16})->Args({5000, 256});

/// Planner fixture per graph size: candidate = every node, model populated
/// with deterministic synthetic estimates.
struct PlannerFixture {
    adapt::OverheadModel model;
    select::InstrumentationConfig candidate;

    explicit PlannerFixture(const cg::CallGraph& graph)
        : model([] {
              adapt::Config options;
              options.perEventCostNs = 100.0;
              return options;
          }()) {
        std::vector<adapt::RegionObservation> observed;
        for (cg::FunctionId id = 0; id < graph.size(); ++id) {
            const std::string& name = graph.name(id);
            candidate.addFunction(name);
            observed.push_back({model.regionId(name), (id * 7919u) % 3000u,
                                (id * 104729u) % 1000000u, 0});
        }
        model.observeEpoch(observed, 1e10);
    }
};

const PlannerFixture& plannerFixture(std::uint32_t nodes) {
    static std::map<std::uint32_t, std::unique_ptr<PlannerFixture>> cache;
    auto it = cache.find(nodes);
    if (it == cache.end()) {
        it = cache
                 .emplace(nodes, std::make_unique<PlannerFixture>(
                                     bench::scaledOpenFoamGraph(nodes)))
                 .first;
    }
    return *it->second;
}

/// One epoch's plan over a candidate table bound once, as the Decider runs
/// it: fold estimates by RegionId, sort the groups, sweep, emit.
void BM_BudgetPlannerEpoch(benchmark::State& state) {
    const cg::CallGraph& graph =
        bench::scaledOpenFoamGraph(static_cast<std::uint32_t>(state.range(0)));
    const PlannerFixture& fixture =
        plannerFixture(static_cast<std::uint32_t>(state.range(0)));
    adapt::BudgetPlanner planner(graph);
    adapt::Config options;
    options.budgetFraction = 0.05;
    planner.bind(fixture.candidate, fixture.model, options.keep);
    for (auto _ : state) {
        adapt::PlanResult plan = planner.plan(fixture.model, options);
        benchmark::DoNotOptimize(plan.policy.size());
        planner.recycle(std::move(plan.policy));
    }
    state.SetItemsProcessed(state.iterations() * graph.size());
}
BENCHMARK(BM_BudgetPlannerEpoch)->Arg(50000)->Arg(200000);

/// Binding the candidates: region ids, SCC groups, keep flags — what a
/// structural graph change costs the next plan.
void BM_BudgetPlannerBind(benchmark::State& state) {
    const cg::CallGraph& graph =
        bench::scaledOpenFoamGraph(static_cast<std::uint32_t>(state.range(0)));
    const PlannerFixture& fixture =
        plannerFixture(static_cast<std::uint32_t>(state.range(0)));
    adapt::BudgetPlanner planner(graph);
    for (auto _ : state) {
        planner.bind(fixture.candidate, fixture.model, {});
        benchmark::DoNotOptimize(planner.candidateRegions().data());
    }
    state.SetItemsProcessed(state.iterations() * graph.size());
}
BENCHMARK(BM_BudgetPlannerBind)->Arg(50000)->Arg(200000);

}  // namespace

BENCHMARK_MAIN();
