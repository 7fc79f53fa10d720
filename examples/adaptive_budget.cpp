// The adaptive overhead-budget loop on the LULESH proxy app.
//
// A broad survey IC (every defined function) floods the measurement with
// probe events from tiny hot helpers. Instead of hand-tuning exclusion
// thresholds, the adapt::Controller runs measurement epochs: each epoch
// feeds the merged profile into the overhead model, the budget planner
// picks the tiered policy that keeps predicted probe time under 5% of
// application runtime — demoting too-hot regions to the Sampled tier
// (1-in-64 decimation with extrapolated counts) before evicting them —
// and DynCaPI applies only the policy *delta*: a handful of code pages,
// and zero pages for pure tier transitions. No recompilation anywhere.
#include <cstdio>

#include "adapt/controller.hpp"
#include "apps/lulesh.hpp"
#include "binsim/execution_engine.hpp"
#include "cg/metacg_builder.hpp"
#include "dyncapi/dyncapi.hpp"
#include "scorepsim/cyg_adapter.hpp"
#include "scorepsim/symbol_resolver.hpp"

using namespace capi;

int main() {
    apps::LuleshParams params;
    params.iterations = 20;
    params.kernelWorkUnits = 500;
    binsim::AppModel model = apps::makeLulesh(params);
    cg::MetaCgBuilder builder;
    cg::CallGraph graph = builder.build(model.toSourceModel());

    binsim::CompileOptions copts;
    copts.xrayThreshold.instructionThreshold = 1;
    binsim::Process process(binsim::compile(model, copts));
    dyncapi::DynCapi dyn(process);

    adapt::Config config;
    config.budgetFraction = 0.05;
    config.maxEpochs = 5;
    config.perEventCostNs = 200.0;  // virtual ns per probe event
    config.gateCostNs = 20.0;       // virtual ns per suppressed event
    config.enableSampledTier = true;
    config.sampledEveryN = 64;
    adapt::Controller controller(graph, dyn, config);

    // Survey: instrument everything with a body.
    select::InstrumentationConfig survey = adapt::surveyOfDefinedFunctions(graph);
    dyncapi::InitStats init = controller.start(survey);
    std::printf("lulesh: %zu CG nodes, survey IC %zu fns, survey patch touched "
                "%llu pages\n\n",
                graph.size(), survey.size(),
                static_cast<unsigned long long>(init.pagesTouched));
    std::printf("%-6s %10s %9s %8s %7s %8s %7s %10s\n", "epoch", "overhead",
                "IC", "removed", "added", "sampled", "pages", "status");

    while (!controller.done()) {
        scorep::Measurement measurement;
        scorep::CygProfileAdapter adapter(
            measurement, scorep::SymbolResolver::withSymbolInjection(process));
        dyn.attachCygHandler(adapter);
        binsim::ExecutionEngine engine(process);
        binsim::RunStats stats = engine.run();
        dyn.detachHandler();

        adapt::EpochReport report = controller.epoch(
            measurement.mergedProfile(), measurement,
            adapt::virtualEpochRuntimeNs(stats, measurement,
                                         config.perEventCostNs,
                                         config.gateCostNs));
        std::printf("%-6zu %9.2f%% %9zu %8zu %7zu %8zu %7llu %10s\n",
                    report.epoch, report.measuredOverheadRatio * 100.0,
                    report.icSize, report.removedFunctions,
                    report.addedFunctions, report.sampledRegions,
                    static_cast<unsigned long long>(report.patch.pagesTouched),
                    report.withinBudget ? "in budget" : "over");
    }

    std::printf("\nconverged: %s after %zu epochs; final IC %zu of %zu "
                "survey functions (%zu full, %zu sampled), every adjustment "
                "a delta re-patch\n",
                controller.converged() ? "yes" : "no", controller.epochsRun(),
                controller.currentPolicy().size(), survey.size(),
                controller.currentPolicy().countOf(select::Tier::Full),
                controller.currentPolicy().countOf(select::Tier::Sampled));
    return controller.converged() ? 0 : 1;
}
