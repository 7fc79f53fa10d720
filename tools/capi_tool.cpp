// capi — the file-based selection front end (steps 5-6 of Fig. 2).
//
// Reads a MetaCG call-graph JSON and a selection spec, runs the selector
// pipeline and writes the IC, either in CaPI's JSON format or as a Score-P
// filter file. Symbol-table input (an `nm` dump: one symbol name per line)
// enables inlining compensation.
//
// Usage:
//   capi_tool --cg graph.metacg --spec selection.capi --output ic.json
//             [--filter-format] [--symbols nm.txt] [--module-path DIR]
//             [--no-inline-compensation] [--threads N] [--verbose]
//
// --threads N picks the pool the selection engine runs on: 1 (the default)
// evaluates serially, 0 borrows the process-wide pool at hardware width, and
// N > 1 runs on a pool of N workers the tool owns. Results are bit-identical
// at any width. `adapt`, `trace` and `metrics` take the same flag for their
// selection and planning.
//
// The `adapt` subcommand drives the adaptive overhead-budget controller on
// a bundled app model (measurement epochs -> budget planning -> delta
// repatching; see src/adapt/):
//   capi_tool adapt [--app lulesh|openfoam] [--budget 0.05] [--epochs 5]
//             [--per-event-cost-ns 200] [--keep NAME]... [--threads N]
//             [--output ic.json] [--stats]
//
// --stats additionally folds each epoch's visit counts into the call graph
// (journaled metric touches), re-runs a profiledVisits refinement spec
// through the session every epoch, and afterwards dumps the process-wide
// obs::MetricsRegistry snapshot — selector-cache hit/survival/purge totals
// with the per-shard breakdown, CSR patch-vs-rebuild counts, XRay patch
// transactions, controller health — every counter any subsystem registered,
// with no per-subsystem accessor plumbing in this tool.
//
// The `trace` and `metrics` subcommands run the same adaptive loop with the
// self-observability recorder enabled and export the result:
//   capi_tool trace   [adapt flags] [--output trace.json] [--flame flame.txt]
//   capi_tool metrics [adapt flags] [--output metrics.prom]
// `trace` writes Chrome trace-event JSON (load in Perfetto / chrome://
// tracing) plus, with --flame, the last epoch's profile as collapsed stacks
// for flamegraph.pl; `metrics` writes the registry snapshot in Prometheus
// text exposition format.
//
// The `fleet` subcommand demos the streaming aggregation path (src/fleet/):
// N headless clients ship per-epoch CCT deltas over the bounded channel to
// one Aggregator, which converges them on a single policy and reports wire
// and backpressure statistics:
//   capi_tool fleet [--app lulesh|openfoam] [--clients N] [--epochs E]
//             [--budget 0.05] [--per-event-cost-ns 200]
//             [--queue-capacity N] [--lossy] [--kill-after N] [--restore]
//             [--stats]
// --lossy switches clients to drop-and-coalesce sends (a full queue drops
// the frame; the next one covers both epochs), the mode the stats make
// visible: drops and coalesced epochs must balance exactly.
// --kill-after N checkpoints and destroys the aggregator after fleet epoch
// N; with --restore a replacement is rebuilt from the snapshot and every
// client resumes its session against it (the crash-restart smoke CI runs),
// without it the tool stops there. --stats prints the fault-tolerance and
// divergence-diagnosis accounting after the run.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "adapt/controller.hpp"
#include "dyncapi/mpi_port.hpp"
#include "mpisim/mpi_world.hpp"
#include "apps/lulesh.hpp"
#include "apps/openfoam.hpp"
#include "apps/specs.hpp"
#include "binsim/execution_engine.hpp"
#include "cg/metacg_builder.hpp"
#include "cg/metacg_json.hpp"
#include "fleet/aggregator.hpp"
#include "fleet/client.hpp"
#include "obs/export.hpp"
#include "scorepsim/measurement.hpp"
#include "scorepsim/cyg_adapter.hpp"
#include "scorepsim/symbol_resolver.hpp"
#include "select/selection_driver.hpp"
#include "support/error.hpp"
#include "support/executor.hpp"
#include "support/thread_pool.hpp"

namespace {

struct Args {
    std::string cgPath;
    std::string specPath;
    std::string outputPath;
    std::string symbolsPath;
    std::vector<std::string> modulePaths;
    bool filterFormat = false;
    bool inlineCompensation = true;
    bool verbose = false;
    std::size_t threads = 1;
};

/// Upper bound for --threads: every worker is an OS thread, and a pool far
/// wider than the host only adds contention.
constexpr std::size_t kMaxThreads = 1024;

void usage() {
    std::fprintf(stderr,
                 "usage: capi_tool --cg <metacg.json> --spec <spec.capi> "
                 "--output <ic>\n"
                 "       [--filter-format] [--symbols <nm.txt>] "
                 "[--module-path <dir>]...\n"
                 "       [--no-inline-compensation] [--threads <n>] "
                 "[--verbose]\n"
                 "   or: capi_tool adapt [--app lulesh|openfoam] "
                 "[--budget <fraction>]\n"
                 "       [--epochs <n>] [--per-event-cost-ns <ns>] "
                 "[--keep <name>]...\n"
                 "       [--sampled-n <N>] [--gate-cost-ns <ns>] "
                 "[--ranks <n>]\n"
                 "       [--threads <n>] [--output <ic>] [--stats]\n"
                 "   or: capi_tool trace [adapt flags] "
                 "[--output <trace.json>] [--flame <out.txt>]\n"
                 "   or: capi_tool metrics [adapt flags] "
                 "[--output <metrics.prom>]\n"
                 "   or: capi_tool fleet [--app lulesh|openfoam] "
                 "[--clients <n>] [--epochs <n>]\n"
                 "       [--budget <fraction>] [--per-event-cost-ns <ns>]\n"
                 "       [--queue-capacity <n>] [--lossy] "
                 "[--kill-after <n>] [--restore] [--stats]\n");
}

std::string readFile(const std::string& path) {
    std::ifstream in(path);
    if (!in) {
        throw capi::support::Error("cannot open " + path);
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

/// Parses a count flag's value: a plain decimal number in [min, max].
/// std::stoul alone accepts "-1" (wraps) and "4abc", and a later narrowing
/// cast would wrap an oversized value silently.
std::size_t parseCount(const std::string& value, std::size_t min = 0,
                       std::size_t max = std::numeric_limits<std::size_t>::max()) {
    if (value.empty() || value.find_first_not_of("0123456789") != std::string::npos) {
        throw capi::support::Error("expected a non-negative number, got '" +
                                   value + "'");
    }
    std::size_t count = 0;
    for (char c : value) {
        const auto digit = static_cast<std::size_t>(c - '0');
        if (count > (max - digit) / 10) {
            throw capi::support::Error("'" + value + "' exceeds the maximum " +
                                       std::to_string(max));
        }
        count = count * 10 + digit;
    }
    if (count < min) {
        throw capi::support::Error("'" + value + "' is below the minimum " +
                                   std::to_string(min));
    }
    return count;
}

/// The pool --threads N selects: null for 1 (serial), the process-wide
/// Executor pool for 0 (hardware width), else a pool of N workers held in
/// `owned`.
capi::support::ThreadPool* poolForThreads(
    std::size_t threads, std::unique_ptr<capi::support::ThreadPool>& owned) {
    if (threads == 1) {
        return nullptr;
    }
    if (threads == 0) {
        return &capi::support::Executor::pool();
    }
    owned = std::make_unique<capi::support::ThreadPool>(threads);
    return owned.get();
}

/// The --stats per-epoch refinement spec. One literal on purpose: the warm-up
/// and per-epoch selects must hash identically or every re-selection would be
/// a cold run and the printed survival counters meaningless.
constexpr const char* kVisitsRefineSpec =
    "hot = profiledVisits(\">=\", 1, defined(%%))\ncoarse(%hot)\n";

/// One-line rendering of a divergence diagnosis: which regions moved and in
/// which direction (+added -removed ^promoted v demoted ~regated), capped so
/// a pathological diff cannot flood the output.
std::string policyDeltaSummary(const capi::select::PolicyDelta& delta) {
    std::ostringstream out;
    std::size_t total = 0;
    std::size_t shown = 0;
    auto emit = [&](const char* tag, const std::vector<std::string>& names) {
        total += names.size();
        for (const std::string& name : names) {
            if (shown >= 8) {
                continue;
            }
            if (shown > 0) {
                out << ' ';
            }
            out << tag << name;
            ++shown;
        }
    };
    emit("+", delta.added);
    emit("-", delta.removed);
    emit("^", delta.promoted);
    emit("v", delta.demoted);
    emit("~", delta.regated);
    if (total > shown) {
        out << " (+" << (total - shown) << " more)";
    }
    return out.str();
}

void writeTextFile(const std::string& path, const std::string& text) {
    std::ofstream out(path, std::ios::binary);
    if (!out) {
        throw capi::support::Error("cannot write " + path);
    }
    out << text;
}

/// `adapt` plus its two exporting variants: `trace` enables the global
/// recorder around the run and writes the drained timeline; `metrics`
/// writes the registry snapshot after the run.
enum class AdaptMode { Adapt, Trace, Metrics };

int runAdapt(int argc, char** argv, AdaptMode mode) {
    using namespace capi;
    const char* modeName = mode == AdaptMode::Adapt ? "adapt"
                           : mode == AdaptMode::Trace ? "trace"
                                                      : "metrics";
    std::string app = "lulesh";
    std::string outputPath;
    std::string flamePath;
    bool printStats = false;
    std::size_t ranks = 1;
    std::size_t threads = 1;
    adapt::Config config;
    config.budgetFraction = 0.05;
    config.maxEpochs = 5;
    config.perEventCostNs = 200.0;

    for (int i = 2; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc) {
                usage();
                std::exit(2);
            }
            return argv[++i];
        };
        try {
            if (arg == "--app") app = next();
            else if (arg == "--budget") config.budgetFraction = std::stod(next());
            else if (arg == "--epochs") config.maxEpochs = parseCount(next(), 1);
            else if (arg == "--per-event-cost-ns")
                config.perEventCostNs = std::stod(next());
            else if (arg == "--gate-cost-ns")
                config.gateCostNs = std::stod(next());
            else if (arg == "--sampled-n") {
                // N = 1 records every visit and N = 0 none: only N >= 2
                // samples.
                config.enableSampledTier = true;
                config.sampledEveryN = static_cast<std::uint32_t>(parseCount(
                    next(), 2, std::numeric_limits<std::uint32_t>::max()));
            }
            else if (arg == "--ranks") ranks = parseCount(next(), 1);
            else if (arg == "--keep") config.keep.push_back(next());
            else if (arg == "--threads")
                threads = parseCount(next(), 0, kMaxThreads);
            else if (arg == "--output") outputPath = next();
            else if (arg == "--flame" && mode == AdaptMode::Trace)
                flamePath = next();
            else if (arg == "--stats") printStats = true;
            else {
                usage();
                return 2;
            }
        } catch (const std::exception& e) {
            std::fprintf(stderr, "capi_tool %s: bad value for %s: %s\n",
                         modeName, arg.c_str(), e.what());
            return 2;
        }
    }

    obs::TraceRecorder& recorder = obs::TraceRecorder::global();
    if (mode == AdaptMode::Trace) {
        if (outputPath.empty()) {
            outputPath = "trace.json";
        }
        // Charge the recorder's own per-event cost into the overhead model:
        // the observer observes itself on the same budget as the probes.
        config.obsCostNs = obs::calibrateObsCostNs();
        recorder.setEnabled(true);
    } else if (mode == AdaptMode::Metrics) {
        if (outputPath.empty()) {
            outputPath = "metrics.prom";
        }
    }

    binsim::AppModel model;
    if (app == "lulesh") {
        apps::LuleshParams params;
        params.iterations = 20;
        params.kernelWorkUnits = 500;
        model = apps::makeLulesh(params);
    } else if (app == "openfoam") {
        apps::OpenFoamParams params = apps::OpenFoamParams::executionScale();
        params.iterations = 5;
        model = apps::makeOpenFoam(params);
    } else {
        std::fprintf(stderr, "capi_tool %s: unknown --app '%s'\n", modeName,
                     app.c_str());
        return 2;
    }

    cg::MetaCgBuilder builder;
    cg::CallGraph graph = builder.build(model.toSourceModel());
    binsim::CompileOptions copts;
    copts.xrayThreshold.instructionThreshold = 1;
    binsim::Process process(binsim::compile(model, copts));
    dyncapi::DynCapi dyn(process);
    std::unique_ptr<support::ThreadPool> ownedPool;
    config.pool = poolForThreads(threads, ownedPool);
    if (printStats) {
        // Fold per-epoch visit counts into the graph as journaled metric
        // touches so the per-epoch refinement re-selection below exercises
        // the incremental machinery the counters describe.
        config.foldVisitMetricsInto = &graph;
    }
    adapt::Controller controller(graph, dyn, config);

    select::InstrumentationConfig survey = adapt::surveyOfDefinedFunctions(graph);
    survey.application = app;
    dyncapi::InitStats init = controller.start(survey);
    std::printf("%s: %zu CG nodes, survey IC %zu, budget %.1f%%%s, survey patch "
                "touched %llu pages\n",
                app.c_str(), graph.size(), survey.size(),
                config.budgetFraction * 100.0,
                config.enableSampledTier ? " (sampled tier on)" : "",
                static_cast<unsigned long long>(init.pagesTouched));
    if (printStats) {
        // Warm the session cache before the first epoch so the per-epoch
        // re-selections below show the survive-vs-purge split.
        controller.session().select(kVisitsRefineSpec, "visits-refine");
    }

    std::string flameText;
    while (!controller.done()) {
        scorep::Measurement measurement;
        scorep::CygProfileAdapter adapter(
            measurement, scorep::SymbolResolver::withSymbolInjection(process));
        dyn.attachCygHandler(adapter);
        binsim::RunStats stats;
        if (ranks == 1) {
            stats = binsim::ExecutionEngine(process).run();
        } else {
            // MPI shape: every rank measures into the one Measurement; the
            // world's compute time is the ranks' virtualNs summed in rank
            // order, so the world's probe cost is charged once against it.
            mpi::MpiWorld world(static_cast<int>(ranks));
            dyncapi::WorldMpiPort port(world);
            std::vector<double> rankNs(ranks, 0.0);
            mpi::runRanks(world, [&](int rank) {
                binsim::ExecutionEngine engine(process);
                engine.setMpiPort(&port);
                rankNs[static_cast<std::size_t>(rank)] =
                    engine.run(rank, static_cast<int>(ranks)).virtualNs;
            });
            for (double ns : rankNs) {
                stats.virtualNs += ns;
            }
        }
        dyn.detachHandler();
        const adapt::EpochReport report = controller.epoch(
            measurement.mergedProfile(), measurement,
            adapt::virtualEpochRuntimeNs(stats, measurement,
                                         config.perEventCostNs,
                                         config.gateCostNs));
        if (mode == AdaptMode::Trace && !flamePath.empty()) {
            // Re-rendered every epoch so the export reflects the LAST one
            // (the converged instrumentation set), while the Measurement is
            // still alive to resolve region names.
            flameText = obs::toCollapsedStacks(
                measurement.mergedProfile(), [&](std::uint32_t region) {
                    return measurement.region(region).name;
                });
        }
        std::printf("epoch %zu: overhead %.2f%%, IC %zu (-%zu/+%zu), delta "
                    "touched %llu pages%s\n",
                    report.epoch, report.measuredOverheadRatio * 100.0,
                    report.icSize, report.removedFunctions,
                    report.addedFunctions,
                    static_cast<unsigned long long>(report.patch.pagesTouched),
                    report.withinBudget ? " [in budget]" : "");
        if (printStats) {
            // Per-tier distribution of the freshly planned policy and the
            // tier-only transitions the delta carried.
            std::printf("  tiers: %zu full, %zu sampled (%zu promoted, %zu "
                        "demoted); policy %016llx\n",
                        report.fullRegions, report.sampledRegions,
                        report.promotedFunctions, report.demotedFunctions,
                        static_cast<unsigned long long>(report.policyFingerprint));
            // The self-healing loop's epoch verdict: state machine position,
            // what it took to get the patch in, and any kill-switch motion.
            const adapt::HealthStats& health = controller.healthStats();
            std::printf("  health: %s (%zu retries this epoch%s%s%s); "
                        "lifetime %llu patch failures, %llu retries, "
                        "%llu reversions, %llu kill-switch trips\n",
                        adapt::healthName(report.health),
                        report.retriesThisEpoch,
                        report.revertedToLastGood ? ", reverted to last-good"
                                                  : "",
                        report.killSwitchTripped ? ", KILL-SWITCH TRIPPED" : "",
                        report.killSwitchRearmed ? ", kill-switch re-armed" : "",
                        static_cast<unsigned long long>(health.patchFailures),
                        static_cast<unsigned long long>(health.patchRetries),
                        static_cast<unsigned long long>(health.reversions),
                        static_cast<unsigned long long>(health.killSwitchTrips));
        }
        if (printStats) {
            // An incremental re-selection against the just-journaled metric
            // delta: the profiledVisits stage re-runs, everything else —
            // including coarse's graph walk once the visit counts settle —
            // answers from the surviving cache over a patched snapshot.
            select::SelectionReport refine = controller.session().select(
                kVisitsRefineSpec, "visits-refine");
            std::printf("  re-selection: %zu selected, %zu/%zu stages from "
                        "cache\n",
                        refine.selectedFinal, refine.pipelineRun.cacheHits,
                        refine.pipelineRun.sizes.size());
        }
    }
    std::printf("%s after %zu epochs: IC %zu of %zu functions (%zu full, "
                "%zu sampled)\n",
                controller.converged() ? "converged" : "epoch cap reached",
                controller.epochsRun(), controller.currentPolicy().size(),
                survey.size(),
                controller.currentPolicy().countOf(select::Tier::Full),
                controller.currentPolicy().countOf(select::Tier::Sampled));
    if (printStats) {
        // One snapshot covers every subsystem that registered: selector
        // cache (totals + per-shard), CSR registry, XRay transactions,
        // measurement probe counters, controller health. Zero-valued
        // samples stay out so quiet shards/sites do not flood the report.
        std::vector<obs::Sample> samples = obs::MetricsRegistry::global().snapshot();
        std::size_t printed = 0;
        for (const obs::Sample& s : samples) {
            if (s.value == 0.0 && s.count == 0) {
                continue;
            }
            if (s.kind == obs::MetricKind::Histogram) {
                std::printf("  %s: count %llu sum %.0f\n", s.name.c_str(),
                            static_cast<unsigned long long>(s.count), s.value);
            } else {
                std::printf("  %s: %.6g\n", s.name.c_str(), s.value);
            }
            ++printed;
        }
        std::printf("metrics registry: %zu samples (%zu nonzero shown)\n",
                    samples.size(), printed);
    }
    if (mode == AdaptMode::Trace) {
        recorder.setEnabled(false);
        std::vector<obs::TraceEvent> events = recorder.drain();
        writeTextFile(outputPath,
                      obs::toChromeTraceJson(events, [&](std::uint32_t id) {
                          return recorder.nameOf(id);
                      }));
        std::printf("trace: %zu events (%llu recorded, %llu dropped, "
                    "self-cost %.1f ns/event) -> %s\n",
                    events.size(),
                    static_cast<unsigned long long>(recorder.recordedEvents()),
                    static_cast<unsigned long long>(recorder.droppedEvents()),
                    config.obsCostNs, outputPath.c_str());
        if (!flamePath.empty()) {
            writeTextFile(flamePath, flameText);
            std::printf("flame: last epoch collapsed stacks -> %s\n",
                        flamePath.c_str());
        }
    } else if (mode == AdaptMode::Metrics) {
        std::vector<obs::Sample> samples = obs::MetricsRegistry::global().snapshot();
        writeTextFile(outputPath, obs::toPrometheusText(samples));
        std::printf("metrics: %zu samples -> %s\n", samples.size(),
                    outputPath.c_str());
    } else if (!outputPath.empty()) {
        controller.currentIc().writeFile(outputPath);
        std::printf("wrote %s\n", outputPath.c_str());
    }
    return controller.converged() ? 0 : 1;
}

/// The `fleet` subcommand: a synthetic fleet of headless clients streaming
/// epoch deltas into one Aggregator. Profiles are deterministic functions of
/// (client, epoch, region), so two runs with the same flags converge on the
/// same policy fingerprint — what matters here is the wire/backpressure
/// telemetry the stats lines surface.
int runFleet(int argc, char** argv) {
    using namespace capi;
    std::string app = "lulesh";
    std::size_t clientCount = 64;
    std::size_t epochs = 5;
    std::size_t queueCapacity = 0;  // 0: derived below.
    bool lossy = false;
    std::size_t killAfter = 0;  // 0: never crash.
    bool restoreAfterKill = false;
    bool printStats = false;
    adapt::Config config;
    config.budgetFraction = 0.05;
    config.perEventCostNs = 200.0;

    for (int i = 2; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc) {
                usage();
                std::exit(2);
            }
            return argv[++i];
        };
        try {
            if (arg == "--app") app = next();
            else if (arg == "--clients") clientCount = parseCount(next(), 1);
            else if (arg == "--epochs") epochs = parseCount(next(), 1);
            else if (arg == "--budget") config.budgetFraction = std::stod(next());
            else if (arg == "--per-event-cost-ns")
                config.perEventCostNs = std::stod(next());
            else if (arg == "--queue-capacity")
                queueCapacity = parseCount(next());
            else if (arg == "--lossy") lossy = true;
            else if (arg == "--kill-after") killAfter = parseCount(next(), 1);
            else if (arg == "--restore") restoreAfterKill = true;
            else if (arg == "--stats") printStats = true;
            else {
                usage();
                return 2;
            }
        } catch (const std::exception& e) {
            std::fprintf(stderr, "capi_tool fleet: bad value for %s: %s\n",
                         arg.c_str(), e.what());
            return 2;
        }
    }
    config.maxEpochs = epochs;

    binsim::AppModel model;
    if (app == "lulesh") {
        model = apps::makeLulesh(apps::LuleshParams{});
    } else if (app == "openfoam") {
        model = apps::makeOpenFoam(apps::OpenFoamParams::executionScale());
    } else {
        std::fprintf(stderr, "capi_tool fleet: unknown --app '%s'\n",
                     app.c_str());
        return 2;
    }
    cg::MetaCgBuilder builder;
    cg::CallGraph graph = builder.build(model.toSourceModel());

    fleet::AggregatorOptions options;
    options.config = config;
    // Lossless mode needs headroom for one frame per client (the tool pumps
    // single-threaded); lossy mode keeps the queue tight on purpose so
    // backpressure actually engages.
    options.dataQueueCapacity =
        queueCapacity != 0 ? queueCapacity
                           : (lossy ? std::max<std::size_t>(8, clientCount / 8)
                                    : clientCount + 8);
    // unique_ptr so the crash-restart path below can destroy the running
    // aggregator and swap in one restored from its checkpoint.
    auto aggregator = std::make_unique<fleet::Aggregator>(
        graph, adapt::surveyOfDefinedFunctions(graph), options);

    std::vector<std::string> regions;
    for (cg::FunctionId id = 0; id < graph.size(); ++id) {
        regions.push_back(graph.name(id));
    }
    std::sort(regions.begin(), regions.end());

    fleet::FleetClientOptions clientOptions;
    clientOptions.blockingSend = !lossy;
    std::vector<std::unique_ptr<scorep::Measurement>> measurements;
    std::vector<std::unique_ptr<fleet::FleetClient>> clients;
    for (std::size_t i = 0; i < clientCount; ++i) {
        measurements.push_back(std::make_unique<scorep::Measurement>());
        clients.push_back(
            std::make_unique<fleet::FleetClient>(*aggregator, clientOptions));
    }
    std::printf("fleet: %s, %zu clients, %zu regions, queue capacity %zu "
                "(%s sends), budget %.1f%%\n",
                app.c_str(), clientCount, regions.size(),
                options.dataQueueCapacity,
                lossy ? "drop-and-coalesce" : "blocking",
                config.budgetFraction * 100.0);

    for (std::size_t epoch = 1; epoch <= epochs; ++epoch) {
        std::vector<std::size_t> retry;
        for (std::size_t i = 0; i < clientCount; ++i) {
            scorep::Measurement& measurement = *measurements[i];
            scorep::ProfileTree profile;
            for (std::size_t r = 0; r < regions.size(); ++r) {
                const std::size_t node = profile.childOf(
                    profile.root(), measurement.defineRegion(regions[r]));
                const std::uint64_t mix = i * 31 + epoch * 7 + r * 13;
                profile.node(node).visits += 1 + mix % 97;
                profile.node(node).inclusiveNs += 10'000 + (mix * 991) % 100'000;
            }
            if (clients[i]->sendEpoch(profile, measurement,
                                      1e9 + 1e6 * static_cast<double>(i)) ==
                fleet::SendResult::Backpressure) {
                retry.push_back(i);
            }
            if (!lossy) {
                // Single-threaded: drain as we go so a blocking send never
                // waits on a pump that cannot happen. Lossy mode skips this
                // on purpose — the queue must fill for drops to engage.
                aggregator->pump();
            }
        }
        // Drain until the epoch closes; dropped senders retry with an empty
        // profile — their unadvanced watermark re-ships the missed epoch.
        while (aggregator->epochsCompleted() < epoch) {
            const bool progressed = aggregator->pump();
            std::vector<std::size_t> still;
            for (std::size_t i : retry) {
                if (clients[i]->sendEpoch(scorep::ProfileTree{},
                                          *measurements[i], 0.0) ==
                    fleet::SendResult::Backpressure) {
                    still.push_back(i);
                }
            }
            if (!progressed && still.size() == retry.size() && !still.empty()) {
                std::fprintf(stderr, "fleet: stuck at epoch %zu\n", epoch);
                return 1;
            }
            retry.swap(still);
        }
        adapt::EpochReport report;
        for (auto& client : clients) {
            report = client->awaitPolicy();
        }
        std::printf("epoch %zu: policy %016llx, overhead %.2f%%, budget %.0f "
                    "ns%s\n",
                    epoch,
                    static_cast<unsigned long long>(report.policyFingerprint),
                    report.measuredOverheadRatio * 100.0, report.budgetNs,
                    report.withinBudget ? " [in budget]" : "");

        if (killAfter != 0 && epoch == killAfter) {
            // Crash-restart smoke: seal the aggregator's full state into a
            // snapshot frame, destroy the process-equivalent (the running
            // Aggregator with all in-memory state), rebuild from the bytes
            // under the next incarnation, and have every client resume its
            // session against the replacement.
            std::vector<std::uint8_t> snapshot = aggregator->checkpoint();
            std::printf("checkpoint: %zu bytes at fleet epoch %zu\n",
                        snapshot.size(), epoch);
            if (!restoreAfterKill) {
                std::printf("killed aggregator (no --restore); stopping\n");
                return 0;
            }
            auto restored = std::make_unique<fleet::Aggregator>(
                graph, adapt::surveyOfDefinedFunctions(graph), snapshot,
                options);
            std::size_t resumed = 0;
            for (auto& client : clients) {
                if (client->reconnect(*restored)) {
                    ++resumed;
                }
            }
            aggregator = std::move(restored);
            std::printf("restore: incarnation %llu, %zu/%zu sessions "
                        "resumed\n",
                        static_cast<unsigned long long>(
                            aggregator->incarnation()),
                        resumed, clientCount);
        }
    }

    bool converged = true;
    std::uint64_t drops = 0;
    std::uint64_t coalesced = 0;
    std::uint64_t bytesSent = 0;
    std::uint64_t reconnects = 0;
    std::uint64_t sessionResumes = 0;
    std::uint64_t fullResyncs = 0;
    std::uint64_t restartsDetected = 0;
    std::uint64_t stallsInjected = 0;
    std::uint64_t dropsInjected = 0;
    for (const auto& client : clients) {
        converged &= client->policyFingerprint() ==
                     aggregator->convergedFingerprint();
        drops += client->stats().droppedDeltas;
        coalesced += client->stats().coalescedEpochs;
        bytesSent += client->stats().bytesSent;
        reconnects += client->stats().reconnects;
        sessionResumes += client->stats().sessionResumes;
        fullResyncs += client->stats().fullResyncs;
        restartsDetected += client->stats().restartsDetected;
        stallsInjected += client->stats().stallsInjected;
        dropsInjected += client->stats().dropsInjected;
    }
    const fleet::AggregatorStats stats = aggregator->stats();
    const fleet::ChannelStats channel = aggregator->dataChannel().stats();
    std::printf("%s: %zu clients on policy %016llx after %llu fleet epochs\n",
                converged ? "converged" : "DIVERGED", clientCount,
                static_cast<unsigned long long>(
                    aggregator->convergedFingerprint()),
                static_cast<unsigned long long>(aggregator->epochsCompleted()));
    std::printf("wire: %llu frames merged, %.1f bytes/frame in, %llu bytes "
                "out across %llu policy frames, %llu decode errors\n",
                static_cast<unsigned long long>(stats.framesMerged),
                stats.framesMerged == 0
                    ? 0.0
                    : static_cast<double>(stats.bytesIn) /
                          static_cast<double>(stats.framesMerged),
                static_cast<unsigned long long>(stats.bytesOut),
                static_cast<unsigned long long>(stats.policyFramesSent),
                static_cast<unsigned long long>(stats.decodeErrors));
    std::printf("backpressure: queue depth max %zu/%zu, %llu stalls, %llu "
                "drops = %llu coalesced epochs (client bytes sent %llu)\n",
                channel.maxDepth, channel.capacity,
                static_cast<unsigned long long>(channel.stalls),
                static_cast<unsigned long long>(drops),
                static_cast<unsigned long long>(coalesced),
                static_cast<unsigned long long>(bytesSent));
    if (printStats) {
        std::printf("fault tolerance: incarnation %llu, %llu checkpoints "
                    "(%llu bytes), %llu restores, %llu session resumes "
                    "served\n",
                    static_cast<unsigned long long>(aggregator->incarnation()),
                    static_cast<unsigned long long>(stats.checkpoints),
                    static_cast<unsigned long long>(stats.checkpointBytes),
                    static_cast<unsigned long long>(stats.restores),
                    static_cast<unsigned long long>(stats.sessionResumes));
        std::printf("liveness: %llu timeout epochs, %llu missed frames, "
                    "%llu evictions, %llu delta resumes, %llu lagging policy "
                    "drops, %llu abandoned\n",
                    static_cast<unsigned long long>(stats.timeoutEpochs),
                    static_cast<unsigned long long>(stats.missedFrames),
                    static_cast<unsigned long long>(stats.evictions),
                    static_cast<unsigned long long>(stats.resumes),
                    static_cast<unsigned long long>(stats.laggingPolicyDrops),
                    static_cast<unsigned long long>(stats.abandonedClients));
        std::printf("clients: %llu reconnects (%llu resumed, %llu full "
                    "resyncs), %llu restarts detected, %llu stalls + %llu "
                    "drops injected\n",
                    static_cast<unsigned long long>(reconnects),
                    static_cast<unsigned long long>(sessionResumes),
                    static_cast<unsigned long long>(fullResyncs),
                    static_cast<unsigned long long>(restartsDetected),
                    static_cast<unsigned long long>(stallsInjected),
                    static_cast<unsigned long long>(dropsInjected));
        const select::PolicyDelta& divergence = aggregator->lastDivergence();
        std::printf("divergence: %s\n",
                    divergence.empty()
                        ? "none"
                        : policyDeltaSummary(divergence).c_str());
    }
    // The exact drop==rejected==coalesced identity only holds on a clean
    // run: a restore swaps in a fresh data channel (its rejected counter
    // restarts) and injected stalls/drops coalesce without a rejection.
    const bool cleanRun =
        killAfter == 0 && stallsInjected == 0 && dropsInjected == 0;
    if (cleanRun && (drops != channel.rejected || drops != coalesced)) {
        std::fprintf(stderr,
                     "fleet: drop accounting broken (%llu drops, %llu "
                     "rejected, %llu coalesced)\n",
                     static_cast<unsigned long long>(drops),
                     static_cast<unsigned long long>(channel.rejected),
                     static_cast<unsigned long long>(coalesced));
        return 1;
    }
    return converged ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
    if (argc > 1 && (std::strcmp(argv[1], "adapt") == 0 ||
                     std::strcmp(argv[1], "trace") == 0 ||
                     std::strcmp(argv[1], "metrics") == 0)) {
        AdaptMode mode = std::strcmp(argv[1], "adapt") == 0 ? AdaptMode::Adapt
                         : std::strcmp(argv[1], "trace") == 0
                             ? AdaptMode::Trace
                             : AdaptMode::Metrics;
        try {
            return runAdapt(argc, argv, mode);
        } catch (const std::exception& e) {
            std::fprintf(stderr, "capi_tool %s: %s\n", argv[1], e.what());
            return 1;
        }
    }
    if (argc > 1 && std::strcmp(argv[1], "fleet") == 0) {
        try {
            return runFleet(argc, argv);
        } catch (const std::exception& e) {
            std::fprintf(stderr, "capi_tool fleet: %s\n", e.what());
            return 1;
        }
    }
    Args args;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc) {
                usage();
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--cg") args.cgPath = next();
        else if (arg == "--spec") args.specPath = next();
        else if (arg == "--output") args.outputPath = next();
        else if (arg == "--symbols") args.symbolsPath = next();
        else if (arg == "--module-path") args.modulePaths.push_back(next());
        else if (arg == "--filter-format") args.filterFormat = true;
        else if (arg == "--no-inline-compensation") args.inlineCompensation = false;
        else if (arg == "--threads") {
            try {
                args.threads = parseCount(next(), 0, kMaxThreads);
            } catch (const std::exception& e) {
                std::fprintf(stderr, "capi_tool: bad value for --threads: %s\n",
                             e.what());
                return 2;
            }
        }
        else if (arg == "--verbose") args.verbose = true;
        else {
            usage();
            return 2;
        }
    }
    if (args.cgPath.empty() || args.specPath.empty() || args.outputPath.empty()) {
        usage();
        return 2;
    }

    try {
        capi::cg::CallGraph graph = capi::cg::readMetaCgFile(args.cgPath);

        capi::spec::ModuleResolver resolver = capi::apps::bundledResolver();
        for (const std::string& dir : args.modulePaths) {
            resolver.addSearchPath(dir);
        }

        capi::select::SetSymbolOracle oracle;
        bool haveSymbols = !args.symbolsPath.empty();
        if (haveSymbols) {
            std::istringstream in(readFile(args.symbolsPath));
            std::string line;
            while (std::getline(in, line)) {
                if (!line.empty()) {
                    oracle.add(line);
                }
            }
        }

        capi::select::SelectionOptions options;
        options.specText = readFile(args.specPath);
        options.specName = args.specPath;
        options.resolver = &resolver;
        options.symbolOracle = haveSymbols ? &oracle : nullptr;
        options.applyInlineCompensation = args.inlineCompensation && haveSymbols;
        std::unique_ptr<capi::support::ThreadPool> ownedPool;
        options.pool = poolForThreads(args.threads, ownedPool);

        capi::select::SelectionReport report =
            capi::select::runSelection(graph, options);
        report.ic.writeFile(args.outputPath, args.filterFormat);

        std::printf("capi: %zu CG nodes, selected %zu pre / %zu final (+%zu), "
                    "%.3fs -> %s\n",
                    report.graphNodes, report.selectedPre, report.selectedFinal,
                    report.added, report.selectionSeconds,
                    args.outputPath.c_str());
        if (args.verbose) {
            for (const auto& [name, ns] : report.pipelineRun.timingsNs) {
                std::printf("  stage %-24s %10.3f ms\n", name.c_str(),
                            static_cast<double>(ns) / 1e6);
            }
        }
        return 0;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "capi_tool: %s\n", e.what());
        return 1;
    }
}
