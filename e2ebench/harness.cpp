// Benchmark entry point: parses the command line, builds the inputs (timed as
// set-up), runs the three phases and prints one raw-result JSON line that
// run.py turns into the reported metrics.
#include "harness.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "adapt/controller.hpp"
#include "apps/openfoam.hpp"
#include "apps/specs.hpp"
#include "cg/metacg_builder.hpp"
#include "cg/metacg_json.hpp"
#include "dyncapi/process_symbol_oracle.hpp"
#include "obs/trace.hpp"
#include "select/selection_driver.hpp"

#ifndef E2EBENCH_COMPILER
#define E2EBENCH_COMPILER "unknown"
#endif
#ifndef E2EBENCH_BUILD_TYPE
#define E2EBENCH_BUILD_TYPE "unknown"
#endif

namespace e2e {

using namespace capi;

bool planFor(const std::string& workload, Plan& plan) {
    plan = Plan{};
    plan.workload = workload;
    if (workload == "refine-openfoam-50k" || workload == "refine-openfoam-410k") {
        // 410k is the paper's Table I size; its set-up alone takes tens of
        // seconds, so the repeated benchmark runs the same loop at 50k.
        if (workload == "refine-openfoam-410k") {
            plan.refineNodes = 410666;
            plan.setupRepetitions = 1;
            plan.inputs = 1;
            plan.coldPasses = 2;
            plan.initPasses = 2;
        }
        plan.refineShare = 0.45;
        plan.overheadShare = 0.4;
        plan.fleetShare = 0.15;
        return true;
    }
    if (workload == "fleet-openfoam") {
        plan.fleetClients = 24;
        plan.refineShare = 0.25;
        plan.overheadShare = 0.25;
        plan.fleetShare = 0.5;
        return true;
    }
    return false;
}

// --- Tracer -----------------------------------------------------------------

std::size_t Tracer::begin(const char* name, std::uint64_t step) {
    Span span;
    span.name = name;
    span.parent = open_.empty() ? -1 : static_cast<std::int64_t>(open_.back());
    span.step = step;
    spans_.push_back(std::move(span));
    open_.push_back(spans_.size() - 1);
    spans_.back().startNs = nowNs();
    return spans_.size() - 1;
}

void Tracer::end(std::size_t index) {
    spans_[index].endNs = nowNs();
    open_.pop_back();
}

void Tracer::writeChromeTrace(const std::string& path) const {
    support::Json events = support::Json::array();
    const std::uint64_t origin = spans_.empty() ? 0 : spans_.front().startNs;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& span = spans_[i];
        support::Json event = support::Json::object();
        event["name"] = span.name;
        event["cat"] = span.name.substr(0, span.name.find('.'));
        event["ph"] = "X";
        event["pid"] = 1;
        event["tid"] = 1;
        event["ts"] = static_cast<double>(span.startNs - origin) / 1e3;
        event["dur"] = static_cast<double>(span.endNs - span.startNs) / 1e3;
        support::Json args = support::Json::object();
        args["id"] = static_cast<std::uint64_t>(i);
        args["parent"] = span.parent;
        args["step"] = span.step;
        args["start_ns"] = span.startNs - origin;
        args["end_ns"] = span.endNs - origin;
        event["args"] = std::move(args);
        events.push_back(std::move(event));
    }
    support::Json doc = support::Json::object();
    doc["traceEvents"] = std::move(events);
    std::ofstream out(path);
    out << doc.dump();
    if (!out) throw std::runtime_error("cannot write trace file " + path);
}

// --- Checks -----------------------------------------------------------------

void Checks::expect(bool ok, const std::string& what) {
    ++attempted_;
    if (ok) return;
    ++failed_;
    if (firstFailures_.size() < 20) firstFailures_.push_back(what);
}

support::Json Checks::toJson() const {
    support::Json doc = support::Json::object();
    doc["attempted"] = attempted_;
    doc["failed"] = failed_;
    support::Json failures = support::Json::array();
    for (const std::string& failure : firstFailures_) failures.push_back(failure);
    doc["first_failures"] = std::move(failures);
    return doc;
}

// --- set-up -----------------------------------------------------------------

namespace {

/// OpenFoamParams::iterations of the executed model: many short runs give
/// steadier medians on a shared machine than a few long ones.
constexpr std::uint32_t kExecutedIterations = 6;

binsim::CompileOptions compileOptions(bool xray) {
    binsim::CompileOptions options;
    options.xrayInstrument = xray;
    options.xrayThreshold.instructionThreshold = 1;
    return options;
}

}  // namespace

SetupProducts buildSetup(const Context& ctx, const std::string& scratchDir) {
    SetupProducts out;
    cg::MetaCgBuilder builder;
    static const spec::ModuleResolver resolver = apps::bundledResolver();

    for (std::size_t i = 0; i < ctx.plan.inputs; ++i) {
        apps::OpenFoamParams params = apps::OpenFoamParams::executionScale();
        params.seed = inputSeed(ctx.seed, i);
        params.iterations = kExecutedIterations;
        binsim::AppModel model = apps::makeOpenFoam(params);
        ExecInput& exec = out.exec.emplace_back();
        exec.graph = builder.build(model.toSourceModel());
        exec.compiled = binsim::compile(model, compileOptions(true));
        exec.vanilla = binsim::compile(model, compileOptions(false));

        dyncapi::ProcessSymbolOracle oracle(exec.compiled);
        select::SelectionOptions options;
        options.specText = apps::mpiSpec();
        options.specName = "mpi";
        options.resolver = &resolver;
        options.symbolOracle = &oracle;
        exec.mpiIc = select::runSelection(exec.graph, options).ic;
        exec.surveyIc = adapt::surveyOfDefinedFunctions(exec.graph);
    }
    const cg::CallGraph& fleetGraph = out.exec.front().graph;
    for (cg::FunctionId id = 0; id < fleetGraph.size(); ++id) {
        out.fleetRegions.push_back(fleetGraph.name(id));
    }
    std::sort(out.fleetRegions.begin(), out.fleetRegions.end());

    for (std::size_t i = 0; i < ctx.plan.inputs; ++i) {
        apps::OpenFoamParams params = apps::OpenFoamParams::selectionScale();
        params.seed = inputSeed(ctx.seed, i);
        params.targetNodes = ctx.plan.refineNodes;
        binsim::AppModel model = apps::makeOpenFoam(params);
        RefineInput& refine = out.refine.emplace_back();
        refine.graph = builder.build(model.toSourceModel());
        refine.compiled = binsim::compile(model, compileOptions(true));
        refine.jsonPath = scratchDir + "/refine-graph-" + std::to_string(i) + ".json";
        cg::writeMetaCgFile(refine.graph, refine.jsonPath);
    }
    return out;
}

namespace {

/// Moves the calling thread round-robin over the CPUs it may run on, at most
/// once per kDwellSeconds, between units of work. Threads the program starts
/// (one per MPI rank) inherit the CPU. On a shared host each vCPU runs as
/// fast as the other tenants of its physical core let it: at one moment one
/// vCPU ran the vanilla program 40% faster than another. A thread the
/// scheduler leaves on one vCPU for a whole run reports that core's luck;
/// rotating, every run samples all of them alike.
class CpuRotation {
public:
    CpuRotation() {
        if (sched_getaffinity(0, sizeof allowed_, &allowed_) != 0) return;
        for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
            if (CPU_ISSET(cpu, &allowed_)) cpus_.push_back(cpu);
        }
    }
    ~CpuRotation() {
        if (!cpus_.empty()) sched_setaffinity(0, sizeof allowed_, &allowed_);
    }
    CpuRotation(const CpuRotation&) = delete;
    CpuRotation& operator=(const CpuRotation&) = delete;

    void tick() {
        if (cpus_.size() < 2 || secondsSince(since_) < kDwellSeconds) return;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus_[next_++ % cpus_.size()], &one);
        sched_setaffinity(0, sizeof one, &one);
        since_ = nowNs();
    }

private:
    static constexpr double kDwellSeconds = 0.25;
    cpu_set_t allowed_{};
    std::vector<int> cpus_;
    std::size_t next_ = 0;
    std::uint64_t since_ = 0;
};

/// Runs the phases interleaved, one iteration at a time, always picking the
/// phase furthest behind its share of the measured seconds; after the
/// deadline only phases short of their minimum iterations continue.
void runPhases(Context& ctx, const SetupProducts& products) {
    struct Slot {
        std::unique_ptr<Phase> phase;
        double share;
        double spent = 0.0;
        std::uint64_t done = 0;
    };
    Slot slots[] = {
        {makeRefinePhase(ctx, products), ctx.plan.refineShare},
        {makeOverheadPhase(ctx, products), ctx.plan.overheadShare},
        {makeFleetPhase(ctx, products), ctx.plan.fleetShare},
    };
    CpuRotation rotation;
    const std::uint64_t start = nowNs();
    for (;;) {
        rotation.tick();
        const bool overtime = secondsSince(start) >= ctx.seconds;
        Slot* next = nullptr;
        for (Slot& slot : slots) {
            if (overtime && slot.done >= slot.phase->minIterations()) continue;
            if (next == nullptr || slot.spent / slot.share < next->spent / next->share) {
                next = &slot;
            }
        }
        if (next == nullptr) break;
        const std::uint64_t iterationStart = nowNs();
        next->phase->iterate(next->done++);
        next->spent += secondsSince(iterationStart);
    }
    ctx.tracer.setEnabled(false);
    for (Slot& slot : slots) slot.phase->finish();
}

}  // namespace

}  // namespace e2e

namespace {

struct Args {
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool traced = false;
    std::string scratchDir;
    std::string traceOut;
};

[[noreturn]] void usage(const char* why) {
    std::fprintf(stderr,
                 "e2ebench: %s\nusage: e2ebench --workload NAME --seed N "
                 "--seconds S --trace 0|1 --scratch DIR [--trace-out FILE]\n",
                 why);
    std::exit(2);
}

Args parseArgs(int argc, char** argv) {
    Args args;
    bool haveSeed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
        const std::string value = argv[++i];
        try {
            if (flag == "--workload") args.workload = value;
            else if (flag == "--seed") {
                args.seed = std::stoull(value);
                haveSeed = true;
            } else if (flag == "--seconds") args.seconds = std::stod(value);
            else if (flag == "--trace") args.traced = value == "1";
            else if (flag == "--scratch") args.scratchDir = value;
            else if (flag == "--trace-out") args.traceOut = value;
            else usage(("unknown flag " + flag).c_str());
        } catch (const std::logic_error&) {
            usage(("bad value for " + flag).c_str());
        }
    }
    if (args.workload.empty() || !haveSeed || args.seconds <= 0.0 ||
        args.scratchDir.empty()) {
        usage("--workload, --seed, --seconds and --scratch are required");
    }
    return args;
}

}  // namespace

int main(int argc, char** argv) {
    using namespace e2e;
    const Args args = parseArgs(argc, argv);
    Context ctx;
    if (!planFor(args.workload, ctx.plan)) usage("unknown workload");
    ctx.seed = args.seed;
    ctx.seconds = args.seconds;
    ctx.traced = args.traced;
    const std::size_t nproc = std::max(1u, std::thread::hardware_concurrency());
    // The program's own recorder stays off: spans come from this harness.
    capi::obs::TraceRecorder::global().setEnabled(false);

    try {
        SetupProducts products;
        for (std::size_t rep = 0; rep < ctx.plan.setupRepetitions; ++rep) {
            products = SetupProducts{};
            const std::uint64_t start = nowNs();
            products = buildSetup(ctx, args.scratchDir);
            ctx.sample("setup_s", secondsSince(start));
        }
        runPhases(ctx, products);
        for (const RefineInput& input : products.refine) std::remove(input.jsonPath.c_str());
    } catch (const std::exception& e) {
        std::fprintf(stderr, "e2ebench: %s\n", e.what());
        return 1;
    }

    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    ctx.count("peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0);

    capi::support::Json env = capi::support::Json::object();
    env["workload"] = ctx.plan.workload;
    env["seed"] = ctx.seed;
    env["seconds"] = ctx.seconds;
    env["traced"] = ctx.traced;
    env["nproc"] = static_cast<std::uint64_t>(nproc);
    // Selection runs on the serial reference path (bit-identical to the
    // parallel engine): on a shared machine the pool's cross-thread
    // hand-offs made cold-selection times spread by a third between runs.
    env["selection_pool_width"] = 1;
    env["compiler"] = E2EBENCH_COMPILER;
    env["build_type"] = E2EBENCH_BUILD_TYPE;
    env["refine_nodes"] = static_cast<std::uint64_t>(ctx.plan.refineNodes);
    env["overhead_iterations"] = static_cast<std::uint64_t>(kExecutedIterations);
    env["fleet_clients"] = static_cast<std::uint64_t>(ctx.plan.fleetClients);
    env["inputs"] = static_cast<std::uint64_t>(ctx.plan.inputs);

    capi::support::Json doc = capi::support::Json::object();
    doc["env"] = std::move(env);
    doc["samples"] = ctx.samples;
    doc["counters"] = ctx.counters;
    doc["checks"] = ctx.checks.toJson();
    if (ctx.traced && !args.traceOut.empty()) {
        ctx.tracer.writeChromeTrace(args.traceOut);
        doc["trace_file"] = args.traceOut;
    }
    std::printf("%s\n", doc.dump().c_str());
    return 0;
}
