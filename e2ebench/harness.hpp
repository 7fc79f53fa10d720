// Shared pieces of the end-to-end benchmark: the workload plan, the span
// recorder the traced run uses, correctness accounting and the raw-result
// document the phases fill in.
//
// The benchmark drives the program only through the public functions of each
// layer (src/<layer>/) and times those calls from outside. Spans are recorded
// here, around the calls, never inside the program: the program's global
// obs::TraceRecorder stays off in every run.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "binsim/compiler.hpp"
#include "cg/call_graph.hpp"
#include "select/ic.hpp"
#include "support/json.hpp"

namespace e2e {

inline std::uint64_t nowNs() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

inline double secondsSince(std::uint64_t startNs) {
    return static_cast<double>(nowNs() - startNs) / 1e9;
}

/// What one workload runs. Every workload runs all three phases of the
/// paper's workflow on the same inputs, so every end-to-end metric exists on
/// every workload; the workload decides how the measured time is split among
/// the phases and how many fleet clients there are.
struct Plan {
    std::string workload;
    /// Refine phase graph size. Large enough that a refinement step takes
    /// milliseconds: on a shared machine, sub-millisecond steps put the
    /// latency tail at the mercy of scheduler hiccups.
    std::uint32_t refineNodes = 50000;
    std::size_t fleetClients = 8;
    /// Share of --seconds each phase measures for.
    double refineShare = 0.0;
    double overheadShare = 0.0;
    double fleetShare = 0.0;
    /// Full set-ups timed per run; setup_s is their median.
    std::size_t setupRepetitions = 3;
    /// Graphs and models generated per run, each from its own seed derived
    /// from --seed (inputSeed()). Refine sessions and overhead rounds rotate
    /// over them, so a run's medians average over several generated shapes
    /// instead of riding on one graph's: selection cost alone differs by a
    /// fifth between single OpenFOAM graphs of the same size.
    std::size_t inputs = 3;
    /// Cold passes over the four paper specs and DynCapi inits each refine
    /// session times (select_cold_s and init_s are their medians).
    std::size_t coldPasses = 10;
    std::size_t initPasses = 6;
};

/// Seed of generated input `index` of a run with seed `seed`; distinct for
/// every (seed, index) pair with index < kMaxInputs.
constexpr std::size_t kMaxInputs = 8;
inline std::uint64_t inputSeed(std::uint64_t seed, std::size_t index) {
    return seed * kMaxInputs + index;
}

/// Returns false for an unknown workload name.
bool planFor(const std::string& workload, Plan& plan);

/// In-memory span recorder. Disabled, a Scope costs one branch.
class Tracer {
public:
    struct Span {
        std::string name;     ///< "<layer>.<operation>"
        std::uint64_t startNs = 0;
        std::uint64_t endNs = 0;
        std::int64_t parent = -1;  ///< Index of the enclosing span, -1 = root.
        std::uint64_t step = 0;    ///< Session/round/epoch id the span serves.
    };

    class Scope {
    public:
        Scope(Tracer& tracer, const char* name, std::uint64_t step)
            : tracer_(tracer.enabled_ ? &tracer : nullptr) {
            if (tracer_ != nullptr) index_ = tracer_->begin(name, step);
        }
        ~Scope() {
            if (tracer_ != nullptr) tracer_->end(index_);
        }
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

    private:
        Tracer* tracer_;
        std::size_t index_ = 0;
    };

    bool enabled() const { return enabled_; }
    void setEnabled(bool on) { enabled_ = on; }
    const std::vector<Span>& spans() const { return spans_; }

    /// Chrome trace-event JSON ("X" events; parent and step ride in args).
    void writeChromeTrace(const std::string& path) const;

private:
    std::size_t begin(const char* name, std::uint64_t step);
    void end(std::size_t index);

    bool enabled_ = false;
    std::vector<Span> spans_;
    std::vector<std::size_t> open_;
};

/// Counts checked operations and the ones whose output was wrong.
class Checks {
public:
    void expect(bool ok, const std::string& what);
    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }
    capi::support::Json toJson() const;

private:
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::vector<std::string> firstFailures_;
};

/// Everything the phases share with each other and with main().
struct Context {
    Plan plan;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool traced = false;
    Tracer tracer;
    Checks checks;
    /// Raw samples and counters, keyed by name; post-processed by run.py.
    capi::support::Json samples = capi::support::Json::object();
    capi::support::Json counters = capi::support::Json::object();

    void sample(const std::string& name, double value) {
        capi::support::Json& list = samples[name];
        if (list.isNull()) list = capi::support::Json::array();
        list.push_back(value);
    }
    void count(const std::string& name, double value) { counters[name] = value; }
};

/// One generated refine input: the graph written to MetaCG JSON and the
/// image the symbol oracle and DynCapi work on.
struct RefineInput {
    capi::cg::CallGraph graph;
    capi::binsim::CompiledProgram compiled;
    std::string jsonPath;
};

/// One generated execution-scale model, as the overhead phase runs it.
struct ExecInput {
    capi::cg::CallGraph graph;
    capi::binsim::CompiledProgram compiled;  ///< XRay build.
    capi::binsim::CompiledProgram vanilla;
    capi::select::InstrumentationConfig mpiIc;
    capi::select::InstrumentationConfig surveyIc;
};

/// Every input the three phases need, built before anything is measured and
/// timed as setup_s: Plan::inputs of each kind. The fleet phase serves the
/// first execution-scale model's regions.
struct SetupProducts {
    std::vector<RefineInput> refine;
    std::vector<ExecInput> exec;
    std::vector<std::string> fleetRegions;  ///< Sorted region names of exec[0].
};

SetupProducts buildSetup(const Context& ctx, const std::string& scratchDir);

/// One phase of the workflow, run an iteration at a time so runPhases() can
/// interleave the phases: a slow stretch of the machine then lands on every
/// phase alike instead of on one phase's whole sample.
class Phase {
public:
    virtual ~Phase() = default;
    /// One unit: a refine session's load, cold pass, init or block of
    /// steps, one overhead pair of runs, or a fleet epoch; `id` counts this
    /// phase's iterations.
    virtual void iterate(std::uint64_t id) = 0;
    /// Iterations the phase runs even past the deadline, so every metric it
    /// reports has samples.
    virtual std::uint64_t minIterations() const = 0;
    /// Checks over the whole run.
    virtual void finish() {}
};

std::unique_ptr<Phase> makeRefinePhase(Context& ctx, const SetupProducts& products);
std::unique_ptr<Phase> makeOverheadPhase(Context& ctx, const SetupProducts& products);
std::unique_ptr<Phase> makeFleetPhase(Context& ctx, const SetupProducts& products);

}  // namespace e2e
