// Overhead phase: Table II at execution scale, as repeated batch runs.
//
// Every round runs each instrumented configuration once, in an order rotated
// per round so slow drift spreads evenly over the configurations, and pairs
// each with a vanilla run next to it, so vanilla, the base of every overhead
// factor, has five samples per round spread over the whole run:
//   vanilla       uninstrumented build
//   inactive      XRay build, no sled patched
//   scorep_ic     Score-P on the mpi IC
//   scorep_full   Score-P on every sled (xray full)
//   talp_ic       TALP on the mpi IC
//   adaptive      adapt::Controller with the sampled tier, from the survey IC
//                 to convergence, then one run at the converged policy
// All runs execute one rank through a 1-rank MpiWorld: with two ranks the
// condition-variable hand-offs in mpisim dominate the probe cost being
// measured. The traced run adds a 2-rank vanilla run to report that cost.
// Instance set-up (process image, DynCapi, measurement) is not timed; the
// timed span is ExecutionEngine::run, as in Table II's Ttotal.
#include <algorithm>
#include <memory>
#include <optional>
#include <iterator>
#include <set>

#include "adapt/controller.hpp"
#include "binsim/execution_engine.hpp"
#include "binsim/process.hpp"
#include "dyncapi/dyncapi.hpp"
#include "dyncapi/mpi_port.hpp"
#include "harness.hpp"
#include "mpisim/mpi_world.hpp"
#include "scorepsim/cyg_adapter.hpp"
#include "scorepsim/symbol_resolver.hpp"
#include "talpsim/talp.hpp"

namespace e2e {

using namespace capi;

namespace {

using Scope = Tracer::Scope;

enum class Config { Vanilla, Inactive, ScorepIc, ScorepFull, TalpIc, Adaptive };
/// The configurations paired with a vanilla run, one pair per phase unit.
constexpr Config kInstrumented[] = {Config::Inactive, Config::ScorepIc, Config::ScorepFull,
                                    Config::TalpIc, Config::Adaptive};
constexpr std::uint64_t kPairs = std::size(kInstrumented);

const char* configName(Config config) {
    switch (config) {
        case Config::Vanilla: return "vanilla";
        case Config::Inactive: return "inactive";
        case Config::ScorepIc: return "scorep_ic";
        case Config::ScorepFull: return "scorep_full";
        case Config::TalpIc: return "talp_ic";
        case Config::Adaptive: return "adaptive";
    }
    return "?";
}

/// The span a configuration's timed run records: the layer it adds on top
/// of the previous configuration.
const char* runSpanName(Config config) {
    switch (config) {
        case Config::Vanilla: return "binsim.run_vanilla";
        case Config::Inactive: return "xraysim.run_inactive";
        case Config::ScorepIc: return "scorepsim.run_ic";
        case Config::ScorepFull: return "scorepsim.run_full";
        case Config::TalpIc: return "talpsim.run_ic";
        case Config::Adaptive: return "scorepsim.run_sampled";
    }
    return "?";
}

struct RunResult {
    double wallSeconds = 0.0;
    binsim::RunStats stats;
};

/// One timed execution of the program entry point on every rank of `world`.
RunResult execute(Context& ctx, binsim::Process& process, mpi::MpiWorld& world,
                  const char* span, std::uint64_t round) {
    dyncapi::WorldMpiPort port(world);
    RunResult result;
    std::vector<binsim::RunStats> perRank(static_cast<std::size_t>(world.worldSize()));
    const std::uint64_t start = nowNs();
    {
        Scope s(ctx.tracer, span, round);
        mpi::runRanks(world, [&](int rank) {
            binsim::ExecutionEngine engine(process);
            engine.setMpiPort(&port);
            perRank[static_cast<std::size_t>(rank)] = engine.run(rank, world.worldSize());
        });
    }
    result.wallSeconds = secondsSince(start);
    result.stats = perRank.front();
    return result;
}

std::uint64_t totalVisits(const scorep::Measurement& measurement) {
    std::uint64_t visits = 0;
    for (const auto& [region, totals] : measurement.mergedProfile().regionTotals()) {
        visits += totals.visits;
    }
    return visits;
}

class OverheadPhase final : public Phase {
public:
    OverheadPhase(Context& ctx, const SetupProducts& products)
        : ctx_(ctx),
          products_(products),
          vanilla_(products.exec.size()),
          fingerprints_(products.exec.size()) {}

    /// One vanilla run and one instrumented run; a round is kPairs units.
    void iterate(std::uint64_t id) override;
    /// Three rounds per generated input.
    std::uint64_t minIterations() const override {
        return 3 * kPairs * products_.exec.size();
    }

private:
    RunResult runConfig(Config config, std::uint64_t round);
    RunResult runAdaptive(std::uint64_t round);
    void checkSameProgram(Config config, const RunResult& result);
    const ExecInput& input() const { return products_.exec[input_]; }

    Context& ctx_;
    const SetupProducts& products_;
    std::size_t input_ = 0;  ///< The round's index into SetupProducts::exec.
    /// Per input: reference behaviour of the uninstrumented program.
    std::vector<std::optional<binsim::RunStats>> vanilla_;
    /// Per input: fingerprints of the converged adaptive policies.
    std::vector<std::set<std::uint64_t>> fingerprints_;
    double roundSeconds_ = 0.0;  ///< Timed runs of the round so far.
};

RunResult OverheadPhase::runConfig(Config config, std::uint64_t round) {
    if (config == Config::Adaptive) return runAdaptive(round);
    binsim::Process process(config == Config::Vanilla ? input().vanilla : input().compiled);
    mpi::MpiWorld world(1);
    talp::TalpRuntime talp(world);
    std::optional<dyncapi::DynCapi> dyn;
    std::optional<scorep::Measurement> measurement;
    std::optional<scorep::CygProfileAdapter> adapter;
    if (config == Config::ScorepIc || config == Config::ScorepFull ||
        config == Config::TalpIc) {
        dyn.emplace(process);
        if (config == Config::ScorepFull) dyn->patchAll();
        else dyn->applyIc(input().mpiIc);
        if (config == Config::TalpIc) {
            dyn->attachTalpHandler(talp);
        } else {
            measurement.emplace();
            adapter.emplace(*measurement,
                            scorep::SymbolResolver::withSymbolInjection(process));
            dyn->attachCygHandler(*adapter);
        }
    }
    const RunResult result = execute(ctx_, process, world, runSpanName(config), round);
    if (dyn) dyn->detachHandler();
    if (measurement) {
        // Every dispatched sled is an enter or exit of a counted visit, or an
        // event at an address the resolver could not name.
        ctx_.checks.expect(
            2 * totalVisits(*measurement) + adapter->unresolvedAddresses() ==
                result.stats.sledHits,
            std::string("overhead: Score-P visits do not match sled hits (") +
                configName(config) + ")");
    }
    return result;
}

adapt::Config adaptiveConfig() {
    adapt::Config config;
    config.budgetFraction = 0.05;
    config.perEventCostNs = 200.0;  // virtual ns per probe event
    config.gateCostNs = 20.0;       // virtual ns per suppressed event
    config.enableSampledTier = true;
    config.sampledEveryN = 64;
    config.maxEpochs = 10;
    return config;
}

/// What one adaptive epoch observed: the controller's complete input.
struct EpochObservation {
    std::unique_ptr<scorep::Measurement> measurement;
    scorep::ProfileTree profile;
    double runtimeNs = 0.0;
};

RunResult OverheadPhase::runAdaptive(std::uint64_t round) {
    binsim::Process process(input().compiled);
    dyncapi::DynCapi dyn(process);
    const adapt::Config config = adaptiveConfig();
    adapt::Controller controller(input().graph, dyn, config);
    std::vector<EpochObservation> observed;

    const std::uint64_t convergeStart = nowNs();
    {
        Scope root(ctx_.tracer, "e2e.adapt_converge", round);
        {
            Scope s(ctx_.tracer, "adapt.start", round);
            const std::uint64_t start = nowNs();
            controller.start(input().surveyIc);
            ctx_.sample("adapt_start_s", secondsSince(start));
        }
        while (!controller.done()) {
            EpochObservation epoch;
            epoch.measurement = std::make_unique<scorep::Measurement>();
            scorep::CygProfileAdapter adapter(
                *epoch.measurement, scorep::SymbolResolver::withSymbolInjection(process));
            dyn.attachCygHandler(adapter);
            mpi::MpiWorld world(1);
            const RunResult run = execute(ctx_, process, world, "adapt.epoch_run", round);
            dyn.detachHandler();
            ctx_.sample("adapt_epoch_run_s", run.wallSeconds);
            checkSameProgram(Config::Adaptive, run);
            epoch.profile = epoch.measurement->mergedProfile();
            epoch.runtimeNs = adapt::virtualEpochRuntimeNs(
                run.stats, *epoch.measurement, config.perEventCostNs, config.gateCostNs);
            Scope s(ctx_.tracer, "adapt.epoch", round);
            const std::uint64_t start = nowNs();
            controller.epoch(epoch.profile, *epoch.measurement, epoch.runtimeNs);
            ctx_.sample("adapt_epoch_s", secondsSince(start));
            observed.push_back(std::move(epoch));
        }
    }
    ctx_.sample("converge_s", secondsSince(convergeStart));
    ctx_.sample("adapt_epochs", static_cast<double>(controller.epochsRun()));
    ctx_.checks.expect(controller.converged(),
                       "overhead: adaptive controller did not converge in budget");
    const select::InstrumentationPolicy& policy = controller.currentPolicy();
    ctx_.count("adapt_full_regions", static_cast<double>(policy.countOf(select::Tier::Full)));
    ctx_.count("adapt_sampled_regions",
               static_cast<double>(policy.countOf(select::Tier::Sampled)));
    fingerprints_[input_].insert(policy.fingerprint());
    std::size_t distinct = 0;
    for (const auto& fingerprints : fingerprints_) {
        distinct = std::max(distinct, fingerprints.size());
    }
    ctx_.count("adapt_distinct_policies", static_cast<double>(distinct));

    // The planner ranks regions by measured (wall-clock) exclusive time, so
    // repetitions may settle on different policies. The decision itself must
    // be reproducible: the same observations replayed into a fresh
    // controller reach the same policy.
    {
        binsim::Process replayProcess(input().compiled);
        dyncapi::DynCapi replayDyn(replayProcess);
        adapt::Controller replay(input().graph, replayDyn, config);
        replay.start(input().surveyIc);
        for (const EpochObservation& epoch : observed) {
            replay.epoch(epoch.profile, *epoch.measurement, epoch.runtimeNs);
        }
        ctx_.checks.expect(replay.currentPolicy().fingerprint() == policy.fingerprint(),
                           "overhead: replayed adaptive epochs reached another policy");
    }

    // One run at the converged policy; attaching syncs the sampling gates.
    scorep::Measurement measurement;
    scorep::CygProfileAdapter adapter(measurement,
                                      scorep::SymbolResolver::withSymbolInjection(process));
    dyn.attachCygHandler(adapter);
    mpi::MpiWorld world(1);
    const RunResult result = execute(ctx_, process, world, runSpanName(Config::Adaptive), round);
    dyn.detachHandler();
    return result;
}

void OverheadPhase::checkSameProgram(Config config, const RunResult& result) {
    ctx_.checks.expect(
        result.stats.dynamicCalls == vanilla_[input_]->dynamicCalls &&
            result.stats.virtualNs == vanilla_[input_]->virtualNs,
        std::string("overhead: '") + configName(config) +
            "' changed the program's calls or virtual time");
}

void OverheadPhase::iterate(std::uint64_t id) {
    const std::uint64_t round = id / kPairs;
    const std::uint64_t pair = id % kPairs;
    // The traced run alternates tracing on and off per round.
    ctx_.tracer.setEnabled(ctx_.traced && round % 2 == 0);
    // Rounds rotate over the generated models.
    input_ = round % products_.exec.size();
    if (!vanilla_[input_]) {
        // Reference behaviour of the uninstrumented program (untimed).
        binsim::Process process(input().vanilla);
        mpi::MpiWorld world(1);
        dyncapi::WorldMpiPort port(world);
        binsim::ExecutionEngine engine(process);
        engine.setMpiPort(&port);
        vanilla_[input_] = engine.run(0, 1);
    }
    // Which run of the pair goes first alternates from round to round.
    Config order[] = {Config::Vanilla, kInstrumented[(round + pair) % kPairs]};
    if ((round + pair) % 2 == 1) std::swap(order[0], order[1]);
    for (const Config config : order) {
        const RunResult result = runConfig(config, round);
        checkSameProgram(config, result);
        const std::string name = configName(config);
        ctx_.sample("run_s." + name, result.wallSeconds);
        ctx_.sample("sled_hits." + name, static_cast<double>(result.stats.sledHits));
        ctx_.sample("dynamic_calls." + name, static_cast<double>(result.stats.dynamicCalls));
        roundSeconds_ += result.wallSeconds;
    }
    if (pair + 1 < kPairs) return;
    if (ctx_.traced) {
        // mpisim synchronisation cost: the same vanilla run on two ranks,
        // which share the CPU the harness holds at the moment (runPhases).
        binsim::Process process(input().vanilla);
        mpi::MpiWorld world(2);
        const RunResult result = execute(ctx_, process, world, "mpisim.run_2rank", round);
        ctx_.sample("run_s.vanilla_2rank", result.wallSeconds);
    }
    ctx_.sample(ctx_.tracer.enabled() ? "trace_on.overhead_s" : "trace_off.overhead_s",
                roundSeconds_);
    roundSeconds_ = 0.0;
}

}  // namespace

std::unique_ptr<Phase> makeOverheadPhase(Context& ctx, const SetupProducts& products) {
    return std::make_unique<OverheadPhase>(ctx, products);
}

}  // namespace e2e
