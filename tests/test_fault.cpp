// Fault-injection framework + self-healing tests: deterministic seed-driven
// fault schedules, bounded jittered backoff, the transactional
// patchDeltaTiered rollback property over every writer of sled state —
// policy applies, whole-object passes, dlclose and dlopen (sled, tier and
// page state is never torn, every injected failure is reported exactly
// once), and the
// adaptive controller's retry / revert-to-last-good / overhead-kill-switch
// state machine, including a randomized fault-storm soak.
//
// The CAPI_FAULT_SEED environment variable (used by the CI fault matrix) is
// XOR-mixed into every parameterized seed, so each matrix leg replays a
// different deterministic schedule.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "adapt/controller.hpp"
#include "binsim/compiler.hpp"
#include "binsim/execution_engine.hpp"
#include "binsim/process.hpp"
#include "cg/metacg_builder.hpp"
#include "dyncapi/dyncapi.hpp"
#include "scorepsim/cyg_adapter.hpp"
#include "scorepsim/measurement.hpp"
#include "scorepsim/symbol_resolver.hpp"
#include "support/backoff.hpp"
#include "support/fault.hpp"
#include "support/rng.hpp"
#include "test_util.hpp"
#include "xraysim/xray_runtime.hpp"

namespace {

using namespace capi;
using namespace capi::binsim;
namespace fault = capi::support::fault;

using testutil::envFaultSeed;

/// Every test arms its own sites; a fixture-level disarm keeps a failing
/// test from leaking an armed site into the rest of the binary.
class FaultTest : public ::testing::Test {
protected:
    void TearDown() override { fault::disarmAll(); }
};

// --------------------------------------------------------- fault framework --

TEST_F(FaultTest, DisarmedSitesNeverFireAndCostNothing) {
    ASSERT_FALSE(fault::anyArmed());
    for (int i = 0; i < 1000; ++i) {
        EXPECT_FALSE(fault::shouldFail(fault::sites::kXrayMprotect));
        EXPECT_DOUBLE_EQ(fault::inflationFactor(fault::sites::kScorepProbeInflate),
                         1.0);
    }
    // Disarmed checks never reach the registry: no hits are recorded.
    EXPECT_EQ(fault::stats(fault::sites::kXrayMprotect).hits, 0u);
}

TEST_F(FaultTest, ScheduleIsDeterministicUnderSeedAndArmingOrder) {
    fault::FaultSpec spec;
    spec.probability = 0.5;
    auto schedule = [&](std::uint64_t seed, bool armOtherFirst) {
        fault::disarmAll();
        if (armOtherFirst) {
            // Another armed site must not perturb this site's stream.
            fault::arm(fault::sites::kMpiStraggler, {}, seed + 99);
        }
        fault::arm(fault::sites::kXraySledWrite, spec, seed);
        std::vector<bool> fires;
        for (int i = 0; i < 64; ++i) {
            fires.push_back(fault::shouldFail(fault::sites::kXraySledWrite));
        }
        return fires;
    };
    std::vector<bool> a = schedule(7, false);
    std::vector<bool> b = schedule(7, true);
    std::vector<bool> c = schedule(8, false);
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c);  // A different seed is a different schedule.
    // probability=0.5 over 64 hits: both outcomes occurred.
    EXPECT_NE(std::count(a.begin(), a.end(), true), 0);
    EXPECT_NE(std::count(a.begin(), a.end(), false), 0);
}

TEST_F(FaultTest, AfterHitsAndMaxFiresShapeTheSchedule) {
    fault::FaultSpec spec;
    spec.afterHits = 3;
    spec.maxFires = 2;
    fault::arm(fault::sites::kXrayMprotect, spec, 1);
    std::vector<bool> fires;
    for (int i = 0; i < 8; ++i) {
        fires.push_back(fault::shouldFail(fault::sites::kXrayMprotect));
    }
    // Three skipped hits, then exactly maxFires deterministic fires.
    EXPECT_EQ(fires, (std::vector<bool>{false, false, false, true, true, false,
                                        false, false}));
    EXPECT_EQ(fault::stats(fault::sites::kXrayMprotect).hits, 8u);
    EXPECT_EQ(fault::stats(fault::sites::kXrayMprotect).fires, 2u);
    // totalFires sums over every site the binary has armed so far, so it is
    // at least this site's contribution.
    EXPECT_GE(fault::totalFires(), 2u);
}

TEST_F(FaultTest, SuppressionHidesArmedSitesFromTheRollbackPath) {
    fault::arm(fault::sites::kXraySledWrite, {}, 1);  // always fires
    ASSERT_TRUE(fault::shouldFail(fault::sites::kXraySledWrite));
    {
        fault::SuppressFaults guard;
        for (int i = 0; i < 16; ++i) {
            EXPECT_FALSE(fault::shouldFail(fault::sites::kXraySledWrite));
        }
    }
    EXPECT_TRUE(fault::shouldFail(fault::sites::kXraySledWrite));
    // Suppressed checks count neither hits nor fires — rollback work must
    // not consume the schedule.
    EXPECT_EQ(fault::stats(fault::sites::kXraySledWrite).hits, 2u);
    EXPECT_EQ(fault::stats(fault::sites::kXraySledWrite).fires, 2u);
}

TEST_F(FaultTest, ScopedInjectionDisarmsOnScopeExit) {
    {
        fault::ScopedFaultInjection scoped(42);
        scoped.arm(fault::sites::kXrayMprotect, {});
        EXPECT_TRUE(fault::anyArmed());
        EXPECT_TRUE(fault::shouldFail(fault::sites::kXrayMprotect));
    }
    EXPECT_FALSE(fault::anyArmed());
    EXPECT_FALSE(fault::shouldFail(fault::sites::kXrayMprotect));
}

// ------------------------------------------------------------------ backoff --

TEST(Backoff, GoldenScheduleWithoutJitter) {
    support::BackoffOptions options;
    options.baseNs = 1000;
    options.maxNs = 10'000;
    options.multiplier = 2.0;
    options.jitterFraction = 0.0;
    support::Backoff backoff(options, 0);
    // Exact exponential schedule, capped: the pinned contract the controller
    // retries and MPI timeout polling rely on.
    EXPECT_EQ(backoff.nextDelayNs(), 1000u);
    EXPECT_EQ(backoff.nextDelayNs(), 2000u);
    EXPECT_EQ(backoff.nextDelayNs(), 4000u);
    EXPECT_EQ(backoff.nextDelayNs(), 8000u);
    EXPECT_EQ(backoff.nextDelayNs(), 10'000u);
    EXPECT_EQ(backoff.nextDelayNs(), 10'000u);
    EXPECT_EQ(backoff.attempts(), 6u);
}

TEST(Backoff, JitteredScheduleIsDeterministicBoundedAndResets) {
    support::BackoffOptions options;
    options.baseNs = 1000;
    options.maxNs = 1'000'000;
    options.multiplier = 2.0;
    options.jitterFraction = 0.25;
    support::Backoff a(options, 123);
    support::Backoff b(options, 123);
    support::Backoff c(options, 124);
    std::vector<std::uint64_t> delaysA;
    bool anyDiffersFromC = false;
    for (int i = 0; i < 12; ++i) {
        std::uint64_t da = a.nextDelayNs();
        EXPECT_EQ(da, b.nextDelayNs());  // pure function of (options, seed)
        anyDiffersFromC |= (da != c.nextDelayNs());
        delaysA.push_back(da);
        // Bounds: jitter shifts by at most 25%, the cap always holds.
        double raw = std::min(1000.0 * std::pow(2.0, i),
                              static_cast<double>(options.maxNs));
        EXPECT_GE(static_cast<double>(da), raw * 0.75 - 1.0);
        EXPECT_LE(da, options.maxNs);
        EXPECT_GE(da, 1u);
    }
    EXPECT_TRUE(anyDiffersFromC);
    a.reset();
    for (int i = 0; i < 12; ++i) {
        EXPECT_EQ(a.nextDelayNs(), delaysA[static_cast<std::size_t>(i)]);
    }
}

// -------------------------------------------------- transactional patching --

/// Executable + two DSOs, `perObject` sledded functions each (the
/// delta-repatch property-test app shape).
AppModel patchModel(std::uint32_t perObject) {
    AppModel model;
    model.name = "faultpatch";
    model.dsos.push_back({"liba.so"});
    model.dsos.push_back({"libb.so"});
    for (int dso = -1; dso < 2; ++dso) {
        std::string prefix = dso < 0 ? "exe_" : (dso == 0 ? "a_" : "b_");
        for (std::uint32_t i = 0; i < perObject; ++i) {
            AppFunction fn;
            fn.name = prefix + "fn" + std::to_string(i);
            fn.unit = prefix + "unit.cpp";
            fn.dso = dso;
            fn.metrics.numInstructions = 100;
            fn.flags.hasBody = true;
            model.functions.push_back(fn);
        }
    }
    model.entry = 0;
    return model;
}

void expectSameSledState(Process& lhs, Process& rhs) {
    ASSERT_EQ(lhs.xray().patchedFunctions(), rhs.xray().patchedFunctions());
    ASSERT_EQ(lhs.xray().patchedSledCount(), rhs.xray().patchedSledCount());
    const std::vector<ExecInfo>& lhsInfo = lhs.execInfo();
    const std::vector<ExecInfo>& rhsInfo = rhs.execInfo();
    ASSERT_EQ(lhsInfo.size(), rhsInfo.size());
    for (std::size_t i = 0; i < lhsInfo.size(); ++i) {
        ASSERT_EQ(lhsInfo[i].hasSleds, rhsInfo[i].hasSleds);
        if (!lhsInfo[i].hasSleds) {
            continue;
        }
        for (std::uint64_t address :
             {lhsInfo[i].entryAddress, lhsInfo[i].exitAddress}) {
            const xray::CodeCell& l = lhs.memory().read(address);
            const xray::CodeCell& r = rhs.memory().read(address);
            ASSERT_EQ(l.instr, r.instr) << "sled at " << address;
            ASSERT_EQ(l.operand, r.operand) << "sled at " << address;
        }
    }
}

select::InstrumentationPolicy randomTieredPolicy(
    const std::vector<std::string>& names, support::SplitMix64& rng,
    std::size_t round) {
    select::InstrumentationPolicy policy;
    policy.specName = "round" + std::to_string(round);
    for (const std::string& name : names) {
        if (rng.nextBool(0.3)) {
            continue;  // ~30% Off
        }
        select::RegionPolicy region;
        if (rng.nextBool(0.5)) {
            region.tier = select::Tier::Full;
        } else {
            region.tier = select::Tier::Sampled;
            region.sampling.everyN = rng.nextBool(0.5) ? 8 : 64;
            region.sampling.minIntervalNs = rng.nextBool(0.2) ? 1000 : 0;
        }
        policy.setRegion(name, region);
    }
    return policy;
}

class FaultScheduleProperty : public ::testing::TestWithParam<std::uint64_t> {
protected:
    void TearDown() override { fault::disarmAll(); }
};

/// No code page is left writable: every transaction, committed or rolled
/// back, seals the page runs it opened.
void expectAllPagesSealed(Process& process) {
    xray::CodeMemory& memory = process.memory();
    for (std::uint64_t page = 0; page < memory.sizeBytes(); page += xray::kPageSize) {
        ASSERT_FALSE(memory.pageWritable(page)) << "page at " << page;
    }
}

void expectSameState(Process& faulty, Process& reference) {
    ASSERT_NO_FATAL_FAILURE(expectSameSledState(faulty, reference));
    ASSERT_EQ(faulty.xray().patchedFunctionTiers(),
              reference.xray().patchedFunctionTiers());
    ASSERT_NO_FATAL_FAILURE(expectAllPagesSealed(faulty));
    ASSERT_NO_FATAL_FAILURE(expectAllPagesSealed(reference));
}

/// The transactional property: random fault schedules over random tiered
/// patch sequences must NEVER leave torn state — after every operation,
/// failed or not, the faulty process is bit-identical in sleds, tier tags
/// and page protections to a fault-free reference — and every injected
/// failure surfaces as exactly one PatchError. Each round arms one fault
/// over all of its operations: the DSO lifecycle (dlclose in round 10,
/// dlopen in round 20), a whole-object pass in every fourth round
/// (xray().patchAll, unpatchAll or patchObject), then a policy apply that
/// alternates between applyPolicy and applyPolicyDelta. After each round
/// the sampling gates of both processes follow their tiers.
TEST_P(FaultScheduleProperty, RollbackLeavesNoTornStateEver) {
    constexpr std::uint32_t kPerObject = 40;
    constexpr std::size_t kRounds = 30;
    const std::uint64_t seed = GetParam() ^ envFaultSeed();

    AppModel model = patchModel(kPerObject);
    CompileOptions copts;
    copts.xrayThreshold.instructionThreshold = 1;
    CompiledProgram compiled = compile(model, copts);
    Process faultyProcess(compiled);
    Process referenceProcess(compiled);
    dyncapi::DynCapi faultyDyn(faultyProcess);
    dyncapi::DynCapi referenceDyn(referenceProcess);
    scorep::Measurement faultyMeasurement;
    scorep::Measurement referenceMeasurement;
    scorep::CygProfileAdapter faultyAdapter(
        faultyMeasurement, scorep::SymbolResolver::withSymbolInjection(faultyProcess));
    scorep::CygProfileAdapter referenceAdapter(
        referenceMeasurement,
        scorep::SymbolResolver::withSymbolInjection(referenceProcess));
    faultyDyn.attachCygHandler(faultyAdapter);
    referenceDyn.attachCygHandler(referenceAdapter);

    std::vector<std::string> names;
    for (const AppFunction& fn : model.functions) {
        names.push_back(fn.name);
    }

    support::SplitMix64 rng(seed);
    std::size_t failedSteps = 0;
    std::size_t cleanSteps = 0;
    for (std::size_t round = 0; round < kRounds; ++round) {
        select::InstrumentationPolicy policy =
            randomTieredPolicy(names, rng, round);

        // One deterministic fault position per round, swept over the whole
        // round by afterHits: early positions hit the first mprotect or sled
        // write, later ones land mid-run or in a later operation, and
        // past-the-end positions leave the round fault-free.
        const char* site = rng.nextBool(0.5) ? fault::sites::kXrayMprotect
                                             : fault::sites::kXraySledWrite;
        fault::FaultSpec spec;
        spec.afterHits = rng.nextBelow(
            site == fault::sites::kXrayMprotect ? 12 : 200);
        spec.maxFires = 1;
        fault::arm(site, spec, seed + round);

        // Runs one operation on the faulty process, then on the fault-free
        // reference.
        // A fire must surface as exactly one PatchError with the faulty
        // process still equal to the reference, which has not run it yet,
        // and the retry (fault-free: the site fires at most once) succeeds.
        auto step = [&](const char* what, const auto& onFaulty, const auto& onReference) {
            SCOPED_TRACE(testing::Message() << "round " << round << ": " << what);
            const std::uint64_t firesBefore = fault::stats(site).fires;
            bool threw = false;
            try {
                onFaulty();
            } catch (const xray::PatchError&) {
                threw = true;
            }
            const std::uint64_t fires = fault::stats(site).fires - firesBefore;
            ASSERT_LE(fires, 1u);
            ASSERT_EQ(fires == 1, threw);
            if (threw) {
                ++failedSteps;
                ASSERT_NO_FATAL_FAILURE(expectSameState(faultyProcess, referenceProcess))
                    << "torn state after rollback";
                ASSERT_NO_THROW(onFaulty());
            } else {
                ++cleanSteps;
            }
            {
                // Sites are process-wide: hide them from the fault-free twin.
                fault::SuppressFaults suppress;
                onReference();
            }
            ASSERT_NO_FATAL_FAILURE(expectSameState(faultyProcess, referenceProcess));
        };

        if (round == 10) {
            ASSERT_NO_FATAL_FAILURE(step(
                "dlclose", [&] { ASSERT_TRUE(faultyProcess.dlcloseDso(0)); },
                [&] { ASSERT_TRUE(referenceProcess.dlcloseDso(0)); }));
        }
        if (round == 20) {
            ASSERT_NO_FATAL_FAILURE(step(
                "dlopen", [&] { ASSERT_TRUE(faultyProcess.dlopenDso(0)); },
                [&] { ASSERT_TRUE(referenceProcess.dlopenDso(0)); }));
        }
        if (round % 4 == 3) {
            // libb.so stays loaded throughout; both processes registered
            // their objects in the same order, so its object id is shared.
            const xray::ObjectId libb = *faultyProcess.xrayObjectId(1);
            switch (round / 4 % 3) {
                case 0:
                    ASSERT_NO_FATAL_FAILURE(
                        step("patchAll", [&] { faultyProcess.xray().patchAll(); },
                             [&] { referenceProcess.xray().patchAll(); }));
                    break;
                case 1:
                    ASSERT_NO_FATAL_FAILURE(
                        step("unpatchAll", [&] { faultyProcess.xray().unpatchAll(); },
                             [&] { referenceProcess.xray().unpatchAll(); }));
                    break;
                default:
                    ASSERT_NO_FATAL_FAILURE(step(
                        "patchObject", [&] { faultyProcess.xray().patchObject(libb); },
                        [&] { referenceProcess.xray().patchObject(libb); }));
                    break;
            }
        }
        ASSERT_NO_FATAL_FAILURE(step(
            "apply",
            [&] {
                if (round % 2 == 0) {
                    faultyDyn.applyPolicy(policy);
                } else {
                    faultyDyn.applyPolicyDelta(policy);
                }
            },
            [&] { referenceDyn.applyPolicyDelta(policy); }));
        fault::disarmAll();

        ASSERT_NO_FATAL_FAILURE(testutil::expectGatesFollowTiers(
            faultyDyn, faultyProcess.xray(), faultyMeasurement, policy))
            << "round " << round;
        ASSERT_NO_FATAL_FAILURE(testutil::expectGatesFollowTiers(
            referenceDyn, referenceProcess.xray(), referenceMeasurement, policy))
            << "round " << round;
    }
    // The sweep must exercise both outcomes, or the property is vacuous.
    EXPECT_GT(failedSteps, 0u);
    EXPECT_GT(cleanSteps, 0u);
}

// 8 seeds x 30 rounds = 240 randomized transaction sequences per run (and
// the CI fault matrix re-runs them under three more CAPI_FAULT_SEED values).
INSTANTIATE_TEST_SUITE_P(Seeds, FaultScheduleProperty,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u));

// ------------------------------------------------- controller self-healing --

/// main -> kernel(x4) -> noisy(x20000): the synthetic adaptive app (noisy is
/// the budget-blowing region the planner evicts).
AppModel syntheticApp() {
    AppModel model;
    model.name = "selfheal";
    auto add = [&](const char* name, std::uint32_t instr, double virtualNs) {
        AppFunction fn;
        fn.name = name;
        fn.unit = "a.cpp";
        fn.metrics.numInstructions = instr;
        fn.flags.hasBody = true;
        fn.workVirtualNs = virtualNs;
        model.functions.push_back(fn);
        return static_cast<std::uint32_t>(model.functions.size() - 1);
    };
    std::uint32_t mainFn = add("main", 100, 100.0);
    std::uint32_t kernel = add("kernel", 300, 1'000'000.0);
    std::uint32_t noisy = add("noisy", 50, 10.0);
    model.entry = mainFn;
    model.functions[mainFn].calls.push_back({kernel, 4});
    model.functions[kernel].calls.push_back({noisy, 20000});
    return model;
}

struct SelfHealRig {
    explicit SelfHealRig(adapt::Config config)
        : model(syntheticApp()),
          graph(cg::MetaCgBuilder().build(model.toSourceModel())),
          process([&] {
              CompileOptions copts;
              copts.xrayThreshold.instructionThreshold = 1;
              return compile(model, copts);
          }()),
          dyn(process),
          controller(graph, dyn, config) {}

    /// One hand-driven epoch: records `noisyVisits` through the real
    /// enter/exit probes (so the scorep.probe_inflate site participates) and
    /// feeds the merged tree to the controller.
    adapt::EpochReport epoch(std::uint64_t noisyVisits, double runtimeNs) {
        scorep::Measurement m;
        scorep::RegionHandle mainR = m.defineRegion("main");
        scorep::RegionHandle kernelR = m.defineRegion("kernel");
        scorep::RegionHandle noisyR = m.defineRegion("noisy");
        m.enter(mainR);
        for (int k = 0; k < 4; ++k) {
            m.enter(kernelR);
            for (std::uint64_t i = 0; i < noisyVisits / 4; ++i) {
                m.enter(noisyR);
                m.exit(noisyR);
            }
            m.exit(kernelR);
        }
        m.exit(mainR);
        return controller.epoch(m.mergedProfile(), m, runtimeNs);
    }

    AppModel model;
    cg::CallGraph graph;
    Process process;
    dyncapi::DynCapi dyn;
    adapt::Controller controller;
};

adapt::Config selfHealConfig() {
    adapt::Config config;
    config.budgetFraction = 0.05;
    config.maxEpochs = 50;
    config.perEventCostNs = 100.0;
    config.patchRetries = 3;
    config.retryBackoff.baseNs = 1'000;
    config.retryBackoff.maxNs = 50'000;
    return config;
}

TEST_F(FaultTest, ControllerRetriesTransientPatchFaultThenHeals) {
    SelfHealRig rig(selfHealConfig());
    rig.controller.start(adapt::surveyOfDefinedFunctions(rig.graph));

    // One-shot fault: the first apply attempt dies mid-unpatch, the retry
    // finds the schedule spent and lands the same delta.
    fault::FaultSpec spec;
    spec.maxFires = 1;
    fault::arm(fault::sites::kXraySledWrite, spec, envFaultSeed() + 7);
    // Over budget: 20005 visits x 2 x 100ns = 4.001e6 ns against 4e7 runtime
    // is 10%, so the planner must evict noisy — a real sled delta.
    adapt::EpochReport report = rig.epoch(20000, 4e7);
    fault::disarmAll();

    EXPECT_EQ(report.retriesThisEpoch, 1u);
    EXPECT_FALSE(report.revertedToLastGood);
    EXPECT_EQ(report.health, adapt::EpochHealth::Degraded);
    EXPECT_EQ(rig.controller.healthStats().patchFailures, 1u);
    EXPECT_EQ(rig.controller.healthStats().patchRetries, 1u);
    EXPECT_FALSE(rig.controller.currentIc().contains("noisy"));

    // The retried delta really landed: re-applying the cached policy is a
    // complete no-op, so live sleds and the controller's view agree.
    dyncapi::DeltaStats noop =
        rig.dyn.applyPolicyDelta(rig.controller.currentPolicy());
    EXPECT_EQ(noop.pagesTouched, 0u);
    EXPECT_EQ(noop.functionsPatched, 0u);
    EXPECT_EQ(noop.functionsUnpatched, 0u);

    // A clean epoch heals Degraded back to Healthy.
    adapt::EpochReport clean = rig.epoch(100, 4e7);
    EXPECT_EQ(clean.retriesThisEpoch, 0u);
    EXPECT_EQ(clean.health, adapt::EpochHealth::Healthy);
}

TEST_F(FaultTest, ControllerRevertsToLastGoodWhenRetriesExhaust) {
    adapt::Config config = selfHealConfig();
    config.patchRetries = 2;
    SelfHealRig rig(config);
    rig.controller.start(adapt::surveyOfDefinedFunctions(rig.graph));
    const std::uint64_t fingerprintBefore =
        rig.controller.currentPolicy().fingerprint();

    // Permanent fault: every attempt dies, retries exhaust, the controller
    // keeps the last known-good policy (which the rollback guarantees is
    // still the live state).
    fault::arm(fault::sites::kXraySledWrite, {}, envFaultSeed() + 11);
    adapt::EpochReport report = rig.epoch(20000, 4e7);
    fault::disarmAll();

    EXPECT_TRUE(report.revertedToLastGood);
    EXPECT_EQ(report.health, adapt::EpochHealth::Degraded);
    EXPECT_EQ(report.policyFingerprint, fingerprintBefore);
    EXPECT_EQ(rig.controller.healthStats().reversions, 1u);
    EXPECT_EQ(rig.controller.healthStats().patchFailures, 3u);  // 1 + 2 retries
    EXPECT_TRUE(rig.controller.currentIc().contains("noisy"));  // unchanged IC

    dyncapi::DeltaStats noop =
        rig.dyn.applyPolicyDelta(rig.controller.currentPolicy());
    EXPECT_EQ(noop.pagesTouched, 0u);

    // With the fault gone the next epoch applies the planned shrink.
    adapt::EpochReport recovered = rig.epoch(20000, 4e7);
    EXPECT_FALSE(recovered.revertedToLastGood);
    EXPECT_FALSE(rig.controller.currentIc().contains("noisy"));
}

TEST_F(FaultTest, KillSwitchTripsUnderInflatedProbeCostAndRearms) {
    adapt::Config config = selfHealConfig();
    config.killSwitchFactor = 3.0;
    config.killSwitchEpochs = 2;
    config.killSwitchRearmEpochs = 2;
    SelfHealRig rig(config);
    rig.controller.start(adapt::surveyOfDefinedFunctions(rig.graph));

    // Baseline shape: 205 visits x 2 x 100ns = 41000ns over 1e6 = 4.1%,
    // within the 5% budget. The injected 10x probe-cost inflation lifts the
    // measured ratio to ~41%, far past the 15% trip threshold.
    fault::FaultSpec inflate;
    inflate.magnitude = 10.0;
    fault::arm(fault::sites::kScorepProbeInflate, inflate, envFaultSeed() + 13);

    adapt::EpochReport first = rig.epoch(200, 1e6);
    EXPECT_FALSE(first.killSwitchTripped);
    EXPECT_GT(first.measuredOverheadRatio, 0.15);

    adapt::EpochReport second = rig.epoch(200, 1e6);
    fault::disarmAll();
    // Tripped within killSwitchEpochs epochs of sustained inflation: the
    // epoch goes straight to the keep-list-only policy (empty keep list —
    // everything unpatched).
    EXPECT_TRUE(second.killSwitchTripped);
    EXPECT_EQ(second.health, adapt::EpochHealth::SafeMode);
    EXPECT_EQ(second.icSize, 0u);
    EXPECT_EQ(rig.controller.healthStats().killSwitchTrips, 1u);
    EXPECT_EQ(rig.process.xray().patchedSledCount(), 0u);

    // Hysteresis: the first in-budget epoch must NOT re-arm...
    adapt::EpochReport third = rig.epoch(200, 1e6);
    EXPECT_TRUE(third.withinBudget);
    EXPECT_FALSE(third.killSwitchRearmed);
    EXPECT_EQ(third.health, adapt::EpochHealth::SafeMode);
    // ...the second one does, into Degraded (the planner is back in charge
    // but the controller does not claim full health yet).
    adapt::EpochReport fourth = rig.epoch(200, 1e6);
    EXPECT_TRUE(fourth.killSwitchRearmed);
    EXPECT_EQ(fourth.health, adapt::EpochHealth::Degraded);
    EXPECT_EQ(rig.controller.healthStats().killSwitchRearms, 1u);
    EXPECT_GT(fourth.icSize, 0u);

    adapt::EpochReport fifth = rig.epoch(200, 1e6);
    EXPECT_EQ(fifth.health, adapt::EpochHealth::Healthy);
}

class ControllerSoak : public ::testing::TestWithParam<std::uint64_t> {
protected:
    void TearDown() override { fault::disarmAll(); }
};

/// The soak property: under a randomized storm of patch faults and probe
/// inflation the controller never throws and never hangs; once the storm
/// passes it lands in Healthy or (kill-switch tripped) SafeMode, with its
/// cached policy exactly matching the live sled state.
TEST_P(ControllerSoak, SurvivesRandomFaultStormAndSelfHeals) {
    const std::uint64_t seed = GetParam() ^ envFaultSeed();
    adapt::Config config = selfHealConfig();
    config.patchRetries = 2;
    SelfHealRig rig(config);
    rig.controller.start(adapt::surveyOfDefinedFunctions(rig.graph));

    support::SplitMix64 rng(seed);
    for (std::size_t e = 0; e < 12; ++e) {
        fault::disarmAll();
        fault::FaultSpec patchFault;
        patchFault.probability = 0.05 + 0.15 * rng.nextDouble();
        fault::arm(fault::sites::kXraySledWrite, patchFault, seed + e * 3);
        fault::arm(fault::sites::kXrayMprotect, patchFault, seed + e * 3 + 1);
        if (rng.nextBool(0.4)) {
            fault::FaultSpec inflate;
            inflate.magnitude = rng.nextBool(0.5) ? 4.0 : 10.0;
            fault::arm(fault::sites::kScorepProbeInflate, inflate,
                       seed + e * 3 + 2);
        }
        // Workload jitter: visit counts and runtimes move between epochs.
        std::uint64_t visits = 2000 + rng.nextBelow(20000);
        double runtimeNs = 2e7 + static_cast<double>(rng.nextBelow(40'000'000));
        ASSERT_NO_THROW(rig.epoch(visits, runtimeNs)) << "epoch " << e;
    }
    fault::disarmAll();

    // The storm passes: a few clean epochs later the controller reports
    // Healthy — or SafeMode if the kill-switch tripped and the rearm window
    // has not elapsed — never a stuck Degraded.
    adapt::EpochReport last;
    for (std::size_t e = 0; e < 3; ++e) {
        ASSERT_NO_THROW(last = rig.epoch(2000, 4e7)) << "clean epoch " << e;
    }
    EXPECT_TRUE(last.health == adapt::EpochHealth::Healthy ||
                last.health == adapt::EpochHealth::SafeMode)
        << adapt::healthName(last.health);

    // Self-consistency after the storm: the live process state is exactly
    // the controller's cached policy — nothing torn, nothing drifted.
    dyncapi::DeltaStats noop =
        rig.dyn.applyPolicyDelta(rig.controller.currentPolicy());
    EXPECT_EQ(noop.pagesTouched, 0u);
    EXPECT_EQ(noop.functionsPatched, 0u);
    EXPECT_EQ(noop.functionsUnpatched, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ControllerSoak,
                         ::testing::Values(101u, 202u, 303u, 404u));

}  // namespace
