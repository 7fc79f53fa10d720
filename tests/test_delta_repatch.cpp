// Property tests for DynCapi's apply path, the live-state diff transaction:
// over an arbitrary IC or tiered-policy sequence it must leave the process's
// sled/patch state and tier tags bit-identical to referenceApply, an oracle
// kept here that unpatches every sled and patches each entry on its own —
// including across a mid-sequence dlclose/dlopen of a DSO, which resets the
// re-registered object's sleds to NOP behind the previous IC's back. Also
// the runtime's indexed patched set against a cell scan under every sled
// writer, injected faults included (CAPI_FAULT_SEED mixes into its seeds).
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "binsim/compiler.hpp"
#include "binsim/process.hpp"
#include "dyncapi/dyncapi.hpp"
#include "support/error.hpp"
#include "support/fault.hpp"
#include "support/rng.hpp"
#include "test_util.hpp"
#include "xraysim/xray_runtime.hpp"

namespace {

using namespace capi;
using namespace capi::binsim;

/// Executable + two DSOs, `perObject` sledded functions each.
AppModel patchModel(std::uint32_t perObject) {
    AppModel model;
    model.name = "deltapatch";
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

/// The full-repatch oracle: unpatch every sled, patch each resolved entry
/// on its own, then retag the Sampled ones; a packed id named twice takes
/// its last entry's tier. Returns the entries that found no patchable sled.
std::size_t referenceApply(dyncapi::DynCapi& dyn,
                           const select::InstrumentationPolicy& policy) {
    xray::XRayRuntime& xr = dyn.process().xray();
    xr.unpatchAll();
    std::map<xray::PackedId, std::uint8_t> tierOf;
    std::size_t unavailable = 0;
    for (std::size_t i = 0; i < policy.functions.size(); ++i) {
        const std::string& name = policy.functions[i];
        auto staticId = policy.staticIds.find(name);
        std::optional<xray::PackedId> pid = staticId != policy.staticIds.end()
                                                ? std::optional(staticId->second)
                                                : dyn.resolveName(name);
        if (!pid.has_value() || !xr.patchFunction(*pid)) {
            ++unavailable;
            continue;
        }
        tierOf[*pid] = policy.regions[i].tier == select::Tier::Sampled
                           ? xray::XRayRuntime::kSampledTier
                           : xray::XRayRuntime::kFullTier;
    }
    std::vector<xray::XRayRuntime::TieredFlip> retier;
    for (const auto& [pid, tag] : tierOf) {
        if (tag != xray::XRayRuntime::kFullTier) {
            retier.push_back({pid, tag});
        }
    }
    xr.patchDeltaTiered({}, {}, retier);
    return unavailable;
}

void expectSameSledState(Process& delta, Process& full) {
    ASSERT_EQ(delta.xray().patchedFunctions(), full.xray().patchedFunctions());
    ASSERT_EQ(delta.xray().patchedSledCount(), full.xray().patchedSledCount());
    const std::vector<ExecInfo>& deltaInfo = delta.execInfo();
    const std::vector<ExecInfo>& fullInfo = full.execInfo();
    ASSERT_EQ(deltaInfo.size(), fullInfo.size());
    for (std::size_t i = 0; i < deltaInfo.size(); ++i) {
        ASSERT_EQ(deltaInfo[i].hasSleds, fullInfo[i].hasSleds);
        if (!deltaInfo[i].hasSleds) {
            continue;
        }
        for (std::uint64_t address :
             {deltaInfo[i].entryAddress, deltaInfo[i].exitAddress}) {
            const xray::CodeCell& lhs = delta.memory().read(address);
            const xray::CodeCell& rhs = full.memory().read(address);
            ASSERT_EQ(lhs.instr, rhs.instr) << "sled at " << address;
            ASSERT_EQ(lhs.operand, rhs.operand) << "sled at " << address;
        }
    }
}

class DeltaRepatchProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DeltaRepatchProperty, SequenceMatchesFullRepatchBitForBit) {
    constexpr std::uint32_t kPerObject = 40;
    constexpr std::size_t kRounds = 30;
    AppModel model = patchModel(kPerObject);
    CompileOptions copts;
    copts.xrayThreshold.instructionThreshold = 1;
    CompiledProgram compiled = compile(model, copts);

    Process deltaProcess(compiled);
    Process fullProcess(compiled);
    dyncapi::DynCapi deltaDyn(deltaProcess);
    dyncapi::DynCapi fullDyn(fullProcess);

    std::vector<std::string> names;
    for (const AppFunction& fn : model.functions) {
        names.push_back(fn.name);
    }

    support::SplitMix64 rng(GetParam());
    for (std::size_t round = 0; round < kRounds; ++round) {
        // Mid-sequence DSO lifecycle on BOTH processes: close liba at round
        // 10, reopen it at round 20. Reopening re-registers the object with
        // freshly NOP'd sleds, which only an actual-state diff survives.
        if (round == 10) {
            ASSERT_TRUE(deltaProcess.dlcloseDso(0));
            ASSERT_TRUE(fullProcess.dlcloseDso(0));
        }
        if (round == 20) {
            ASSERT_TRUE(deltaProcess.dlopenDso(0));
            ASSERT_TRUE(fullProcess.dlopenDso(0));
        }

        select::InstrumentationConfig ic;
        ic.specName = "round" + std::to_string(round);
        for (const std::string& name : names) {
            if (rng.nextBool(0.4)) {
                ic.addFunction(name);
            }
        }

        dyncapi::DeltaStats delta = deltaDyn.applyIcDelta(ic);
        const std::size_t fullUnavailable =
            referenceApply(fullDyn, select::InstrumentationPolicy::fullOf(ic));
        ASSERT_NO_FATAL_FAILURE(expectSameSledState(deltaProcess, fullProcess))
            << "round " << round;
        ASSERT_EQ(delta.requestedUnavailable, fullUnavailable) << "round " << round;

        // Re-applying the same IC must be a no-op for the delta path.
        dyncapi::DeltaStats again = deltaDyn.applyIcDelta(ic);
        EXPECT_EQ(again.functionsPatched, 0u);
        EXPECT_EQ(again.functionsUnpatched, 0u);
        EXPECT_EQ(again.pagesTouched, 0u);
        EXPECT_EQ(again.functionsUnchanged,
                  delta.functionsPatched + delta.functionsUnchanged);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeltaRepatchProperty,
                         ::testing::Values(1u, 42u, 20230320u, 99991u));

class TieredDeltaRepatchProperty : public ::testing::TestWithParam<std::uint64_t> {
};

/// The tiered generalization: random Full/Sampled/Off policies, including
/// pure tier transitions on an unchanged patch set and a mid-sequence DSO
/// lifecycle. Delta must match referenceApply in sled state AND in the
/// runtime's per-function tier tags.
TEST_P(TieredDeltaRepatchProperty, SequenceMatchesFullRepatchWithTiers) {
    constexpr std::uint32_t kPerObject = 40;
    constexpr std::size_t kRounds = 30;
    AppModel model = patchModel(kPerObject);
    CompileOptions copts;
    copts.xrayThreshold.instructionThreshold = 1;
    CompiledProgram compiled = compile(model, copts);

    Process deltaProcess(compiled);
    Process fullProcess(compiled);
    dyncapi::DynCapi deltaDyn(deltaProcess);
    dyncapi::DynCapi fullDyn(fullProcess);

    std::vector<std::string> names;
    for (const AppFunction& fn : model.functions) {
        names.push_back(fn.name);
    }

    support::SplitMix64 rng(GetParam());
    for (std::size_t round = 0; round < kRounds; ++round) {
        if (round == 10) {
            ASSERT_TRUE(deltaProcess.dlcloseDso(0));
            ASSERT_TRUE(fullProcess.dlcloseDso(0));
        }
        if (round == 20) {
            ASSERT_TRUE(deltaProcess.dlopenDso(0));
            ASSERT_TRUE(fullProcess.dlopenDso(0));
        }

        select::InstrumentationPolicy policy;
        policy.specName = "round" + std::to_string(round);
        for (const std::string& name : names) {
            // ~30% Off, ~35% Full, ~35% Sampled with a varying spec, so
            // consecutive rounds exercise every tier-transition edge
            // (including Sampled->Sampled regate with a different everyN).
            if (rng.nextBool(0.3)) {
                continue;
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

        dyncapi::DeltaStats delta = deltaDyn.applyPolicyDelta(policy);
        const std::size_t fullUnavailable = referenceApply(fullDyn, policy);
        ASSERT_NO_FATAL_FAILURE(expectSameSledState(deltaProcess, fullProcess))
            << "round " << round;
        ASSERT_EQ(deltaProcess.xray().patchedFunctionTiers(),
                  fullProcess.xray().patchedFunctionTiers())
            << "round " << round;
        ASSERT_EQ(delta.requestedUnavailable, fullUnavailable) << "round " << round;

        // Re-applying the same policy must be a complete no-op: no sled
        // flips, no tier retags, no pages.
        dyncapi::DeltaStats again = deltaDyn.applyPolicyDelta(policy);
        EXPECT_EQ(again.functionsPatched, 0u);
        EXPECT_EQ(again.functionsUnpatched, 0u);
        EXPECT_EQ(again.functionsPromoted, 0u);
        EXPECT_EQ(again.functionsDemoted, 0u);
        EXPECT_EQ(again.pagesTouched, 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TieredDeltaRepatchProperty,
                         ::testing::Values(7u, 1234u, 87654321u));

TEST(DeltaRepatch, TierOnlyTransitionTouchesNoPages) {
    AppModel model = patchModel(50);
    CompileOptions copts;
    copts.xrayThreshold.instructionThreshold = 1;
    Process process(compile(model, copts));
    dyncapi::DynCapi dyn(process);

    select::InstrumentationPolicy allFull;
    for (const AppFunction& fn : model.functions) {
        allFull.setRegion(fn.name, {select::Tier::Full, {}});
    }
    dyncapi::InitStats init = dyn.applyPolicy(allFull);
    ASSERT_GT(init.patchedFunctions, 0u);

    // Demote every region: same patch set, different tier — the delta is
    // pure bookkeeping and must not open a single code page.
    select::InstrumentationPolicy allSampled;
    for (const AppFunction& fn : model.functions) {
        allSampled.setRegion(fn.name, {select::Tier::Sampled, {64, 0}});
    }
    dyncapi::DeltaStats demote = dyn.applyPolicyDelta(allSampled);
    EXPECT_EQ(demote.functionsPatched, 0u);
    EXPECT_EQ(demote.functionsUnpatched, 0u);
    EXPECT_EQ(demote.pagesTouched, 0u);
    EXPECT_EQ(demote.functionsDemoted, init.patchedFunctions);
    EXPECT_EQ(demote.functionsPromoted, 0u);

    dyncapi::DeltaStats promote = dyn.applyPolicyDelta(allFull);
    EXPECT_EQ(promote.pagesTouched, 0u);
    EXPECT_EQ(promote.functionsPromoted, init.patchedFunctions);
}

TEST(DeltaRepatch, TouchesOnlyChangedPages) {
    AppModel model = patchModel(200);
    CompileOptions copts;
    copts.xrayThreshold.instructionThreshold = 1;
    Process process(compile(model, copts));
    dyncapi::DynCapi dyn(process);

    select::InstrumentationConfig broad;
    for (const AppFunction& fn : model.functions) {
        broad.addFunction(fn.name);
    }
    dyncapi::InitStats fullStats = dyn.applyIc(broad);
    ASSERT_GT(fullStats.patchedFunctions, 0u);
    ASSERT_GT(fullStats.pagesTouched, 0u);

    // Drop one function: the delta flips one function's sleds, so it can
    // touch at most the pages under those sleds — strictly fewer than the
    // full path, which re-protects every sled page in the process.
    select::InstrumentationConfig narrowed = broad;
    narrowed.functions.erase(narrowed.functions.begin());
    dyncapi::DeltaStats delta = dyn.applyIcDelta(narrowed);
    EXPECT_EQ(delta.functionsUnpatched, 1u);
    EXPECT_EQ(delta.functionsPatched, 0u);
    EXPECT_LE(delta.pagesTouched, 4u);  // one function's sleds, worst case
    EXPECT_LT(delta.pagesTouched, fullStats.pagesTouched);
}

// ------------------------------------------------- indexed patched set --

namespace fault = capi::support::fault;

/// The reference the runtime's patched set must equal: every sledded
/// function of every registered object whose entry cell reads patched
/// (functionPatched reads the first sled's cell), with its tier tag.
std::vector<std::pair<xray::PackedId, std::uint8_t>> cellScan(
    const xray::XRayRuntime& xr) {
    std::vector<std::pair<xray::PackedId, std::uint8_t>> patched;
    for (xray::ObjectId obj = 0; obj <= xray::kMaxObjectId; ++obj) {
        if (!xr.objectRegistered(obj)) {
            continue;
        }
        for (xray::FunctionId fn = 0; fn < xr.functionCount(obj); ++fn) {
            const xray::PackedId pid = xray::packId(obj, fn);
            if (xr.functionPatched(pid)) {
                patched.emplace_back(pid, xr.functionTierTag(pid));
            }
        }
    }
    return patched;
}

class PatchedSetProperty : public ::testing::TestWithParam<std::uint64_t> {
protected:
    void TearDown() override { fault::disarmAll(); }
};

/// Seeded sequences of every operation that writes sleds or tier tags —
/// single-function flips, tiered delta transactions with retiers, whole
/// object and whole process passes, DSO close/re-open (re-registration),
/// and transactions killed mid-flight by an injected MachineFault, which
/// roll back — must leave the indexed patched set equal to the cell scan.
TEST_P(PatchedSetProperty, IndexMatchesCellScanAfterEveryOperation) {
    constexpr std::uint32_t kPerObject = 40;
    constexpr std::size_t kSteps = 120;
    const std::uint64_t seed = GetParam() ^ testutil::envFaultSeed();
    AppModel model = patchModel(kPerObject);
    CompileOptions copts;
    copts.xrayThreshold.instructionThreshold = 1;
    CompiledProgram compiled = compile(model, copts);
    Process process(compiled);
    xray::XRayRuntime& xr = process.xray();

    support::SplitMix64 rng(seed);
    std::vector<bool> open = {true, true};
    auto randomObject = [&]() -> xray::ObjectId {
        const std::size_t pick = rng.nextBelow(3);
        if (pick == 0) {
            return xray::kMainExecutableObjectId;
        }
        // A closed DSO's id is a valid but unregistered target.
        return process.xrayObjectId(static_cast<int>(pick - 1)).value_or(200);
    };
    auto randomFunction = [&] {
        return xray::packId(randomObject(),
                            static_cast<xray::FunctionId>(rng.nextBelow(kPerObject + 2)));
    };
    auto randomTier = [&] {
        return rng.nextBool(0.5) ? xray::XRayRuntime::kFullTier
                                 : xray::XRayRuntime::kSampledTier;
    };
    auto randomTransaction = [&] {
        std::vector<xray::XRayRuntime::TieredFlip> toPatch;
        std::vector<xray::PackedId> toUnpatch;
        std::vector<xray::XRayRuntime::TieredFlip> toRetier;
        for (std::size_t i = rng.nextBelow(30); i > 0; --i) {
            toPatch.push_back({randomFunction(), randomTier()});
        }
        for (std::size_t i = rng.nextBelow(20); i > 0; --i) {
            toUnpatch.push_back(randomFunction());
        }
        for (const auto& [pid, tag] : xr.patchedFunctionTiers()) {
            if (rng.nextBool(0.2)) {
                toRetier.push_back({pid, randomTier()});
            }
        }
        xr.patchDeltaTiered(toPatch, toUnpatch, toRetier);
    };

    std::size_t rollbacks = 0;
    for (std::size_t step = 0; step < kSteps; ++step) {
        switch (rng.nextBelow(8)) {
            case 0:
                xr.patchFunction(randomFunction());
                break;
            case 1:
                xr.unpatchFunction(randomFunction());
                break;
            case 2:
            case 3:
                randomTransaction();
                break;
            case 4: {
                const xray::ObjectId obj = randomObject();
                if (xr.objectRegistered(obj)) {
                    rng.nextBool(0.5) ? xr.patchObject(obj) : xr.unpatchObject(obj);
                } else {
                    rng.nextBool(0.5) ? xr.patchAll() : xr.unpatchAll();
                }
                break;
            }
            case 5: {
                // Close or re-open a DSO; re-opening registers it again with
                // NOP sleds, possibly under another object id.
                const std::size_t dso = rng.nextBelow(2);
                ASSERT_TRUE(open[dso] ? process.dlcloseDso(dso) : process.dlopenDso(dso));
                open[dso] = !open[dso];
                break;
            }
            default: {
                // A transaction whose Nth sled write or mprotect fails: all
                // of it rolls back.
                fault::FaultSpec spec;
                spec.afterHits = rng.nextBelow(40);
                spec.maxFires = 1;
                fault::arm(rng.nextBool(0.7) ? fault::sites::kXraySledWrite
                                             : fault::sites::kXrayMprotect,
                           spec, seed + step);
                try {
                    randomTransaction();
                } catch (const xray::PatchError&) {
                    ++rollbacks;
                }
                fault::disarmAll();
                break;
            }
        }
        const auto reference = cellScan(xr);
        ASSERT_EQ(xr.patchedFunctionTiers(), reference) << "step " << step;
        std::vector<xray::PackedId> ids;
        for (const auto& [pid, tag] : reference) {
            ids.push_back(pid);
        }
        ASSERT_EQ(xr.patchedFunctions(), ids) << "step " << step;
    }
    EXPECT_GT(rollbacks, 0u);  // The fault branch must actually roll back.
}

INSTANTIATE_TEST_SUITE_P(Seeds, PatchedSetProperty,
                         ::testing::Values(1u, 7u, 42u, 2023u));

}  // namespace
