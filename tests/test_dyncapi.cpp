// Tests for DynCaPI: fid<->name resolution (hidden symbols), IC-driven
// patching, runtime re-patching, the static-ID extension, measurement
// backends and the process symbol oracle.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "apps/openfoam.hpp"
#include "binsim/compiler.hpp"
#include "binsim/nm.hpp"
#include "binsim/execution_engine.hpp"
#include "binsim/process.hpp"
#include "cg/metacg_builder.hpp"
#include "dyncapi/dyncapi.hpp"
#include "dyncapi/mpi_port.hpp"
#include "dyncapi/process_symbol_oracle.hpp"
#include "mpisim/mpi_world.hpp"
#include "scorepsim/cyg_adapter.hpp"
#include "talpsim/talp.hpp"
#include "test_util.hpp"

namespace {

using namespace capi;
using namespace capi::binsim;

/// Executable + one DSO, with a hidden DSO function and an inlined function.
AppModel testModel() {
    AppModel model;
    model.name = "dyntest";
    model.dsos.push_back({"libsolve.so"});
    auto add = [&](const char* name, int dso, std::uint32_t instr, bool hidden,
                   MpiOp op = MpiOp::None) {
        AppFunction fn;
        fn.name = name;
        fn.prettyName = name;
        fn.unit = std::string(name) + ".cpp";
        fn.dso = dso;
        fn.metrics.numInstructions = instr;
        fn.metrics.numStatements = instr / 4 + 1;
        fn.flags.hasBody = true;
        fn.flags.hiddenVisibility = hidden;
        fn.workUnits = 3;
        fn.mpiOp = op;
        model.functions.push_back(fn);
        return static_cast<std::uint32_t>(model.functions.size() - 1);
    };
    std::uint32_t mainFn = add("main", -1, 120, false);
    std::uint32_t mpiInit = add("MPI_Init", -1, 0, false, MpiOp::Init);
    model.functions[mpiInit].flags.hasBody = false;
    std::uint32_t solve = add("solve", 0, 200, false);
    std::uint32_t amul = add("Amul", 0, 300, false);
    std::uint32_t hiddenInit = add("_GLOBAL__sub_I_solve", 0, 80, true);
    std::uint32_t tiny = add("tinyWrapper", -1, 6, false);  // auto-inlined
    std::uint32_t mpiFin = add("MPI_Finalize", -1, 0, false, MpiOp::Finalize);
    model.functions[mpiFin].flags.hasBody = false;
    model.entry = mainFn;

    auto call = [&](std::uint32_t a, std::uint32_t b, std::uint32_t n = 1) {
        model.functions[a].calls.push_back({b, n});
    };
    call(mainFn, mpiInit);
    call(mainFn, tiny, 2);
    call(tiny, solve, 1);
    call(solve, amul, 4);
    call(mainFn, mpiFin);
    (void)hiddenInit;
    return model;
}

CompileOptions lowThreshold() {
    CompileOptions options;
    options.xrayThreshold.instructionThreshold = 1;
    return options;
}

TEST(DynCapi, ResolutionFindsVisibleAndCountsHidden) {
    Process process(compile(testModel(), lowThreshold()));
    dyncapi::DynCapi dyn(process);

    EXPECT_EQ(dyn.unresolvableFunctionCount(), 1u);  // the hidden initializer
    EXPECT_TRUE(dyn.resolveName("main").has_value());
    EXPECT_TRUE(dyn.resolveName("solve").has_value());
    EXPECT_TRUE(dyn.resolveName("Amul").has_value());
    EXPECT_FALSE(dyn.resolveName("_GLOBAL__sub_I_solve").has_value());
    EXPECT_FALSE(dyn.resolveName("tinyWrapper").has_value());  // inlined away

    // DSO functions resolve to object 1.
    EXPECT_EQ(xray::objectIdOf(*dyn.resolveName("Amul")), 1u);
    EXPECT_EQ(dyn.nameOf(*dyn.resolveName("Amul")).value_or(""), "Amul");
}

TEST(DynCapi, ApplyIcPatchesExactlyTheSelection) {
    Process process(compile(testModel(), lowThreshold()));
    dyncapi::DynCapi dyn(process);

    select::InstrumentationConfig ic;
    ic.addFunction("Amul");
    ic.addFunction("solve");
    ic.addFunction("tinyWrapper");  // inlined: unavailable

    dyncapi::InitStats stats = dyn.applyIc(ic);
    EXPECT_EQ(stats.requestedFunctions, 3u);
    EXPECT_EQ(stats.patchedFunctions, 2u);
    EXPECT_EQ(stats.requestedUnavailable, 1u);
    EXPECT_GT(stats.totalSeconds, 0.0);

    xray::XRayRuntime& xr = process.xray();
    EXPECT_TRUE(xr.functionPatched(*dyn.resolveName("Amul")));
    EXPECT_TRUE(xr.functionPatched(*dyn.resolveName("solve")));
    EXPECT_FALSE(xr.functionPatched(*dyn.resolveName("main")));
}

TEST(DynCapi, RepatchingSwapsConfigurationsWithoutRebuild) {
    Process process(compile(testModel(), lowThreshold()));
    dyncapi::DynCapi dyn(process);

    select::InstrumentationConfig icA;
    icA.addFunction("Amul");
    dyn.applyIc(icA);
    EXPECT_TRUE(process.xray().functionPatched(*dyn.resolveName("Amul")));
    EXPECT_FALSE(process.xray().functionPatched(*dyn.resolveName("solve")));

    select::InstrumentationConfig icB;
    icB.addFunction("solve");
    dyn.applyIc(icB);  // runtime-adaptable: no recompilation
    EXPECT_FALSE(process.xray().functionPatched(*dyn.resolveName("Amul")));
    EXPECT_TRUE(process.xray().functionPatched(*dyn.resolveName("solve")));
}

TEST(DynCapi, StaticIdExtensionReachesHiddenSymbols) {
    Process process(compile(testModel(), lowThreshold()));
    dyncapi::DynCapi dyn(process);

    // Determine the hidden function's packed id via the process (the
    // offline path that would compute static IDs at selection time).
    std::uint32_t hidden =
        process.program().model.indexOf("_GLOBAL__sub_I_solve");
    auto pid = process.packedIdOf(hidden);
    ASSERT_TRUE(pid.has_value());

    select::InstrumentationConfig ic;
    ic.addFunction("_GLOBAL__sub_I_solve");
    ic.staticIds["_GLOBAL__sub_I_solve"] = *pid;

    dyncapi::InitStats stats = dyn.applyIc(ic);
    EXPECT_EQ(stats.patchedFunctions, 1u);  // patched despite being hidden
    EXPECT_TRUE(process.xray().functionPatched(*pid));
}

TEST(DynCapi, DeltaKeepsTheLastTierOfAPidNamedTwice) {
    // "alias" reaches Amul's packed id through a static ID; it sorts after
    // "Amul", so its tier is the one the delta applies.
    for (select::Tier last : {select::Tier::Full, select::Tier::Sampled}) {
        Process process(compile(testModel(), lowThreshold()));
        dyncapi::DynCapi dyn(process);
        const xray::PackedId amul = *dyn.resolveName("Amul");
        select::InstrumentationPolicy policy;
        policy.setRegion("Amul", {last == select::Tier::Full ? select::Tier::Sampled
                                                             : select::Tier::Full,
                                  {8, 0}});
        policy.setRegion("alias", {last, {8, 0}});
        policy.staticIds["alias"] = amul;

        dyncapi::DeltaStats stats = dyn.applyPolicyDelta(policy);
        EXPECT_EQ(stats.functionsPatched, 1u);
        EXPECT_EQ(stats.requestedUnavailable, 0u);
        EXPECT_TRUE(process.xray().functionPatched(amul));
        EXPECT_EQ(process.xray().functionTierTag(amul),
                  last == select::Tier::Sampled ? xray::XRayRuntime::kSampledTier
                                                : xray::XRayRuntime::kFullTier);
    }
}

TEST(DynCapi, EveryApplyKeepsTheLastTierOfAPidNamedTwice) {
    // Amul at Sampled, then "alias" -> Amul's packed id at Full: the last
    // entry in policy order sets the tier on every apply path — the full
    // entry point, a delta over its result, and a delta on a fresh twin.
    const CompiledProgram program = compile(testModel(), lowThreshold());
    Process process(program);
    Process twin(program);
    dyncapi::DynCapi dyn(process);
    dyncapi::DynCapi twinDyn(twin);
    const xray::PackedId amul = *dyn.resolveName("Amul");
    select::InstrumentationPolicy policy;
    policy.setRegion("Amul", {select::Tier::Sampled, {8, 0}});
    policy.setRegion("alias", {select::Tier::Full, {}});
    policy.staticIds["alias"] = amul;

    // With a Score-P backend on each, the gate follows the winning tier
    // too: Amul's is not armed, since its pid ended Full.
    scorep::Measurement measurement;
    scorep::Measurement twinMeasurement;
    scorep::CygProfileAdapter adapter(
        measurement, scorep::SymbolResolver::withSymbolInjection(process));
    scorep::CygProfileAdapter twinAdapter(
        twinMeasurement, scorep::SymbolResolver::withSymbolInjection(twin));
    dyn.attachCygHandler(adapter);
    twinDyn.attachCygHandler(twinAdapter);

    dyncapi::InitStats init = dyn.applyPolicy(policy);
    EXPECT_EQ(init.patchedFunctions, 1u);
    EXPECT_EQ(process.xray().functionTierTag(amul), xray::XRayRuntime::kFullTier);
    testutil::expectGatesFollowTiers(dyn, process.xray(), measurement, policy);

    dyncapi::DeltaStats again = dyn.applyPolicyDelta(policy);
    EXPECT_EQ(again.functionsUnchanged, 1u);
    EXPECT_EQ(process.xray().functionTierTag(amul), xray::XRayRuntime::kFullTier);
    testutil::expectGatesFollowTiers(dyn, process.xray(), measurement, policy);

    twinDyn.applyPolicyDelta(policy);
    EXPECT_EQ(twin.xray().functionTierTag(amul), xray::XRayRuntime::kFullTier);
    EXPECT_EQ(process.xray().patchedFunctionTiers(), twin.xray().patchedFunctionTiers());
    testutil::expectGatesFollowTiers(twinDyn, twin.xray(), twinMeasurement, policy);

    // The reverse order ("Aalias" sorts first, so Amul's Sampled entry is
    // the last) arms the gate with Amul's spec.
    select::InstrumentationPolicy reversed;
    reversed.setRegion("Amul", {select::Tier::Sampled, {8, 0}});
    reversed.setRegion("Aalias", {select::Tier::Full, {}});
    reversed.staticIds["Aalias"] = amul;
    dyn.applyPolicyDelta(reversed);
    EXPECT_EQ(process.xray().functionTierTag(amul), xray::XRayRuntime::kSampledTier);
    testutil::expectGatesFollowTiers(dyn, process.xray(), measurement, reversed);
}

TEST(DynCapi, AnApplyWritesOnlyTheGatesThatChanged) {
    Process process(compile(testModel(), lowThreshold()));
    dyncapi::DynCapi dyn(process);
    scorep::Measurement measurement;
    scorep::CygProfileAdapter adapter(
        measurement, scorep::SymbolResolver::withSymbolInjection(process));
    dyn.attachCygHandler(adapter);
    const scorep::RegionHandle amul = measurement.defineRegion("Amul");
    const scorep::RegionHandle solve = measurement.defineRegion("solve");
    select::InstrumentationPolicy policy;
    policy.setRegion("Amul", {select::Tier::Sampled, {8, 0}});
    policy.setRegion("solve", {select::Tier::Sampled, {64, 0}});
    dyn.applyPolicy(policy);
    EXPECT_EQ(measurement.regionSampling(amul).first, 8u);
    EXPECT_EQ(measurement.regionSampling(solve).first, 64u);

    // Mark both gates behind DynCapi's back: an apply that changes nothing
    // writes no gate, so the marks survive it.
    measurement.clearRegionSampling(amul);
    measurement.clearRegionSampling(solve);
    dyn.applyPolicyDelta(policy);
    EXPECT_EQ(measurement.regionSampling(amul).first, 1u);
    EXPECT_EQ(measurement.regionSampling(solve).first, 1u);

    // A new spec for Amul rewrites Amul's gate only.
    policy.setRegion("Amul", {select::Tier::Sampled, {16, 0}});
    dyn.applyPolicyDelta(policy);
    EXPECT_EQ(measurement.regionSampling(amul).first, 16u);
    EXPECT_EQ(measurement.regionSampling(solve).first, 1u);

    // A fresh measurement gets the whole list armed on attach.
    scorep::Measurement next;
    scorep::CygProfileAdapter nextAdapter(
        next, scorep::SymbolResolver::withSymbolInjection(process));
    dyn.attachCygHandler(nextAdapter);
    testutil::expectGatesFollowTiers(dyn, process.xray(), next, policy);
    EXPECT_EQ(next.regionSampling(next.defineRegion("solve")).first, 64u);
}

TEST(DynCapi, PatchAllMatchesSleddedCount) {
    // From a fresh process, and after a policy left Amul Sampled (1 in 8)
    // with a Score-P backend attached: patchAll ends every tier Full and
    // clears the gate.
    for (bool sampledFirst : {false, true}) {
        SCOPED_TRACE(sampledFirst ? "after a Sampled policy" : "fresh");
        Process process(compile(testModel(), lowThreshold()));
        dyncapi::DynCapi dyn(process);
        scorep::Measurement measurement;
        scorep::CygProfileAdapter adapter(
            measurement, scorep::SymbolResolver::withSymbolInjection(process));
        dyn.attachCygHandler(adapter);
        const xray::PackedId amul = *dyn.resolveName("Amul");
        const scorep::RegionHandle amulRegion = measurement.defineRegion("Amul");
        if (sampledFirst) {
            select::InstrumentationPolicy policy;
            policy.setRegion("Amul", {select::Tier::Sampled, {8, 0}});
            dyn.applyPolicy(policy);
            ASSERT_EQ(process.xray().functionTierTag(amul), xray::XRayRuntime::kSampledTier);
            ASSERT_EQ(measurement.regionSampling(amulRegion).first, 8u);
        }

        dyncapi::InitStats stats = dyn.patchAll();
        // main, solve, Amul, hidden initializer have sleds (tiny inlined away).
        EXPECT_EQ(stats.patchedFunctions, 4u);
        EXPECT_EQ(stats.requestedFunctions, 4u);
        EXPECT_EQ(process.xray().patchedSledCount(), 8u);
        EXPECT_EQ(process.xray().functionTierTag(amul), xray::XRayRuntime::kFullTier);
        EXPECT_EQ(measurement.regionSampling(amulRegion),
                  (std::pair<std::uint32_t, std::uint64_t>{1, 0}));
    }
}

TEST(DynCapi, CygBackendProducesProfile) {
    Process process(compile(testModel(), lowThreshold()));
    dyncapi::DynCapi dyn(process);

    select::InstrumentationConfig ic;
    ic.addFunction("solve");
    ic.addFunction("Amul");
    dyn.applyIc(ic);

    scorep::Measurement measurement;
    scorep::CygProfileAdapter adapter(
        measurement, scorep::SymbolResolver::withSymbolInjection(process));
    dyn.attachCygHandler(adapter);

    ExecutionEngine engine(process);
    RunStats stats = engine.run();
    // solve called 2x, Amul 4x per solve -> 8x: 20 events.
    EXPECT_EQ(stats.sledHits, 20u);

    scorep::ProfileTree profile = measurement.mergedProfile();
    EXPECT_EQ(profile.totalVisits(measurement.defineRegion("solve")), 2u);
    EXPECT_EQ(profile.totalVisits(measurement.defineRegion("Amul")), 8u);
    EXPECT_EQ(adapter.droppedEvents(), 0u);
}

TEST(DynCapi, TalpBackendRecordsRegionsAndPreInitFailures) {
    Process process(compile(testModel(), lowThreshold()));
    dyncapi::DynCapi dyn(process);

    select::InstrumentationConfig ic;
    ic.addFunction("main");   // entered before MPI_Init -> cannot register
    ic.addFunction("solve");
    ic.addFunction("Amul");
    dyn.applyIc(ic);

    mpi::MpiWorld world(2);
    talp::TalpRuntime talp(world);
    dyn.attachTalpHandler(talp);

    dyncapi::WorldMpiPort port(world);
    mpi::runRanks(world, [&](int rank) {
        ExecutionEngine engine(process);
        engine.setMpiPort(&port);
        engine.run(rank, world.worldSize());
    });

    // main's region failed to register (entered before MPI_Init), so only
    // solve and Amul (plus the implicit global region) are recorded.
    EXPECT_GE(dyn.talpFailedRegistrations(), 1u);
    EXPECT_TRUE(talp.metrics("solve").has_value());
    EXPECT_TRUE(talp.metrics("Amul").has_value());
    EXPECT_FALSE(talp.metrics("main").has_value());
    auto amul = talp.metrics("Amul");
    EXPECT_EQ(amul->ranks, 2);
    EXPECT_EQ(amul->visits, 16u);  // 8 per rank
}

/// Execution-scale OpenFOAM (executable plus six DSOs, hidden initializers)
/// with one more function: a copy of a sledded executable function under
/// the same name in the first DSO, so that name is defined twice.
AppModel openFoamWithDuplicateName(std::string& duplicate) {
    apps::OpenFoamParams params = apps::OpenFoamParams::executionScale();
    params.seed = 8;
    AppModel model = apps::makeOpenFoam(params);
    for (std::uint32_t i = 0; i < model.functions.size(); ++i) {
        const AppFunction& fn = model.functions[i];
        if (fn.dso < 0 && i != model.entry && fn.flags.hasBody &&
            !fn.flags.hiddenVisibility && !fn.flags.inlineSpecified &&
            fn.metrics.numInstructions > 100) {
            AppFunction copy = fn;
            copy.dso = 0;
            copy.calls.clear();
            duplicate = copy.name;
            model.functions.push_back(std::move(copy));
            break;
        }
    }
    return model;
}

TEST(DynCapi, FlatResolutionMatchesNmReference) {
    std::string duplicate;
    Process process(compile(openFoamWithDuplicateName(duplicate), lowThreshold()));
    ASSERT_FALSE(duplicate.empty());
    dyncapi::DynCapi dyn(process);

    // Reference, resolved the way nm-based resolution always worked: a
    // copied dump per object, keyed by translated address, and a name map
    // in which the first object to define a name wins.
    xray::XRayRuntime& xr = process.xray();
    const CompiledProgram& program = process.program();
    std::vector<std::pair<xray::ObjectId, const ObjectImage*>> objects = {
        {xray::kMainExecutableObjectId, &program.executable}};
    for (std::size_t d = 0; d < program.dsos.size(); ++d) {
        std::optional<xray::ObjectId> id = process.xrayObjectId(static_cast<int>(d));
        if (id.has_value() && xr.objectRegistered(*id)) {
            objects.emplace_back(*id, &program.dsos[d]);
        }
    }
    ASSERT_GT(objects.size(), 1u);
    std::unordered_map<std::string, xray::PackedId> packedByName;
    std::vector<std::pair<xray::PackedId, std::optional<std::string>>> sledded;
    std::size_t unresolvable = 0;
    std::size_t duplicateDefinitions = 0;
    for (const auto& [objectId, image] : objects) {
        std::unordered_map<std::uint64_t, std::string> byAddress;
        for (const NmEntry& symbol : nmDump(*image)) {
            byAddress.emplace(symbol.address + image->loadBase - image->linkBase,
                              symbol.name);
        }
        for (std::uint32_t fid = 0; fid < xr.functionCount(objectId); ++fid) {
            const xray::PackedId pid = xray::packId(objectId, fid);
            const std::uint64_t address = xr.functionAddress(pid);
            if (address == 0) {
                continue;
            }
            auto it = byAddress.find(address);
            if (it == byAddress.end()) {
                ++unresolvable;
                sledded.emplace_back(pid, std::nullopt);
                continue;
            }
            sledded.emplace_back(pid, it->second);
            packedByName.emplace(it->second, pid);
            duplicateDefinitions += it->second == duplicate;
        }
    }
    ASSERT_EQ(duplicateDefinitions, 2u);
    EXPECT_EQ(xray::objectIdOf(packedByName.at(duplicate)),
              xray::kMainExecutableObjectId);
    EXPECT_GT(unresolvable, 0u);

    EXPECT_EQ(dyn.sleddedFunctionCount(), sledded.size());
    EXPECT_EQ(dyn.unresolvableFunctionCount(), unresolvable);
    for (const auto& [pid, name] : sledded) {
        std::optional<std::string_view> resolved = dyn.nameOf(pid);
        ASSERT_EQ(resolved.has_value(), name.has_value()) << pid;
        if (name.has_value()) {
            EXPECT_EQ(*resolved, *name) << pid;
            EXPECT_EQ(dyn.resolveName(*name), packedByName.at(*name)) << *name;
        }
    }
    EXPECT_FALSE(dyn.resolveName("no_such_function").has_value());
}

TEST(ProcessSymbolOracle, AgreesWithAnNmNameSet) {
    std::string duplicate;
    const AppModel model = openFoamWithDuplicateName(duplicate);
    const CompiledProgram program = compile(model, lowThreshold());
    dyncapi::ProcessSymbolOracle oracle(program);

    std::unordered_set<std::string> reference;
    for (const NmEntry& symbol : nmDump(program.executable)) {
        reference.insert(symbol.name);
    }
    for (const ObjectImage& dso : program.dsos) {
        for (const NmEntry& symbol : nmDump(dso)) {
            reference.insert(symbol.name);
        }
    }
    EXPECT_EQ(oracle.size(), reference.size());

    const cg::CallGraph graph = cg::MetaCgBuilder{}.build(model.toSourceModel());
    std::size_t present = 0;
    for (cg::FunctionId id = 0; id < graph.size(); ++id) {
        const std::string& name = graph.name(id);
        EXPECT_EQ(oracle.hasSymbol(name), reference.contains(name)) << name;
        present += reference.contains(name);
    }
    EXPECT_GT(present, 0u);
    EXPECT_LT(present, graph.size());  // Hidden and inlined names are absent.
    for (int i = 0; i < 1000; ++i) {
        const std::string absent = "_ZN6absent" + std::to_string(i) + "Ev";
        EXPECT_FALSE(oracle.hasSymbol(absent)) << absent;
    }
}

TEST(ProcessSymbolOracle, ReflectsNmVisibility) {
    CompiledProgram program = compile(testModel(), lowThreshold());
    dyncapi::ProcessSymbolOracle oracle(program);
    EXPECT_TRUE(oracle.hasSymbol("main"));
    EXPECT_TRUE(oracle.hasSymbol("Amul"));
    EXPECT_FALSE(oracle.hasSymbol("tinyWrapper"));          // inlined away
    EXPECT_FALSE(oracle.hasSymbol("_GLOBAL__sub_I_solve")); // hidden
    EXPECT_FALSE(oracle.hasSymbol("ghost"));
}

}  // namespace
