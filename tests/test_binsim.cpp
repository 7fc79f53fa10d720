// Tests for the simulated toolchain: app models, the compiler (inlining,
// sleds, symbols), the loader/process, nm, and the execution engine.
#include <gtest/gtest.h>

#include "binsim/app_model.hpp"
#include "binsim/compiler.hpp"
#include "binsim/execution_engine.hpp"
#include "binsim/nm.hpp"
#include "binsim/process.hpp"
#include "support/error.hpp"

namespace {

using namespace capi;
using namespace capi::binsim;

/// Small two-DSO test program:
///   main -> driver -> {kernel (exe), libfn (dso0), tiny (auto-inlined),
///                      marked (inline keyword), hiddenFn (dso0, hidden)}
AppModel smallModel() {
    AppModel model;
    model.name = "testapp";
    model.dsos.push_back({"libwork.so"});
    model.dsos.push_back({"libaux.so"});

    auto add = [&](const char* name, int dso, std::uint32_t instr,
                   std::uint32_t loops, bool inl, bool hidden) {
        AppFunction fn;
        fn.name = name;
        fn.prettyName = name;
        fn.unit = std::string(name) + ".cpp";
        fn.dso = dso;
        fn.metrics.numInstructions = instr;
        fn.metrics.loopDepth = loops;
        fn.metrics.numStatements = instr / 4 + 1;
        fn.flags.hasBody = true;
        fn.flags.inlineSpecified = inl;
        fn.flags.hiddenVisibility = hidden;
        fn.workUnits = 4;
        model.functions.push_back(fn);
        return static_cast<std::uint32_t>(model.functions.size() - 1);
    };

    std::uint32_t mainFn = add("main", -1, 100, 0, false, false);
    std::uint32_t driver = add("driver", -1, 80, 0, false, false);
    std::uint32_t kernel = add("kernel", -1, 400, 2, false, false);
    std::uint32_t libfn = add("libfn", 0, 300, 1, false, false);
    std::uint32_t tiny = add("tiny", -1, 8, 0, false, false);      // auto-inlined
    std::uint32_t marked = add("marked", -1, 30, 0, true, false);  // keyword-inlined
    std::uint32_t hiddenFn = add("hiddenFn", 0, 250, 1, false, true);
    std::uint32_t aux = add("aux", 1, 220, 0, false, false);

    model.entry = mainFn;
    auto call = [&](std::uint32_t a, std::uint32_t b, std::uint32_t n = 1) {
        model.functions[a].calls.push_back({b, n});
    };
    call(mainFn, driver, 2);
    call(driver, kernel, 3);
    call(driver, libfn, 1);
    call(kernel, tiny, 5);
    call(kernel, marked, 4);
    call(libfn, hiddenFn, 1);
    call(libfn, aux, 2);
    return model;
}

CompileOptions testCompileOptions() {
    CompileOptions options;
    options.xrayThreshold.instructionThreshold = 1;  // sleds everywhere
    return options;
}

// --------------------------------------------------------------- AppModel --

TEST(AppModel, ToSourceModelGroupsByUnit) {
    AppModel model = smallModel();
    cg::SourceModel source = model.toSourceModel();
    EXPECT_EQ(source.units.size(), 8u);  // one unit per function here
    std::size_t defs = source.definitionCount();
    EXPECT_EQ(defs, 8u);
}

TEST(AppModel, EstimatedDynamicCalls) {
    AppModel model = smallModel();
    // main(1) + driver(2) + kernel(6) + libfn(2) + tiny(30) + marked(24)
    // + hiddenFn(2) + aux(4) = 71
    EXPECT_EQ(model.estimatedDynamicCalls(), 71u);
}

TEST(AppModel, DynamicCycleDetected) {
    AppModel model = smallModel();
    // kernel -> driver closes a cycle.
    model.functions[2].calls.push_back({1, 1});
    EXPECT_THROW(model.estimatedDynamicCalls(), support::Error);
}

TEST(AppModel, IndexOfThrowsOnUnknown) {
    AppModel model = smallModel();
    EXPECT_EQ(model.indexOf("kernel"), 2u);
    EXPECT_THROW(model.indexOf("ghost"), support::Error);
}

// --------------------------------------------------------------- compiler --

TEST(Compiler, InliningDecisions) {
    CompiledProgram program = compile(smallModel(), testCompileOptions());
    const AppModel& m = program.model;
    EXPECT_FALSE(program.inlinedAway[m.indexOf("main")]);
    EXPECT_FALSE(program.inlinedAway[m.indexOf("kernel")]);
    EXPECT_TRUE(program.inlinedAway[m.indexOf("tiny")]);    // small static
    EXPECT_TRUE(program.inlinedAway[m.indexOf("marked")]);  // inline keyword
}

TEST(Compiler, InlinedFunctionsHaveNoSymbolByDefault) {
    CompiledProgram program = compile(smallModel(), testCompileOptions());
    std::vector<NmEntry> symbols = nmDump(program.executable);
    auto find = [&](const std::string& name) {
        for (const NmEntry& s : symbols) {
            if (s.name == name) return true;
        }
        return false;
    };
    EXPECT_TRUE(find("main"));
    EXPECT_TRUE(find("kernel"));
    EXPECT_FALSE(find("tiny"));
    EXPECT_FALSE(find("marked"));
}

TEST(Compiler, RetainedInlineSymbolPeriod) {
    CompileOptions options = testCompileOptions();
    options.retainedInlineSymbolPeriod = 2;  // every 2nd inlined keeps a symbol
    CompiledProgram program = compile(smallModel(), options);
    std::vector<NmEntry> symbols = nmDump(program.executable);
    std::size_t retained = 0;
    for (const NmEntry& s : symbols) {
        if (s.name == "tiny" || s.name == "marked") ++retained;
    }
    EXPECT_EQ(retained, 1u);
}

TEST(Compiler, SledsFollowThreshold) {
    CompileOptions options = testCompileOptions();
    options.xrayThreshold.instructionThreshold = 250;
    CompiledProgram program = compile(smallModel(), options);
    const AppModel& m = program.model;
    // kernel: 400 instructions -> sleds. driver: 80, no loop -> no sleds.
    // libfn: 300 -> sleds (in DSO 0). hiddenFn: 250 -> sleds.
    EXPECT_TRUE(program.compiledOf(m.indexOf("kernel"))->hasSleds);
    EXPECT_FALSE(program.compiledOf(m.indexOf("driver"))->hasSleds);
    EXPECT_TRUE(program.compiledOf(m.indexOf("libfn"))->hasSleds);
    // Local IDs are dense over sledded functions only: with a threshold of
    // 250 and no loop, main (100 instr) is skipped too, leaving kernel alone.
    EXPECT_EQ(program.executable.sledTable.functionCount(), 1u);
}

TEST(Compiler, VanillaBuildHasNoSleds) {
    CompileOptions options = testCompileOptions();
    options.xrayInstrument = false;
    CompiledProgram program = compile(smallModel(), options);
    EXPECT_TRUE(program.executable.sledTable.empty());
    EXPECT_TRUE(program.dsos[0].sledTable.empty());
}

TEST(Compiler, HiddenSymbolsStayInImageButNotInNm) {
    CompiledProgram program = compile(smallModel(), testCompileOptions());
    const ObjectImage& libwork = program.dsos[0];
    EXPECT_EQ(hiddenSymbolCount(libwork), 1u);
    for (const NmEntry& s : nmDump(libwork)) {
        EXPECT_NE(s.name, "hiddenFn");
    }
}

TEST(Nm, AddressCursorMatchesTheDumpInAnyQueryOrder) {
    // A hand-made image: two names at one address (the hidden one first),
    // a hidden-only address, and a gap.
    ObjectImage image;
    image.symbols = {{"a", 0x10, 8, false},     {"hiddenB", 0x20, 8, true},
                     {"aliasB", 0x20, 8, false}, {"laterB", 0x20, 8, false},
                     {"hiddenC", 0x30, 8, true}, {"d", 0x50, 8, false}};
    auto reference = [&](std::uint64_t address) -> std::string {
        for (const NmEntry& s : nmDump(image)) {
            if (s.address == address) return s.name;
        }
        return "";
    };
    const std::vector<std::uint64_t> queries = {0x10, 0x20, 0x20, 0x30, 0x40, 0x50,
                                                0x60, 0x20, 0x08, 0x50, 0x10};
    NmAddressCursor cursor(image);
    for (std::uint64_t address : queries) {
        const Symbol* symbol = cursor.find(address);
        EXPECT_EQ(symbol != nullptr ? symbol->name : "", reference(address))
            << std::hex << address;
    }
}

TEST(Compiler, RebuildCostScalesWithUnits) {
    CompileOptions options = testCompileOptions();
    options.secondsPerTranslationUnit = 2.0;
    CompiledProgram program = compile(smallModel(), options);
    EXPECT_DOUBLE_EQ(program.fullRebuildSeconds, 16.0);  // 8 units x 2s
}

TEST(Compiler, FunctionsPartitionedIntoObjects) {
    CompiledProgram program = compile(smallModel(), testCompileOptions());
    EXPECT_EQ(program.dsos.size(), 2u);
    const AppModel& m = program.model;
    EXPECT_EQ(program.objectOf(m.indexOf("libfn")), &program.dsos[0]);
    EXPECT_EQ(program.objectOf(m.indexOf("aux")), &program.dsos[1]);
    EXPECT_EQ(program.objectOf(m.indexOf("main")), &program.executable);
    EXPECT_EQ(program.objectOf(m.indexOf("tiny")), nullptr);  // inlined away
}

// ---------------------------------------------------------------- process --

TEST(Process, LoaderRelocatesDsosAndRegistersThem) {
    Process process(compile(smallModel(), testCompileOptions()));
    std::vector<MapEntry> map = process.memoryMap();
    ASSERT_EQ(map.size(), 3u);
    EXPECT_TRUE(map[0].isMainExecutable);
    // DSOs linked at 0 but loaded elsewhere -> relocation happened.
    EXPECT_GT(map[1].loadBase, map[0].loadBase);
    EXPECT_GT(map[2].loadBase, map[1].loadBase);
    EXPECT_EQ(process.xray().registeredObjectCount(), 3u);
}

TEST(Process, PackedIdRoundTrip) {
    Process process(compile(smallModel(), testCompileOptions()));
    std::uint32_t libfn = process.program().model.indexOf("libfn");
    auto pid = process.packedIdOf(libfn);
    ASSERT_TRUE(pid.has_value());
    EXPECT_EQ(xray::objectIdOf(*pid), 1u);  // first registered DSO
    auto back = process.modelIndexOf(*pid);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, libfn);
}

TEST(Process, InlinedFunctionHasNoPackedId) {
    Process process(compile(smallModel(), testCompileOptions()));
    EXPECT_FALSE(
        process.packedIdOf(process.program().model.indexOf("tiny")).has_value());
}

TEST(Process, DlcloseUnregistersAndDlopenRestores) {
    Process process(compile(smallModel(), testCompileOptions()));
    std::uint32_t libfn = process.program().model.indexOf("libfn");
    ASSERT_TRUE(process.packedIdOf(libfn).has_value());

    EXPECT_TRUE(process.dlcloseDso(0));
    EXPECT_FALSE(process.packedIdOf(libfn).has_value());
    EXPECT_EQ(process.xray().registeredObjectCount(), 2u);
    EXPECT_FALSE(process.dlcloseDso(0));  // already closed

    EXPECT_TRUE(process.dlopenDso(0));
    EXPECT_TRUE(process.packedIdOf(libfn).has_value());
    EXPECT_EQ(process.xray().registeredObjectCount(), 3u);
}

// ------------------------------------------------------- execution engine --

TEST(Engine, ExecutesFullDynamicCallTree) {
    Process process(compile(smallModel(), testCompileOptions()));
    ExecutionEngine engine(process);
    RunStats stats = engine.run();
    EXPECT_EQ(stats.dynamicCalls, 71u);
    EXPECT_EQ(stats.sledHits, 0u);  // nothing patched
    EXPECT_GT(stats.wallSeconds, 0.0);
}

TEST(Engine, PatchedFunctionsFireEntryAndExit) {
    Process process(compile(smallModel(), testCompileOptions()));
    std::uint32_t kernel = process.program().model.indexOf("kernel");
    process.xray().patchFunction(*process.packedIdOf(kernel));

    ExecutionEngine engine(process);
    RunStats stats = engine.run();
    // kernel executes 6 times -> 12 sled dispatches.
    EXPECT_EQ(stats.sledHits, 12u);
}

TEST(Engine, InlinedFunctionsProduceNoEvents) {
    Process process(compile(smallModel(), testCompileOptions()));
    process.xray().patchAll();
    ExecutionEngine engine(process);
    RunStats stats = engine.run();
    // All 6 emitted+sledded functions dispatch; tiny and marked are inlined
    // and silent: main(1)+driver(2)+kernel(6)+libfn(2)+hiddenFn(2)+aux(4)=17
    // calls -> 34 events.
    EXPECT_EQ(stats.sledHits, 34u);
}

TEST(Engine, CallBudgetGuard) {
    EngineOptions options;
    options.maxDynamicCalls = 10;
    Process process(compile(smallModel(), testCompileOptions()));
    ExecutionEngine engine(process, options);
    EXPECT_THROW(engine.run(), support::Error);
}

TEST(Engine, VirtualTimeAdvancesWithImbalance) {
    AppModel model = smallModel();
    std::uint32_t kernel = model.indexOf("kernel");
    model.functions[kernel].workVirtualNs = 1000.0;
    model.functions[kernel].imbalanceSlope = 0.5;
    Process process(compile(model, testCompileOptions()));
    ExecutionEngine engine(process);

    RunStats rank0 = engine.run(0, 2);
    RunStats rank1 = engine.run(1, 2);
    // kernel runs 6x: rank0 6000ns, rank1 6000*1.5=9000ns.
    EXPECT_DOUBLE_EQ(rank0.virtualNs, 6000.0);
    EXPECT_DOUBLE_EQ(rank1.virtualNs, 9000.0);
}

TEST(Engine, CurrentRankStateVisibleToHandlers) {
    Process process(compile(smallModel(), testCompileOptions()));
    process.xray().patchAll();

    static int observedRank = -1;
    process.xray().setHandler(
        [](void*, xray::PackedId, xray::XRayEntryType) {
            if (RankState* state = currentRankState()) {
                observedRank = state->rank;
            }
        },
        nullptr);
    ExecutionEngine engine(process);
    engine.run(3, 4);
    EXPECT_EQ(observedRank, 3);
    EXPECT_EQ(currentRankState(), nullptr);  // cleared after run
}

}  // namespace
