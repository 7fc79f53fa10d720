// Micro-benchmarks of the XRay substrate: packed-ID codec (Fig. 4), sled
// patching throughput, single-function patch latency and sled dispatch.
#include <benchmark/benchmark.h>

#include <algorithm>

#include "xraysim/code_memory.hpp"
#include "xraysim/packed_id.hpp"
#include "xraysim/xray_runtime.hpp"

namespace {

using namespace capi::xray;

void BM_PackedIdRoundTrip(benchmark::State& state) {
    std::uint32_t i = 0;
    for (auto _ : state) {
        PackedId id = packId(i & kMaxObjectId, i & kFunctionIdMask);
        benchmark::DoNotOptimize(objectIdOf(id));
        benchmark::DoNotOptimize(functionIdOf(id));
        ++i;
    }
}
BENCHMARK(BM_PackedIdRoundTrip);

SledTable makeSleds(std::uint32_t functions) {
    SledTable table;
    for (std::uint32_t f = 0; f < functions; ++f) {
        std::uint64_t base = static_cast<std::uint64_t>(f) * 4 * kSledBytes;
        table.sleds.push_back({base, SledKind::FunctionEnter, f});
        table.sleds.push_back({base + 2 * kSledBytes, SledKind::FunctionExit, f});
    }
    return table;
}

/// Code pages made writable per benchmark iteration.
double pagesPerIteration(const CodeMemory& memory, std::uint64_t before,
                         const benchmark::State& state) {
    return static_cast<double>(memory.pagesMadeWritable() - before) /
           static_cast<double>(std::max<benchmark::IterationCount>(state.iterations(), 1));
}

/// Patch-all throughput across object sizes (sleds/second); `pages` counts
/// the pages one patch+unpatch round trip makes writable.
void BM_PatchAll(benchmark::State& state) {
    const auto functions = static_cast<std::uint32_t>(state.range(0));
    CodeMemory memory(static_cast<std::uint64_t>(functions) * 4 * kSledBytes +
                      kPageSize);
    XRayRuntime runtime(memory);
    ObjectRegistration reg;
    reg.name = "bench";
    reg.sledTable = makeSleds(functions);
    runtime.registerMainExecutable(std::move(reg));

    const std::uint64_t pagesBefore = memory.pagesMadeWritable();
    for (auto _ : state) {
        runtime.patchAll();
        runtime.unpatchAll();
    }
    state.SetItemsProcessed(state.iterations() * functions * 2 * 2);
    state.counters["pages"] = pagesPerIteration(memory, pagesBefore, state);
}
BENCHMARK(BM_PatchAll)->Arg(100)->Arg(1000)->Arg(10000)->Arg(100000);

/// Latency of patching one function out of a large object (the applyIc path).
void BM_PatchSingleFunction(benchmark::State& state) {
    const std::uint32_t functions = 50000;
    CodeMemory memory(static_cast<std::uint64_t>(functions) * 4 * kSledBytes +
                      kPageSize);
    XRayRuntime runtime(memory);
    ObjectRegistration reg;
    reg.name = "bench";
    reg.sledTable = makeSleds(functions);
    runtime.registerMainExecutable(std::move(reg));

    std::uint32_t f = 0;
    for (auto _ : state) {
        runtime.patchFunction(packId(0, f % functions));
        runtime.unpatchFunction(packId(0, f % functions));
        f += 37;
    }
}
BENCHMARK(BM_PatchSingleFunction);

void noopHandler(void*, PackedId, XRayEntryType) {}

/// Dispatch cost through a patched sled vs. falling through a NOP sled.
void BM_SledDispatch(benchmark::State& state) {
    const bool patched = state.range(0) != 0;
    CodeMemory memory(1 << 16);
    XRayRuntime runtime(memory);
    ObjectRegistration reg;
    reg.name = "bench";
    reg.sledTable = makeSleds(16);
    runtime.registerMainExecutable(std::move(reg));
    if (patched) {
        runtime.patchAll();
    }
    runtime.setHandler(&noopHandler, nullptr);
    for (auto _ : state) {
        benchmark::DoNotOptimize(runtime.invokeSled(0));
    }
}
BENCHMARK(BM_SledDispatch)->Arg(0)->Arg(1)->ArgNames({"patched"});

/// DSO registration + deregistration round trip (dlopen/dlclose path);
/// `pages` counts the pages the round trip makes writable.
void BM_DsoRegistration(benchmark::State& state) {
    const auto functions = static_cast<std::uint32_t>(state.range(0));
    CodeMemory memory(static_cast<std::uint64_t>(functions) * 8 * kSledBytes +
                      (1 << 20));
    XRayRuntime runtime(memory);
    ObjectRegistration mainReg;
    mainReg.name = "a.out";
    mainReg.sledTable = makeSleds(4);
    runtime.registerMainExecutable(std::move(mainReg));

    const std::uint64_t pagesBefore = memory.pagesMadeWritable();
    for (auto _ : state) {
        ObjectRegistration reg;
        reg.name = "lib.so";
        reg.linkBase = 0;
        reg.loadBase = 1 << 19;
        reg.trampolinesPositionIndependent = true;
        reg.sledTable = makeSleds(functions);
        auto id = runtime.registerDso(std::move(reg));
        runtime.unregisterDso(*id);
    }
    state.counters["pages"] = pagesPerIteration(memory, pagesBefore, state);
}
BENCHMARK(BM_DsoRegistration)->Arg(100)->Arg(10000)->ArgNames({"functions"});

}  // namespace

BENCHMARK_MAIN();
