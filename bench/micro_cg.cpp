// Micro-benchmarks of the MetaCG substrate: local construction, whole-program
// merge, MetaCG text read/write throughput (in memory and from a file), name
// lookup, and Node-vs-CSR adjacency traversal (the data-layout win every
// selector rides on).
#include <benchmark/benchmark.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "apps/lulesh.hpp"
#include "apps/openfoam.hpp"
#include "bench_util.hpp"
#include "cg/csr_view.hpp"
#include "cg/metacg_builder.hpp"
#include "cg/metacg_json.hpp"
#include "support/rng.hpp"

namespace {

using namespace capi;
using bench::scaledOpenFoamGraph;

binsim::AppModel modelOfSize(std::uint32_t nodes) {
    apps::OpenFoamParams params;
    params.targetNodes = nodes;
    return apps::makeOpenFoam(params);
}

void BM_BuildWholeProgramCg(benchmark::State& state) {
    binsim::AppModel model = modelOfSize(static_cast<std::uint32_t>(state.range(0)));
    cg::SourceModel source = model.toSourceModel();
    for (auto _ : state) {
        cg::MetaCgBuilder builder;
        cg::CallGraph graph = builder.build(source);
        benchmark::DoNotOptimize(graph.size());
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BuildWholeProgramCg)->Arg(10000)->Arg(50000);

void BM_MetaCgWrite(benchmark::State& state) {
    binsim::AppModel model = modelOfSize(static_cast<std::uint32_t>(state.range(0)));
    cg::MetaCgBuilder builder;
    cg::CallGraph graph = builder.build(model.toSourceModel());
    for (auto _ : state) {
        std::string text = cg::writeMetaCg(graph);
        benchmark::DoNotOptimize(text.data());
        benchmark::ClobberMemory();
        state.counters["bytes"] = static_cast<double>(text.size());
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MetaCgWrite)->Arg(10000)->Arg(50000);

void BM_MetaCgRead(benchmark::State& state) {
    binsim::AppModel model = modelOfSize(static_cast<std::uint32_t>(state.range(0)));
    cg::MetaCgBuilder builder;
    cg::CallGraph graph = builder.build(model.toSourceModel());
    std::string text = cg::writeMetaCg(graph);
    for (auto _ : state) {
        cg::CallGraph parsed = cg::readMetaCg(text);
        benchmark::DoNotOptimize(parsed.size());
    }
    state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(text.size()));
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MetaCgRead)->Arg(10000)->Arg(50000);

/// The whole file path a tool takes: readMetaCgFile on a graph written to a
/// temporary file (page-cache warm after the first round).
void BM_MetaCgReadFile(benchmark::State& state) {
    binsim::AppModel model = modelOfSize(static_cast<std::uint32_t>(state.range(0)));
    cg::MetaCgBuilder builder;
    cg::CallGraph graph = builder.build(model.toSourceModel());
    const std::filesystem::path path =
        std::filesystem::temp_directory_path() /
        ("capi_bench_metacg_" + std::to_string(::getpid()) + "_" +
         std::to_string(state.range(0)) + ".json");
    cg::writeMetaCgFile(graph, path.string());
    const auto bytes = static_cast<std::int64_t>(std::filesystem::file_size(path));
    for (auto _ : state) {
        cg::CallGraph parsed = cg::readMetaCgFile(path.string());
        benchmark::DoNotOptimize(parsed.size());
    }
    std::filesystem::remove(path);
    state.SetBytesProcessed(state.iterations() * bytes);
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MetaCgReadFile)->Arg(10000)->Arg(50000);

/// CallGraph::lookup of every name once, in a seeded shuffled order.
void BM_CallGraphLookup(benchmark::State& state) {
    const cg::CallGraph& graph =
        scaledOpenFoamGraph(static_cast<std::uint32_t>(state.range(0)));
    std::vector<std::string> names;
    names.reserve(graph.size());
    for (cg::FunctionId id = 0; id < graph.size(); ++id) {
        names.push_back(graph.name(id));
    }
    support::SplitMix64 rng(0xC0FFEE);
    for (std::size_t i = names.size(); i > 1; --i) {
        std::swap(names[i - 1], names[rng.nextBelow(i)]);
    }
    for (auto _ : state) {
        std::uint64_t sum = 0;
        for (const std::string& name : names) sum += graph.lookup(name);
        benchmark::DoNotOptimize(sum);
    }
    state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(names.size()));
}
BENCHMARK(BM_CallGraphLookup)->Arg(50000);

// --- Node-vs-CSR traversal -------------------------------------------------
// The same whole-graph edge walk (every callee row, then every caller row),
// first through CallGraph::Node's per-node vectors, then through the flat
// CsrView arrays. The delta is the cache-locality win the CSR-backed
// selectors inherit.

void BM_NodeAdjacencyTraversal(benchmark::State& state) {
    const cg::CallGraph& graph =
        scaledOpenFoamGraph(static_cast<std::uint32_t>(state.range(0)));
    for (auto _ : state) {
        std::uint64_t sum = 0;
        for (cg::FunctionId id = 0; id < graph.size(); ++id) {
            for (cg::FunctionId callee : graph.callees(id)) sum += callee;
            for (cg::FunctionId caller : graph.callers(id)) sum += caller;
        }
        benchmark::DoNotOptimize(sum);
    }
    state.SetItemsProcessed(state.iterations() * 2 * graph.edgeCount());
}
BENCHMARK(BM_NodeAdjacencyTraversal)->Arg(10000)->Arg(50000)->Arg(200000);

void BM_CsrAdjacencyTraversal(benchmark::State& state) {
    const cg::CallGraph& graph =
        scaledOpenFoamGraph(static_cast<std::uint32_t>(state.range(0)));
    cg::CsrView csr(graph);
    for (auto _ : state) {
        std::uint64_t sum = 0;
        for (cg::FunctionId id = 0; id < csr.size(); ++id) {
            for (cg::FunctionId callee : csr.callees(id)) sum += callee;
            for (cg::FunctionId caller : csr.callers(id)) sum += caller;
        }
        benchmark::DoNotOptimize(sum);
    }
    state.SetItemsProcessed(state.iterations() * 2 * csr.edgeCount());
}
BENCHMARK(BM_CsrAdjacencyTraversal)->Arg(10000)->Arg(50000)->Arg(200000);

void BM_CsrViewBuild(benchmark::State& state) {
    const cg::CallGraph& graph =
        scaledOpenFoamGraph(static_cast<std::uint32_t>(state.range(0)));
    for (auto _ : state) {
        cg::CsrView csr(graph);
        benchmark::DoNotOptimize(csr.edgeCount());
    }
    state.SetItemsProcessed(state.iterations() * graph.size());
}
BENCHMARK(BM_CsrViewBuild)->Arg(10000)->Arg(50000)->Arg(200000);

void BM_LuleshModelGeneration(benchmark::State& state) {
    for (auto _ : state) {
        binsim::AppModel model = apps::makeLulesh();
        benchmark::DoNotOptimize(model.functions.size());
    }
}
BENCHMARK(BM_LuleshModelGeneration);

}  // namespace

BENCHMARK_MAIN();
