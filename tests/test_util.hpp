// Shared fixtures for building small call graphs in tests, and the fault
// matrix's seed.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "cg/call_graph.hpp"

namespace capi::testutil {

/// The CAPI_FAULT_SEED environment variable (set by the CI fault matrix),
/// 0 when unset. Randomized fault suites XOR it into every parameterized
/// seed, so each matrix leg replays a different deterministic schedule.
inline std::uint64_t envFaultSeed() {
    const char* env = std::getenv("CAPI_FAULT_SEED");
    return env == nullptr ? 0 : std::strtoull(env, nullptr, 10);
}

struct FnSpec {
    std::string name;
    std::uint32_t flops = 0;
    std::uint32_t loopDepth = 0;
    std::uint32_t statements = 1;
    bool inlineSpecified = false;
    bool systemHeader = false;
    bool isMpi = false;
    bool hasBody = true;
};

/// Builds a graph from function specs and name-pair edges.
inline cg::CallGraph makeGraph(const std::vector<FnSpec>& fns,
                               const std::vector<std::pair<std::string, std::string>>& edges) {
    cg::CallGraph graph;
    for (const FnSpec& f : fns) {
        cg::FunctionDesc d;
        d.name = f.name;
        d.prettyName = f.name;
        d.metrics.flops = f.flops;
        d.metrics.loopDepth = f.loopDepth;
        d.metrics.numStatements = f.statements;
        d.flags.inlineSpecified = f.inlineSpecified;
        d.flags.inSystemHeader = f.systemHeader;
        d.flags.isMpi = f.isMpi;
        d.flags.hasBody = f.hasBody;
        graph.addFunction(d);
    }
    for (const auto& [from, to] : edges) {
        graph.addCallEdge(graph.lookup(from), graph.lookup(to));
    }
    return graph;
}

/// Classic solver-chain fixture from the paper's Listing 3:
///   main -> solve -> solveSegregated -> scalarSolve -> Amul
///                                            \-> residual (also called by solve)
///   Amul and residual are compute kernels (flops + loops).
inline cg::CallGraph listing3Graph() {
    return makeGraph(
        {
            {.name = "main", .statements = 5},
            {.name = "solve", .statements = 8},
            {.name = "solveSegregated", .statements = 2},
            {.name = "scalarSolve", .statements = 2},
            {.name = "Amul", .flops = 40, .loopDepth = 2, .statements = 30},
            {.name = "residual", .flops = 25, .loopDepth = 1, .statements = 12},
        },
        {
            {"main", "solve"},
            {"solve", "solveSegregated"},
            {"solveSegregated", "scalarSolve"},
            {"scalarSolve", "Amul"},
            {"scalarSolve", "residual"},
            {"solve", "residual"},
        });
}

}  // namespace capi::testutil
