// Shared fixtures for building small call graphs in tests, the fault
// matrix's seed, and the sampling-gate invariant DynCAPI keeps.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <initializer_list>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cg/call_graph.hpp"
#include "dyncapi/dyncapi.hpp"
#include "scorepsim/measurement.hpp"

namespace capi::testutil {

/// The CAPI_FAULT_SEED environment variable (set by the CI fault matrix),
/// 0 when unset. Randomized fault suites XOR it into every parameterized
/// seed, so each matrix leg replays a different deterministic schedule.
inline std::uint64_t envFaultSeed() {
    const char* env = std::getenv("CAPI_FAULT_SEED");
    return env == nullptr ? 0 : std::strtoull(env, nullptr, 10);
}

/// The sampling-gate invariant after `dyn` applied `policy`: a patched pid
/// is Sampled iff the gate of nameOf(pid) on `measurement` is armed, and
/// then with the everyN of the policy's last entry for that pid.
inline void expectGatesFollowTiers(const dyncapi::DynCapi& dyn,
                                   const xray::XRayRuntime& xr,
                                   scorep::Measurement& measurement,
                                   const select::InstrumentationPolicy& policy) {
    std::unordered_map<xray::PackedId, select::RegionPolicy> winner;
    for (std::size_t i = 0; i < policy.functions.size(); ++i) {
        auto staticId = policy.staticIds.find(policy.functions[i]);
        std::optional<xray::PackedId> pid = staticId != policy.staticIds.end()
                                                ? std::optional(staticId->second)
                                                : dyn.resolveName(policy.functions[i]);
        if (pid.has_value()) {
            winner[*pid] = policy.regions[i];
        }
    }
    for (const auto& [pid, tier] : xr.patchedFunctionTiers()) {
        std::optional<std::string_view> name = dyn.nameOf(pid);
        if (!name.has_value()) {
            continue;  // Hidden: its events reach no region, so it has no gate.
        }
        const std::uint32_t everyN =
            measurement.regionSampling(measurement.defineRegion(std::string(*name))).first;
        if (tier == xray::XRayRuntime::kSampledTier) {
            auto it = winner.find(pid);
            ASSERT_NE(it, winner.end()) << *name;
            EXPECT_EQ(everyN, it->second.sampling.everyN) << *name;
        } else {
            EXPECT_EQ(everyN, 1u) << "gate armed on Full " << *name;
        }
    }
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
