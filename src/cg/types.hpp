// Basic call-graph value types shared by the MetaCG substrate and selectors.
#pragma once

#include <cstdint>
#include <limits>
#include <string>

namespace capi::cg {

/// Dense index of a function node within a CallGraph.
using FunctionId = std::uint32_t;

inline constexpr FunctionId kInvalidFunction = std::numeric_limits<FunctionId>::max();

/// Static source-level properties a compiler front end can report per function.
/// These drive the metric-based selectors (flops, loopDepth, statements, ...).
struct FunctionMetrics {
    std::uint32_t numStatements = 0;       ///< Source statements in the body.
    std::uint32_t flops = 0;               ///< Floating-point operations (static count).
    std::uint32_t loopDepth = 0;           ///< Maximum loop nesting depth.
    std::uint32_t cyclomaticComplexity = 1;///< McCabe complexity.
    std::uint32_t numCallSites = 0;        ///< Call expressions in the body.
    std::uint32_t numInstructions = 0;     ///< Approximate machine instructions
                                           ///< (XRay threshold pre-filter input).
    std::uint32_t profiledVisits = 0;      ///< Runtime metric: visit count folded
                                           ///< in from the last measurement epoch
                                           ///< (CallGraph::touchMetrics channel).

    bool operator==(const FunctionMetrics&) const = default;
};

/// Structural flags recorded by the call-graph construction.
struct FunctionFlags {
    bool hasBody = false;          ///< Definition seen (not just a declaration).
    bool inlineSpecified = false;  ///< Marked `inline` in source.
    bool inSystemHeader = false;   ///< Defined in a system header.
    bool isVirtual = false;        ///< Virtual member function.
    bool isMpi = false;            ///< An MPI API entry point (MPI_*).
    bool addressTaken = false;     ///< Address used as a function pointer.
    bool hiddenVisibility = false; ///< Not visible in the dynamic symbol table.

    bool operator==(const FunctionFlags&) const = default;
};

/// FunctionFlags packed one bit per field, in declaration order (hasBody is
/// bit 0): the one-byte-per-node form of CsrView's flag column.
constexpr std::uint8_t packFlags(const FunctionFlags& f) {
    return static_cast<std::uint8_t>(
        (f.hasBody ? 1u : 0u) | (f.inlineSpecified ? 2u : 0u) |
        (f.inSystemHeader ? 4u : 0u) | (f.isVirtual ? 8u : 0u) |
        (f.isMpi ? 16u : 0u) | (f.addressTaken ? 32u : 0u) |
        (f.hiddenVisibility ? 64u : 0u));
}

constexpr FunctionFlags unpackFlags(std::uint8_t bits) {
    return {.hasBody = (bits & 1u) != 0,
            .inlineSpecified = (bits & 2u) != 0,
            .inSystemHeader = (bits & 4u) != 0,
            .isVirtual = (bits & 8u) != 0,
            .isMpi = (bits & 16u) != 0,
            .addressTaken = (bits & 32u) != 0,
            .hiddenVisibility = (bits & 64u) != 0};
}

/// One function node: identity, location, flags and static metrics.
struct FunctionDesc {
    std::string name;            ///< Unique (mangled) name; lookup key.
    std::string prettyName;      ///< Human-readable (demangled) name.
    std::string translationUnit; ///< TU the definition lives in ("" = unknown).
    std::string sourceFile;      ///< File of the definition.
    std::uint32_t line = 0;
    std::string signature;       ///< Type signature group (function-pointer resolution).
    FunctionFlags flags;
    FunctionMetrics metrics;
};

}  // namespace capi::cg
