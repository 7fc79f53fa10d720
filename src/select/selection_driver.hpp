// Selection driver: the `capi` command-line front end as a library facade.
//
// Runs the full selection phase from Fig. 3: parse the spec (with module
// imports), evaluate the selector pipeline on the whole-program call graph,
// restrict to instrumentable definitions, apply inlining compensation, and
// emit the IC. The returned statistics are exactly the columns of Table I.
#pragma once

#include <optional>
#include <string>

#include "cg/call_graph.hpp"
#include "select/ic.hpp"
#include "select/inline_compensation.hpp"
#include "select/pipeline.hpp"
#include "spec/module_resolver.hpp"

namespace capi::select {

struct SelectionOptions {
    std::string specText;
    std::string specName;                       ///< For provenance/reporting.
    const spec::ModuleResolver* resolver = nullptr;
    const SymbolOracle* symbolOracle = nullptr; ///< Enables inline compensation.
    bool applyInlineCompensation = true;
    /// Restrict the IC to functions with a body (declarations such as MPI
    /// library entry points cannot carry XRay sleds).
    bool definedOnly = true;
    /// Parallel evaluation and cross-run memoization (see PipelineOptions).
    support::ThreadPool* pool = nullptr;
    SelectorCache* cache = nullptr;
    /// Optional journal-validated memo for the compensation step: refinement
    /// epochs whose graph delta is metric-only replay the previous walk.
    InlineCompensationCache* inlineCache = nullptr;
};

struct SelectionReport {
    InstrumentationConfig ic;
    double selectionSeconds = 0.0;  ///< Table I "Time".
    std::size_t graphNodes = 0;
    std::size_t selectedPre = 0;    ///< Table I "#selected pre".
    std::size_t selectedFinal = 0;  ///< Table I "#selected".
    std::size_t added = 0;          ///< Table I "#added".
    bool inlineCompensationReused = false;  ///< Cache replayed the caller walk.
    PipelineRun pipelineRun;        ///< Per-stage diagnostics.

    double selectedPrePercent() const {
        return graphNodes == 0 ? 0.0
                               : 100.0 * static_cast<double>(selectedPre) /
                                     static_cast<double>(graphNodes);
    }
    double selectedFinalPercent() const {
        return graphNodes == 0 ? 0.0
                               : 100.0 * static_cast<double>(selectedFinal) /
                                     static_cast<double>(graphNodes);
    }
};

/// Runs the complete selection phase. Throws on spec errors.
SelectionReport runSelection(const cg::CallGraph& graph,
                             const SelectionOptions& options);

}  // namespace capi::select
