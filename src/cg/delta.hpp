// Typed call-graph mutation journal: the substrate of incremental selection.
//
// Every CallGraph mutation appends one record tagged with the generation
// stamp the mutation produced. Downstream layers ask the graph for the
// aggregated delta between two stamps (CallGraph::deltaSince) and recompute
// only what the delta touches: SelectorCache keeps cached stage results whose
// recorded read footprint is disjoint from the delta's dirty set,
// InlineCompensationCache replays its last answer while the caller relation
// is unchanged, and the budget planner keeps its table across metric-only
// touches. (CsrView does not read the journal: a snapshot is one full build
// per generation.) The journal is bounded; when history has been trimmed
// past the requested stamp, deltaSince returns nullopt and consumers fall
// back to the full-invalidation path, so the journal is purely an
// optimization channel — never a correctness dependency.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "cg/types.hpp"

namespace capi::cg {

/// What one journal record describes. Edge records carry both endpoints;
/// node records carry the node in `a`.
enum class DeltaKind : std::uint8_t {
    NodeAdd,
    NodeRemove,
    CallEdgeAdd,      ///< a = caller, b = callee.
    CallEdgeRemove,
    OverrideAdd,      ///< a = base, b = derived.
    OverrideRemove,
    MetricTouch,      ///< CallGraph::touchMetrics — metrics only, name/flags
                      ///< untouched.
    DescTouch,        ///< CallGraph::mutateDesc / merge sighting — any desc
                      ///< field except the name may have changed.
    EntryChange,      ///< setEntryPoint.
};

struct DeltaRecord {
    std::uint64_t generation = 0;  ///< Stamp the mutation produced.
    FunctionId a = kInvalidFunction;
    FunctionId b = kInvalidFunction;
    DeltaKind kind = DeltaKind::DescTouch;
};

/// Aggregated journal slice between two generation stamps, grouped by
/// mutation type so each consumer reads only the relations it cares about.
/// Records are NOT cancelled against each other (an edge added and removed
/// within the slice appears in both lists): consumers re-read the affected
/// rows from the live graph, so over-reporting is harmless and keeps
/// aggregation O(records).
struct GraphDelta {
    std::uint64_t fromGeneration = 0;
    std::uint64_t toGeneration = 0;

    std::vector<FunctionId> addedNodes;
    std::vector<FunctionId> removedNodes;
    std::vector<std::pair<FunctionId, FunctionId>> addedCallEdges;
    std::vector<std::pair<FunctionId, FunctionId>> removedCallEdges;
    std::vector<std::pair<FunctionId, FunctionId>> addedOverrides;   ///< (base, derived)
    std::vector<std::pair<FunctionId, FunctionId>> removedOverrides;
    std::vector<FunctionId> metricTouches;
    std::vector<FunctionId> descTouches;
    bool entryChanged = false;

    bool empty() const {
        return addedNodes.empty() && removedNodes.empty() &&
               addedCallEdges.empty() && removedCallEdges.empty() &&
               addedOverrides.empty() && removedOverrides.empty() &&
               metricTouches.empty() && descTouches.empty() && !entryChanged;
    }

    /// Visits every aggregated change as fn(kind, a, b) — THE enumeration
    /// point every dirty-set derivation builds on (SelectorCache's per-kind
    /// sets, the budget planner's structural check), so a new DeltaKind is routed by
    /// extending switches the compiler checks rather than hand-rolled field
    /// loops. Edge kinds
    /// carry both endpoints; node/touch/entry kinds carry the node in `a`
    /// and kInvalidFunction in `b`.
    template <typename Fn>
    void forEachChange(Fn&& fn) const {
        for (FunctionId id : addedNodes) fn(DeltaKind::NodeAdd, id, kInvalidFunction);
        for (FunctionId id : removedNodes) fn(DeltaKind::NodeRemove, id, kInvalidFunction);
        for (const auto& [a, b] : addedCallEdges) fn(DeltaKind::CallEdgeAdd, a, b);
        for (const auto& [a, b] : removedCallEdges) fn(DeltaKind::CallEdgeRemove, a, b);
        for (const auto& [a, b] : addedOverrides) fn(DeltaKind::OverrideAdd, a, b);
        for (const auto& [a, b] : removedOverrides) fn(DeltaKind::OverrideRemove, a, b);
        for (FunctionId id : metricTouches) fn(DeltaKind::MetricTouch, id, kInvalidFunction);
        for (FunctionId id : descTouches) fn(DeltaKind::DescTouch, id, kInvalidFunction);
        if (entryChanged) {
            fn(DeltaKind::EntryChange, kInvalidFunction, kInvalidFunction);
        }
    }
};

}  // namespace capi::cg
