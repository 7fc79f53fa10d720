// DSO lifecycle -> call-graph mirroring through the mutation journal.
//
// The runtime adapts to dlopen/dlclose at the sled level (XRayRuntime
// deregisters objects, DynCapi re-resolves), but selection quality depends on
// the whole-program call graph tracking the same lifecycle: a dlclosed
// plugin's functions must stop matching selectors, and a re-dlopened one
// must match again. Rebuilding the graph wholesale would defeat incremental
// selection — every CsrView and cached stage result would be discarded.
//
// DsoGraphBinding routes the update through CallGraph's journaled mutation
// API instead: unload() is a bulk tombstone removal, reload() re-adds the
// remembered descs and re-links the remembered edges by name. Downstream,
// the SelectorCache keeps every stage whose footprint avoided the plugin's
// neighborhood — the turnaround the paper's runtime-adaptability argument
// needs — and the new generation's CsrView snapshot is built once and
// shared by every stage that re-runs.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "cg/call_graph.hpp"
#include "cg/types.hpp"

namespace capi::dyncapi {

class DsoGraphBinding {
public:
    /// Binds the graph nodes named in `names` (unknown names are ignored).
    /// The binding starts in the loaded state.
    DsoGraphBinding(const cg::CallGraph& graph,
                    const std::vector<std::string>& names);

    /// dlclose: captures the bound subgraph (descs plus every incident call
    /// and override edge, by name) and bulk-removes it through the journal.
    /// Returns the number of nodes removed. No-op when already unloaded.
    std::size_t unload(cg::CallGraph& graph);

    /// dlopen: re-adds the captured descs (fresh ids) and re-links the
    /// captured edges whose endpoints resolve in the current graph (edges to
    /// functions that disappeared in the meantime are dropped). Returns the
    /// number of nodes re-added. No-op when already loaded.
    std::size_t reload(cg::CallGraph& graph);

    bool loaded() const noexcept { return loaded_; }
    const std::vector<std::string>& names() const noexcept { return names_; }

private:
    struct EdgeByName {
        std::string from;
        std::string to;
        bool isOverride = false;  ///< from = base, to = derived.
    };

    std::vector<std::string> names_;
    std::vector<cg::FunctionDesc> descs_;  ///< Captured at unload.
    std::vector<EdgeByName> edges_;        ///< Captured at unload, deduplicated.
    bool loaded_ = true;
};

}  // namespace capi::dyncapi
