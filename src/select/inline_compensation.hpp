// Inlining compensation (paper Sec. V-E).
//
// XRay sleds are inserted after the inliner has run, so functions inlined at
// every call site have no sled and cannot be patched. The call graph is
// built from source-level information and does not know the compiler's
// inlining decisions, so CaPI post-processes the selection:
//
//  1. Approximate the inlined set: a selected function whose symbol cannot be
//     found in the binary or any dependent DSO is assumed inlined everywhere.
//  2. For each such function, walk the caller relation upward and collect the
//     first non-inlined callers on every path; add them to the selection and
//     drop the inlined function.
//
// This guarantees the inlined function's execution is still measured, albeit
// attributed to its caller.
#pragma once

#include <cstdint>
#include <vector>

#include "cg/call_graph.hpp"
#include "select/function_set.hpp"
#include "select/symbol_oracle.hpp"

namespace capi::cg {
class CsrView;
}

namespace capi::select {

struct InlineCompensationStats {
    std::size_t inlinedRemoved = 0;  ///< Selected functions without a symbol.
    std::size_t callersAdded = 0;    ///< Newly selected compensation callers
                                     ///< (not in the post-removal selection).
    std::vector<cg::FunctionId> removed;
    std::vector<cg::FunctionId> added;
    bool reused = false;  ///< Replayed from an InlineCompensationCache hit.
};

/// Cross-run memo for compensateInlining, validated through the graph's
/// mutation journal. The compensation result depends only on the input
/// selection, the caller relation (call edges, overrides, the node set) and
/// the oracle's per-name verdicts — names are pinned (DescTouch never
/// renames), so metric and desc touches between runs cannot change the
/// outcome. A refinement epoch that only folds visit metrics therefore
/// replays the previous result instead of re-walking the caller relation.
/// The journal is consulted via CallGraph::deltaSince: trimmed history or
/// any structural record (node / call-edge / override add or remove)
/// invalidates, so the cache is purely an optimization channel.
///
/// The same journal check keeps the oracle's per-node symbol verdicts
/// across runs with different inputs: a node's name only appears (NodeAdd)
/// or disappears (NodeRemove), so exactly those verdicts are dropped, and
/// trimmed history or another oracle drops them all. The walk's scratch
/// arrays are reused too, so a run costs its selection and its caller walk,
/// not the graph.
class InlineCompensationCache {
public:
    std::uint64_t reuses() const { return reuses_; }
    std::uint64_t recomputes() const { return recomputes_; }
    void clear() {
        valid_ = false;
        oracle_ = nullptr;
    }

private:
    friend InlineCompensationStats compensateInlining(
        const cg::CallGraph& graph, FunctionSet& selection,
        const SymbolOracle& oracle, InlineCompensationCache* cache);

    /// Per-node memo of oracle.hasSymbol(csr.name(id)) plus the caller
    /// walk's reusable queue. Also used, fresh, by uncached runs.
    struct Scratch {
        enum class Verdict : std::uint8_t { Unknown, Present, Absent };
        std::vector<Verdict> verdicts;
        std::vector<cg::FunctionId> queue;

        /// Sizes the verdict memo for `nodes`; new slots are Unknown.
        void grow(std::size_t nodes);
        bool symbolPresent(const cg::CsrView& csr, const SymbolOracle& oracle,
                           cg::FunctionId id);
    };

    bool valid_ = false;               ///< input_/output_/stats_ replayable.
    std::uint64_t generation_ = 0;     ///< Graph stamp the memo is valid at.
    const SymbolOracle* oracle_ = nullptr;  ///< Identity; verdicts assumed stable.
    FunctionSet input_;                ///< Pre-compensation selection.
    FunctionSet output_;               ///< Post-compensation selection.
    InlineCompensationStats stats_;
    Scratch scratch_;
    std::uint64_t reuses_ = 0;
    std::uint64_t recomputes_ = 0;
};

/// Applies inlining compensation to `selection` in place. With a cache, a
/// repeat call whose input selection matches and whose journal delta since
/// the cached stamp contains no structural change replays the cached result.
InlineCompensationStats compensateInlining(
    const cg::CallGraph& graph, FunctionSet& selection,
    const SymbolOracle& oracle, InlineCompensationCache* cache = nullptr);

}  // namespace capi::select
