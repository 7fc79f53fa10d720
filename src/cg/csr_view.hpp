// Immutable, data-oriented CSR snapshot of a CallGraph — patchable on deltas.
//
// CallGraph::Node keeps four per-node std::vectors, which is the right shape
// for incremental construction (MetaCG merge, dlopen-time node additions) but
// the wrong shape for analysis: every traversal pointer-chases through
// separately allocated adjacency vectors and drags the cold FunctionDesc
// strings through the cache with it. CsrView flattens each edge relation into
// flat per-node (start, length) rows over one shared edge pool, interns all
// function names into a single arena, and lifts the per-node fields the hot
// paths read (the FunctionMetrics of every node, its FunctionFlags packed
// into one byte, plus a has-a-body bitset) into flat columns. A whole-graph BFS/Tarjan walk or
// metric filter then touches a handful of contiguous allocations instead of
// ~4 per node.
//
// Snapshots are immutable and registered per graph identity + generation:
// snapshot() returns the same shared instance for every caller at the same
// stamp, so all pipeline stages of a run (and repeated runs against an
// unchanged graph) share one view. When the graph's mutation journal still
// covers the previous snapshot's stamp, the new snapshot is built by PATCHING:
// relations a delta does not touch share the previous snapshot's row arrays
// outright, and touched relations re-read only the dirty rows, appending them
// to a per-view tail ("epoch tail") while the bulk edge pool stays shared.
// Past a churn threshold (or when the tail would outgrow the pool) the build
// falls back to a full rebuild, so patching is never worse than O(V + E).
//
// Derived data that only depends on the snapshot is memoized on it: the
// forward closure of the entry point is computed once, on first use, and
// shared by every onCallPathTo evaluated against the same generation.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "cg/delta.hpp"
#include "cg/types.hpp"
#include "support/bitset.hpp"

namespace capi::support {
class ThreadPool;
}

namespace capi::cg {

class CallGraph;

class CsrView {
public:
    /// Registry counters: how snapshots were produced process-wide.
    struct RegistryStats {
        std::uint64_t fullBuilds = 0;   ///< Snapshots built from scratch.
        std::uint64_t patchBuilds = 0;  ///< Snapshots patched from a predecessor.
        std::uint64_t sharedHits = 0;   ///< snapshot() answered from the registry.
        std::uint64_t graphsReleased = 0;  ///< Slots evicted by ~CallGraph.
    };

    /// The shared snapshot of `graph` at its current generation. Built on
    /// first use after a mutation — incrementally when the mutation journal
    /// covers the previous snapshot — and returned shared to every caller at
    /// the same stamp (thread-safe). Large full builds run on the
    /// process-wide support::Executor pool.
    static std::shared_ptr<const CsrView> snapshot(const CallGraph& graph);

    /// Direct full build, bypassing the registry (benchmarks, tests). With a
    /// pool, per-relation size counting and row filling are sharded over
    /// node ranges; the result is bit-identical to the serial build (each
    /// shard writes a disjoint, position-determined slice).
    explicit CsrView(const CallGraph& graph, support::ThreadPool* pool = nullptr);

    /// Patch build: `prev` must be a snapshot of the same graph lineage at
    /// `delta.fromGeneration`. Returns null when the delta's churn exceeds
    /// the patch thresholds (caller falls back to the full build). Row
    /// contents of the result are element-identical to a full rebuild.
    static std::shared_ptr<const CsrView> tryPatch(const CsrView& prev,
                                                   const CallGraph& graph,
                                                   const GraphDelta& delta);

    /// Eagerly drops every registered snapshot of a destroyed graph
    /// (called from ~CallGraph; safe to call for unknown ids).
    static void releaseGraph(std::uint64_t graphId) noexcept;

    /// Process-wide A/B switch for the patch path (benchmarks measure the
    /// full-rebuild baseline by disabling it). Default: enabled.
    static void setIncrementalPatching(bool enabled) noexcept;
    static bool incrementalPatching() noexcept;

    static RegistryStats registryStats() noexcept;
    /// Registered snapshot chains currently alive (tests).
    static std::size_t registrySlotCount() noexcept;

    std::uint64_t generation() const noexcept { return generation_; }
    std::size_t size() const noexcept { return nodeCount_; }
    std::size_t edgeCount() const noexcept { return callEdgeCount_; }
    FunctionId entryPoint() const noexcept { return entry_; }
    /// True when this view was built by patching a predecessor.
    bool patched() const noexcept { return patched_; }

    // Adjacency rows. Each span aliases the shared edge pool or this view's
    // patch tail; element order is the CallGraph's (sorted, unique), so row
    // contents are comparable 1:1.
    std::span<const FunctionId> callees(FunctionId id) const { return callees_->row(id); }
    std::span<const FunctionId> callers(FunctionId id) const { return callers_->row(id); }
    std::span<const FunctionId> overrides(FunctionId id) const { return overrides_->row(id); }
    std::span<const FunctionId> overriddenBy(FunctionId id) const {
        return overriddenBy_->row(id);
    }

    std::size_t calleeCount(FunctionId id) const { return callees_->len[id]; }
    std::size_t callerCount(FunctionId id) const { return callers_->len[id]; }

    /// Mangled name, viewing the interned arena (valid as long as the view).
    std::string_view name(FunctionId id) const { return names_->view(id); }

    /// Flat copy of desc(id).metrics: the metric filters' and
    /// statementAggregation's hot read, without touching the FunctionDesc.
    const FunctionMetrics& metrics(FunctionId id) const { return (*metrics_)[id]; }
    std::uint32_t numStatements(FunctionId id) const {
        return metrics(id).numStatements;
    }

    /// packFlags(desc(id).flags): one byte per node, the flag filters' read.
    std::uint8_t flagBits(FunctionId id) const { return (*flags_)[id]; }
    FunctionFlags flags(FunctionId id) const { return unpackFlags(flagBits(id)); }

    /// Bit per node: desc(id).flags.hasBody. Selection restricts its result
    /// to these instrumentable definitions with one word-wise AND.
    const support::DynamicBitset& definedMask() const { return *hasBody_; }

    /// Forward closure of entryPoint() over callee edges (entry included;
    /// empty without an entry point). Computed on the first call — sharded
    /// over `pool` when given, bit-identical either way — and shared by
    /// every later caller of this snapshot, concurrent ones included. A
    /// patched snapshot starts without it.
    const support::DynamicBitset& reachableFromEntry(
        support::ThreadPool* pool = nullptr) const;

private:
    /// High bit of `start` routes a row into the view-local tail instead of
    /// the shared pool (patched rows; edge pools stay < 2^31 entries).
    static constexpr std::uint32_t kTailBit = 0x80000000u;

    struct Rows {
        std::shared_ptr<const std::vector<FunctionId>> pool;
        std::vector<FunctionId> tail;        ///< Patched rows live here.
        std::vector<std::uint32_t> start;    ///< Pool index, or kTailBit | tail index.
        std::vector<std::uint32_t> len;

        std::span<const FunctionId> row(FunctionId id) const {
            const std::uint32_t s = start[id];
            const FunctionId* base = (s & kTailBit) != 0
                                         ? tail.data() + (s & ~kTailBit)
                                         : pool->data() + s;
            return {base, base + len[id]};
        }
    };

    struct NameArena {
        std::shared_ptr<const std::string> pool;
        std::string tail;
        std::vector<std::uint32_t> start;
        std::vector<std::uint32_t> len;

        std::string_view view(FunctionId id) const {
            const std::uint32_t s = start[id];
            const char* base = (s & kTailBit) != 0 ? tail.data() + (s & ~kTailBit)
                                                   : pool->data() + s;
            return {base, len[id]};
        }
    };

    CsrView() = default;  ///< For tryPatch.

    /// Full build of one relation (serial reference or node-sharded);
    /// defined in csr_view.cpp, instantiated only there.
    template <typename RowGetter>
    static std::shared_ptr<const Rows> buildRows(std::size_t n, RowGetter&& rowOf,
                                                 support::ThreadPool* pool);

    std::uint64_t generation_ = 0;
    std::size_t nodeCount_ = 0;
    std::size_t callEdgeCount_ = 0;
    FunctionId entry_ = kInvalidFunction;
    bool patched_ = false;
    std::shared_ptr<const Rows> callees_;
    std::shared_ptr<const Rows> callers_;
    std::shared_ptr<const Rows> overrides_;
    std::shared_ptr<const Rows> overriddenBy_;
    std::shared_ptr<const NameArena> names_;
    std::shared_ptr<const std::vector<FunctionMetrics>> metrics_;
    std::shared_ptr<const std::vector<std::uint8_t>> flags_;
    std::shared_ptr<const support::DynamicBitset> hasBody_;
    mutable std::once_flag entryClosureOnce_;
    mutable support::DynamicBitset entryClosure_;
};

}  // namespace capi::cg
