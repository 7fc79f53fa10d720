// Immutable, data-oriented CSR snapshot of a CallGraph.
//
// CallGraph::Node keeps four per-node std::vectors, which is the right shape
// for incremental construction (MetaCG merge, dlopen-time node additions) but
// the wrong shape for analysis: every traversal pointer-chases through
// separately allocated adjacency vectors and drags the cold FunctionDesc
// strings through the cache with it. CsrView flattens each edge relation into
// one plain CSR (n + 1 offsets over one edge array), interns all function
// names into a single arena the same way, and lifts the per-node fields the
// hot paths read (the FunctionMetrics of every node, its FunctionFlags packed
// into one byte, plus a has-a-body bitset) into flat columns. A whole-graph
// BFS/Tarjan walk or metric filter then touches a handful of contiguous
// allocations instead of ~4 per node.
//
// A snapshot is always one full build. The graph memoizes the build of its
// current generation: snapshot() returns the same shared instance to every
// caller until the next mutation, so all pipeline stages of a run (and
// repeated runs against an unchanged graph) share one view, and the first
// call after a mutation builds afresh.
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

#include "cg/types.hpp"
#include "support/bitset.hpp"

namespace capi::support {
class ThreadPool;
}

namespace capi::cg {

class CallGraph;

class CsrView {
public:
    /// How snapshot() answered, process-wide.
    struct SnapshotStats {
        std::uint64_t fullBuilds = 0;  ///< Snapshots built (one per generation asked for).
        std::uint64_t sharedHits = 0;  ///< Calls answered with the graph's held view.
    };

    /// The shared snapshot of `graph` at its current generation, held by the
    /// graph. Built on the first call after a mutation, on the process-wide
    /// support::Executor pool; concurrent callers wait for that one build
    /// and share it (thread-safe).
    static std::shared_ptr<const CsrView> snapshot(const CallGraph& graph);

    /// Direct full build, bypassing the graph's held view (benchmarks,
    /// tests). With a pool, per-relation size counting and row filling are
    /// sharded over node ranges; the result is bit-identical to the serial
    /// build (each shard writes a disjoint, position-determined slice).
    explicit CsrView(const CallGraph& graph, support::ThreadPool* pool = nullptr);

    static SnapshotStats snapshotStats() noexcept;

    std::uint64_t generation() const noexcept { return generation_; }
    std::size_t size() const noexcept { return nodeCount_; }
    std::size_t edgeCount() const noexcept { return callees_.items.size(); }
    FunctionId entryPoint() const noexcept { return entry_; }

    // Adjacency rows. Each span aliases the relation's edge array; element
    // order is the CallGraph's (sorted, unique), so row contents are
    // comparable 1:1.
    std::span<const FunctionId> callees(FunctionId id) const { return callees_.row(id); }
    std::span<const FunctionId> callers(FunctionId id) const { return callers_.row(id); }
    std::span<const FunctionId> overrides(FunctionId id) const { return overrides_.row(id); }
    std::span<const FunctionId> overriddenBy(FunctionId id) const {
        return overriddenBy_.row(id);
    }

    std::size_t calleeCount(FunctionId id) const { return callees_.rowSize(id); }
    std::size_t callerCount(FunctionId id) const { return callers_.rowSize(id); }

    /// Mangled name, viewing the interned arena (valid as long as the view).
    std::string_view name(FunctionId id) const {
        const std::span<const char> bytes = names_.row(id);
        return {bytes.data(), bytes.size()};
    }

    /// Flat copy of desc(id).metrics: the metric filters' and
    /// statementAggregation's hot read, without touching the FunctionDesc.
    const FunctionMetrics& metrics(FunctionId id) const { return metrics_[id]; }
    std::uint32_t numStatements(FunctionId id) const {
        return metrics(id).numStatements;
    }

    /// packFlags(desc(id).flags): one byte per node, the flag filters' read.
    std::uint8_t flagBits(FunctionId id) const { return flags_[id]; }
    FunctionFlags flags(FunctionId id) const { return unpackFlags(flagBits(id)); }

    /// Bit per node: desc(id).flags.hasBody. Selection restricts its result
    /// to these instrumentable definitions with one word-wise AND.
    const support::DynamicBitset& definedMask() const { return hasBody_; }

    /// Forward closure of entryPoint() over callee edges (entry included;
    /// empty without an entry point). Computed on the first call — sharded
    /// over `pool` when given, bit-identical either way — and shared by
    /// every later caller of this snapshot, concurrent ones included.
    const support::DynamicBitset& reachableFromEntry(
        support::ThreadPool* pool = nullptr) const;

private:
    /// One flattened relation: node id's row is items[offsets[id],
    /// offsets[id + 1]). `Items` is std::vector<FunctionId> for edges and
    /// std::string for the name arena.
    template <typename Items>
    struct Flat {
        std::vector<std::uint32_t> offsets;  ///< n + 1 entries.
        Items items;

        std::span<const typename Items::value_type> row(FunctionId id) const {
            return {items.data() + offsets[id], items.data() + offsets[id + 1]};
        }
        std::size_t rowSize(FunctionId id) const { return offsets[id + 1] - offsets[id]; }
    };

    /// Fills `out` with rowOf(id) for every id < n in id order (serial
    /// reference or node-sharded); `visit(id)` runs in the copy pass, so
    /// per-node columns ride along. Defined in csr_view.cpp, instantiated
    /// only there.
    template <typename Items, typename RowOf, typename Visit>
    static void flatten(std::size_t n, RowOf&& rowOf, Visit&& visit,
                        support::ThreadPool* pool, Flat<Items>& out);

    std::uint64_t generation_ = 0;
    std::size_t nodeCount_ = 0;
    FunctionId entry_ = kInvalidFunction;
    Flat<std::vector<FunctionId>> callees_;
    Flat<std::vector<FunctionId>> callers_;
    Flat<std::vector<FunctionId>> overrides_;
    Flat<std::vector<FunctionId>> overriddenBy_;
    Flat<std::string> names_;
    std::vector<FunctionMetrics> metrics_;
    std::vector<std::uint8_t> flags_;
    support::DynamicBitset hasBody_;
    mutable std::once_flag entryClosureOnce_;
    mutable support::DynamicBitset entryClosure_;
};

}  // namespace capi::cg
