// Whole-program call graph: the data structure every CaPI selector operates on.
//
// Nodes are stored densely and addressed by FunctionId so selectors can use
// bitsets; edges are deduplicated adjacency vectors kept sorted for binary
// search. Virtual-dispatch relations (overrides / overriddenBy) are recorded
// separately from plain call edges, mirroring MetaCG.
//
// Removal uses tombstones: a removed node keeps its id (FunctionSet universes
// stay stable across dlclose) but loses its name, desc, and every incident
// edge, behaving exactly like an unnamed declaration from then on. Every
// mutation is appended to a bounded typed journal (see cg/delta.hpp) that
// downstream layers read through deltaSince()/drainDelta() to recompute only
// what a runtime update actually touched.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cg/delta.hpp"
#include "cg/types.hpp"

namespace capi::cg {

class CsrView;

class CallGraph {
public:
    struct Node {
        FunctionDesc desc;
        std::vector<FunctionId> callees;      ///< Sorted, unique.
        std::vector<FunctionId> callers;      ///< Sorted, unique.
        std::vector<FunctionId> overrides;    ///< Base methods this one overrides.
        std::vector<FunctionId> overriddenBy; ///< Derived methods overriding this one.
        bool alive = true;                    ///< False once removed (tombstone).
    };

    CallGraph();

    /// Copies get an empty journal (their delta lineage starts at the copied
    /// generation) and hold no CsrView snapshot until one is asked for.
    CallGraph(const CallGraph& other);
    CallGraph& operator=(const CallGraph& other);
    /// Moves carry the journal and the held snapshot along.
    CallGraph(CallGraph&& other) noexcept;
    CallGraph& operator=(CallGraph&& other) noexcept;

    /// Adds a node (or merges metadata into an existing node of the same
    /// name) and returns its id. Merging keeps the definition's metadata:
    /// a declaration-only sighting never downgrades `hasBody`.
    FunctionId addFunction(FunctionDesc desc);

    /// Adds caller->callee; no-op if the edge already exists.
    void addCallEdge(FunctionId caller, FunctionId callee);

    /// Removes caller->callee; no-op (no stamp bump) if absent — including
    /// dead endpoints, whose edges were already cleaned by removeFunction
    /// (removal stays idempotent in any interleaving with node removal).
    void removeCallEdge(FunctionId caller, FunctionId callee);

    /// Records that `derived` overrides `base` (virtual dispatch relation).
    void addOverride(FunctionId base, FunctionId derived);

    /// Tombstones a node: every incident edge (both relations, both
    /// directions) is removed and journaled, the name leaves the lookup
    /// index, and the desc is reset. The id stays valid and size() does not
    /// shrink, so FunctionSets built before the removal keep their universe.
    /// No-op if the node is already dead.
    void removeFunction(FunctionId id);

    /// dlclose-style bulk removal: removeFunction over each id.
    void removeFunctions(const std::vector<FunctionId>& ids);

    /// Result of compact(): the old-id -> new-id mapping callers need to
    /// migrate FunctionSets, cached selections, and any other id-keyed state
    /// across the renumbering.
    struct CompactionResult {
        /// Indexed by pre-compaction id; kInvalidFunction for tombstones.
        /// Alive ids map in order, so relative id order is preserved.
        std::vector<FunctionId> remap;
        std::size_t removed = 0;  ///< Tombstone slots reclaimed.
    };

    /// Reclaims tombstone slots: alive nodes are renumbered densely (order
    /// preserved), dead slots disappear, and size() shrinks to aliveCount().
    /// This is the one operation that breaks id stability, so it returns the
    /// remap and invalidates ALL history: the journal is cleared and the
    /// floor raised to the new stamp, making deltaSince() for any earlier
    /// revision answer nullopt — journal consumers (selector caches) treat
    /// the graph as wholly changed and rebuild. The held CsrView snapshot
    /// (old ids) is dropped at once. No-op (identity remap, no stamp bump)
    /// when there are no tombstones.
    CompactionResult compact();

    bool alive(FunctionId id) const { return nodes_[id].alive; }
    std::size_t aliveCount() const noexcept { return aliveCount_; }

    bool hasEdge(FunctionId caller, FunctionId callee) const;

    FunctionId lookup(std::string_view name) const;  ///< kInvalidFunction if absent.
    bool contains(std::string_view name) const { return lookup(name) != kInvalidFunction; }

    std::size_t size() const noexcept { return nodes_.size(); }

    const Node& node(FunctionId id) const { return nodes_[id]; }
    const FunctionDesc& desc(FunctionId id) const { return nodes_[id].desc; }
    const std::string& name(FunctionId id) const { return nodes_[id].desc.name; }
    const std::vector<FunctionId>& callees(FunctionId id) const { return nodes_[id].callees; }
    const std::vector<FunctionId>& callers(FunctionId id) const { return nodes_[id].callers; }
    const std::vector<FunctionId>& overrides(FunctionId id) const { return nodes_[id].overrides; }
    const std::vector<FunctionId>& overriddenBy(FunctionId id) const {
        return nodes_[id].overriddenBy;
    }

    /// Explicit metadata mutation. There is deliberately no non-const node()
    /// accessor: every mutation must go through a method that bumps the
    /// generation stamp, otherwise SelectorCache entries and CsrView
    /// snapshots keyed on the stamp would keep serving pre-mutation results.
    /// The stamp is bumped BEFORE the mutator runs, so even a mutator that
    /// throws mid-write leaves the graph marked changed rather than serving
    /// a half-mutated revision as fresh. Renaming is rejected (the name is
    /// the name index's key): the write is reverted and an error thrown —
    /// including when the mutator renames and then throws itself.
    /// Journaled as a DescTouch: any field but the name may have changed.
    template <typename Fn>
    void mutateDesc(FunctionId id, Fn&& mutate) {
        requireAlive(id);
        generation_ = nextGenerationStamp();
        journalAppend(DeltaKind::DescTouch, id);
        std::string original = nodes_[id].desc.name;
        try {
            mutate(nodes_[id].desc);
        } catch (...) {
            // Noexcept move: restoring the index key cannot itself throw
            // while an exception is in flight.
            nodes_[id].desc.name = std::move(original);
            throw;
        }
        if (nodes_[id].desc.name != original) {
            nodes_[id].desc.name = std::move(original);
            throwRenameError(nodes_[id].desc.name);
        }
    }

    /// Metric-only mutation: like mutateDesc but the mutator sees only the
    /// FunctionMetrics, and the journal records a MetricTouch — so cached
    /// stage results that read names/flags but no metrics survive the update
    /// (the adaptive controller's per-epoch visit folding uses this).
    template <typename Fn>
    void touchMetrics(FunctionId id, Fn&& mutate) {
        requireAlive(id);
        generation_ = nextGenerationStamp();
        journalAppend(DeltaKind::MetricTouch, id);
        mutate(nodes_[id].desc.metrics);
    }

    /// The program entry point; by convention the node named "main" unless
    /// overridden. kInvalidFunction when no entry is known.
    FunctionId entryPoint() const;
    void setEntryPoint(FunctionId id) {
        entry_ = id;
        generation_ = nextGenerationStamp();
        journalAppend(DeltaKind::EntryChange, id);
    }

    /// Content-version stamp: unique across every graph in the process and
    /// bumped by every mutating call (addFunction/addCallEdge/addOverride/
    /// removeCallEdge/removeFunction/setEntryPoint/mutateDesc/touchMetrics).
    /// Two graphs with the same stamp have the same content, so selector
    /// caches and CsrView snapshots key memoized results on it and drop them
    /// when the graph changes (e.g. a dlopen'd DSO adds nodes at runtime).
    /// All mutation goes through the methods above — there is no
    /// stamp-bypassing mutable access.
    std::uint64_t generation() const noexcept { return generation_; }

    // --- mutation journal ---------------------------------------------------

    /// Aggregated delta from the revision stamped `generation` to the
    /// current revision. nullopt when the journal no longer covers that
    /// stamp (trimmed history, foreign/future stamp): the caller must treat
    /// the whole graph as changed. An engaged empty delta means "same
    /// content".
    std::optional<GraphDelta> deltaSince(std::uint64_t generation) const;

    /// Aggregated delta since the previous drain (or construction), then
    /// advances the drain mark. Non-destructive for other consumers:
    /// deltaSince() remains answerable for any stamp the bounded journal
    /// still covers.
    GraphDelta drainDelta();

    /// Journal records currently retained (diagnostics/tests).
    std::size_t journalSize() const noexcept { return journal_.size(); }

    std::size_t edgeCount() const;

private:
    /// CsrView::snapshot reads and fills the held snapshot below.
    friend class CsrView;

    static std::uint64_t nextGenerationStamp();
    [[noreturn]] static void throwRenameError(const std::string& name);
    [[noreturn]] static void throwDeadNodeError(FunctionId id);

    void requireAlive(FunctionId id) const {
        if (!nodes_[id].alive) {
            throwDeadNodeError(id);
        }
    }

    void journalAppend(DeltaKind kind, FunctionId a,
                       FunctionId b = kInvalidFunction);

    // --- name index ---------------------------------------------------------
    // Name -> id for every alive node: a power-of-two array of slots at most
    // half full (its load is aliveCount_), probed linearly from the name's
    // std::hash<std::string_view>. A slot keeps the full hash, so names are
    // compared (against nodes_[id].desc.name) only when the hashes match.
    // The table doubles when an insert would pass half load, and a removal
    // shifts the rest of its probe run back instead of leaving a tombstone.

    struct NameSlot {
        std::uint64_t hash = 0;
        FunctionId id = kInvalidFunction;  ///< kInvalidFunction: free slot.
    };

    static std::uint64_t hashName(std::string_view name) {
        return std::hash<std::string_view>{}(name);
    }
    /// The slot holding `name`, else the free slot that ends its probe run.
    /// Requires a non-empty table.
    std::size_t findNameSlot(std::string_view name, std::uint64_t hash) const;
    /// Doubles the table (first use: 16 slots) and reinserts every slot.
    void growNameIndex();
    /// Frees `slot` by backward-shift deletion.
    void eraseNameSlot(std::size_t slot);

    std::vector<Node> nodes_;
    std::vector<NameSlot> nameSlots_;
    std::optional<FunctionId> entry_;
    std::size_t aliveCount_ = 0;
    std::uint64_t generation_ = nextGenerationStamp();

    /// Bounded journal, sorted by record generation (stamps are assigned
    /// monotonically within one graph). journalFloor_ is the oldest stamp
    /// deltaSince() can still answer for.
    std::vector<DeltaRecord> journal_;
    std::uint64_t journalFloor_ = generation_;
    std::uint64_t drainMark_ = generation_;

    /// The CsrView of the generation it was built at (its generation()),
    /// shared by every CsrView::snapshot caller until the next mutation;
    /// null until first asked for. The mutex serializes the one build.
    mutable std::mutex snapshotMutex_;
    mutable std::shared_ptr<const CsrView> snapshot_;
};

/// Inserts `value` into a sorted unique vector; returns false if present.
bool insertSorted(std::vector<FunctionId>& vec, FunctionId value);

/// Removes `value` from a sorted unique vector; returns false if absent.
bool eraseSorted(std::vector<FunctionId>& vec, FunctionId value);

/// Binary search in a sorted unique vector.
bool containsSorted(const std::vector<FunctionId>& vec, FunctionId value);

}  // namespace capi::cg
