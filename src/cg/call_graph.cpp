#include "cg/call_graph.hpp"

#include <algorithm>
#include <atomic>

#include "cg/csr_view.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/error.hpp"
#include "support/timer.hpp"

namespace capi::cg {

namespace {

/// Journal bound: above this the oldest half is trimmed and the floor rises,
/// turning very old deltaSince() requests into full-invalidation answers.
/// Sized so a dlopen of a mid-sized DSO (thousands of nodes/edges) still
/// fits between two selection runs.
constexpr std::size_t kJournalCap = 1 << 16;

}  // namespace

void CallGraph::throwRenameError(const std::string& name) {
    throw support::Error("mutateDesc must not rename '" + name +
                         "': the name is the lookup index key");
}

void CallGraph::throwDeadNodeError(FunctionId id) {
    throw support::Error("operation on removed function id " +
                         std::to_string(id));
}

std::uint64_t CallGraph::nextGenerationStamp() {
    // Process-global so a stamp never repeats across graph instances: a
    // cache entry stored for one graph can never be served for another that
    // happens to have seen the same number of mutations.
    static std::atomic<std::uint64_t> counter{0};
    return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

std::uint64_t CallGraph::nextGraphId() {
    static std::atomic<std::uint64_t> counter{0};
    return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

CallGraph::CallGraph() = default;

CallGraph::~CallGraph() {
    releaseSnapshots();
}

void CallGraph::releaseSnapshots() noexcept {
    if (graphId_ != 0) {
        CsrView::releaseGraph(graphId_);
    }
}

CallGraph::CallGraph(const CallGraph& other)
    : nodes_(other.nodes_),
      nameSlots_(other.nameSlots_),
      entry_(other.entry_),
      aliveCount_(other.aliveCount_),
      generation_(other.generation_),
      graphId_(nextGraphId()),
      journal_(),
      // The copy shares the original's content stamp but starts a fresh
      // lineage: deltas are answerable from the copied revision onward.
      journalFloor_(other.generation_),
      drainMark_(other.generation_) {}

CallGraph& CallGraph::operator=(const CallGraph& other) {
    if (this == &other) {
        return *this;
    }
    releaseSnapshots();
    nodes_ = other.nodes_;
    nameSlots_ = other.nameSlots_;
    entry_ = other.entry_;
    aliveCount_ = other.aliveCount_;
    generation_ = other.generation_;
    graphId_ = nextGraphId();
    journal_.clear();
    journalFloor_ = other.generation_;
    drainMark_ = other.generation_;
    return *this;
}

CallGraph::CallGraph(CallGraph&& other) noexcept
    : nodes_(std::move(other.nodes_)),
      nameSlots_(std::move(other.nameSlots_)),
      entry_(other.entry_),
      aliveCount_(other.aliveCount_),
      generation_(other.generation_),
      graphId_(other.graphId_),
      journal_(std::move(other.journal_)),
      journalFloor_(other.journalFloor_),
      drainMark_(other.drainMark_) {
    other.graphId_ = 0;  // The husk no longer owns registered snapshots.
    other.entry_.reset();
    other.aliveCount_ = 0;  // Its name index is empty: the load must match.
}

CallGraph& CallGraph::operator=(CallGraph&& other) noexcept {
    if (this == &other) {
        return *this;
    }
    releaseSnapshots();
    nodes_ = std::move(other.nodes_);
    nameSlots_ = std::move(other.nameSlots_);
    entry_ = other.entry_;
    aliveCount_ = other.aliveCount_;
    generation_ = other.generation_;
    graphId_ = other.graphId_;
    journal_ = std::move(other.journal_);
    journalFloor_ = other.journalFloor_;
    drainMark_ = other.drainMark_;
    other.graphId_ = 0;
    other.entry_.reset();
    other.aliveCount_ = 0;
    return *this;
}

void CallGraph::journalAppend(DeltaKind kind, FunctionId a, FunctionId b) {
    if (journal_.size() >= kJournalCap) {
        // Trim the oldest half; the floor rises to the newest trimmed stamp,
        // so deltaSince() for anything at or before it reports "history
        // gone" instead of a partial delta.
        const std::size_t keep = kJournalCap / 2;
        const std::size_t drop = journal_.size() - keep;
        journalFloor_ = journal_[drop - 1].generation;
        journal_.erase(journal_.begin(),
                       journal_.begin() + static_cast<std::ptrdiff_t>(drop));
    }
    journal_.push_back(DeltaRecord{generation_, a, b, kind});
}

std::optional<GraphDelta> CallGraph::deltaSince(std::uint64_t generation) const {
    if (generation < journalFloor_ || generation > generation_) {
        return std::nullopt;
    }
    auto it = std::upper_bound(
        journal_.begin(), journal_.end(), generation,
        [](std::uint64_t gen, const DeltaRecord& rec) { return gen < rec.generation; });
    // Stamps are process-global, so a stamp issued to a DIFFERENT graph can
    // fall numerically inside [journalFloor_, generation_]. Answering for it
    // would hand a caller holding another graph's revision a bogus partial
    // delta (and let a shared SelectorCache revive that graph's entries
    // here). Stamps are process-unique, so "this graph issued `generation`"
    // is exact: it is the current stamp, the floor stamp, or some journaled
    // record's stamp.
    const bool issuedHere =
        generation == generation_ || generation == journalFloor_ ||
        (it != journal_.begin() && std::prev(it)->generation == generation);
    if (!issuedHere) {
        return std::nullopt;
    }
    GraphDelta delta;
    delta.fromGeneration = generation;
    delta.toGeneration = generation_;
    for (; it != journal_.end(); ++it) {
        switch (it->kind) {
            case DeltaKind::NodeAdd: delta.addedNodes.push_back(it->a); break;
            case DeltaKind::NodeRemove: delta.removedNodes.push_back(it->a); break;
            case DeltaKind::CallEdgeAdd:
                delta.addedCallEdges.emplace_back(it->a, it->b);
                break;
            case DeltaKind::CallEdgeRemove:
                delta.removedCallEdges.emplace_back(it->a, it->b);
                break;
            case DeltaKind::OverrideAdd:
                delta.addedOverrides.emplace_back(it->a, it->b);
                break;
            case DeltaKind::OverrideRemove:
                delta.removedOverrides.emplace_back(it->a, it->b);
                break;
            case DeltaKind::MetricTouch: delta.metricTouches.push_back(it->a); break;
            case DeltaKind::DescTouch: delta.descTouches.push_back(it->a); break;
            case DeltaKind::EntryChange: delta.entryChanged = true; break;
        }
    }
    return delta;
}

GraphDelta CallGraph::drainDelta() {
    std::optional<GraphDelta> delta = deltaSince(drainMark_);
    drainMark_ = generation_;
    if (delta.has_value()) {
        return std::move(*delta);
    }
    // History trimmed past the drain mark: report "everything changed" the
    // only sound way available — every live node as added, entry changed.
    // Tombstones stay out: addedNodes never names dead ids, so a consumer
    // mirroring the drain cannot resurrect dlclosed functions.
    GraphDelta full;
    full.fromGeneration = journalFloor_;
    full.toGeneration = generation_;
    full.entryChanged = true;
    for (FunctionId id = 0; id < nodes_.size(); ++id) {
        if (nodes_[id].alive) {
            full.addedNodes.push_back(id);
        }
    }
    return full;
}

bool insertSorted(std::vector<FunctionId>& vec, FunctionId value) {
    auto it = std::lower_bound(vec.begin(), vec.end(), value);
    if (it != vec.end() && *it == value) {
        return false;
    }
    vec.insert(it, value);
    return true;
}

bool eraseSorted(std::vector<FunctionId>& vec, FunctionId value) {
    auto it = std::lower_bound(vec.begin(), vec.end(), value);
    if (it == vec.end() || *it != value) {
        return false;
    }
    vec.erase(it);
    return true;
}

bool containsSorted(const std::vector<FunctionId>& vec, FunctionId value) {
    return std::binary_search(vec.begin(), vec.end(), value);
}

std::size_t CallGraph::findNameSlot(std::string_view name,
                                    std::uint64_t hash) const {
    const std::size_t mask = nameSlots_.size() - 1;
    for (std::size_t i = hash & mask;; i = (i + 1) & mask) {
        const NameSlot& slot = nameSlots_[i];
        if (slot.id == kInvalidFunction ||
            (slot.hash == hash && nodes_[slot.id].desc.name == name)) {
            return i;
        }
    }
}

void CallGraph::growNameIndex() {
    std::vector<NameSlot> grown(nameSlots_.empty() ? 16 : 2 * nameSlots_.size());
    const std::size_t mask = grown.size() - 1;
    for (const NameSlot& slot : nameSlots_) {
        if (slot.id == kInvalidFunction) {
            continue;
        }
        std::size_t i = slot.hash & mask;
        while (grown[i].id != kInvalidFunction) {
            i = (i + 1) & mask;
        }
        grown[i] = slot;
    }
    nameSlots_ = std::move(grown);
}

void CallGraph::eraseNameSlot(std::size_t slot) {
    // Walk the rest of the probe run and pull back every entry whose home
    // slot does not lie cyclically in (slot, j]: with `slot` free it could
    // no longer be reached. The run ends at the first free slot.
    const std::size_t mask = nameSlots_.size() - 1;
    for (std::size_t j = (slot + 1) & mask; nameSlots_[j].id != kInvalidFunction;
         j = (j + 1) & mask) {
        const std::size_t home = nameSlots_[j].hash & mask;
        if (((j - home) & mask) >= ((j - slot) & mask)) {
            nameSlots_[slot] = nameSlots_[j];
            slot = j;
        }
    }
    nameSlots_[slot] = NameSlot{};
}

FunctionId CallGraph::addFunction(FunctionDesc desc) {
    generation_ = nextGenerationStamp();
    if (2 * (aliveCount_ + 1) > nameSlots_.size()) {
        growNameIndex();
    }
    const std::uint64_t hash = hashName(desc.name);
    const std::size_t slot = findNameSlot(desc.name, hash);
    if (const FunctionId found = nameSlots_[slot].id; found != kInvalidFunction) {
        Node& existing = nodes_[found];
        // A definition sighting supplies the authoritative metadata; merge so
        // declaration-only TUs do not erase what the defining TU recorded.
        if (desc.flags.hasBody && !existing.desc.flags.hasBody) {
            existing.desc = std::move(desc);
        } else if (desc.flags.hasBody && existing.desc.flags.hasBody) {
            // Two definitions (inline functions in headers): keep first, but
            // accumulate flags that any sighting may set.
            existing.desc.flags.inlineSpecified |= desc.flags.inlineSpecified;
            existing.desc.flags.addressTaken |= desc.flags.addressTaken;
        } else {
            existing.desc.flags.addressTaken |= desc.flags.addressTaken;
        }
        // Any merge may rewrite flags/metrics; the name cannot change.
        journalAppend(DeltaKind::DescTouch, found);
        return found;
    }
    FunctionId id = static_cast<FunctionId>(nodes_.size());
    nodes_.push_back(Node{std::move(desc), {}, {}, {}, {}, true});
    const std::string& name = nodes_.back().desc.name;
    nameSlots_[slot] = NameSlot{hash, id};
    ++aliveCount_;
    journalAppend(DeltaKind::NodeAdd, id);
    if (!entry_.has_value() && name == "main") {
        // No explicit entry: entryPoint() falls back to lookup("main"), so
        // this add silently changed it. Journal that, or cached traversal
        // results anchored on the old (absent) entry would survive.
        journalAppend(DeltaKind::EntryChange, id);
    }
    return id;
}

void CallGraph::addCallEdge(FunctionId caller, FunctionId callee) {
    requireAlive(caller);
    requireAlive(callee);
    if (insertSorted(nodes_[caller].callees, callee)) {
        insertSorted(nodes_[callee].callers, caller);
        generation_ = nextGenerationStamp();
        journalAppend(DeltaKind::CallEdgeAdd, caller, callee);
    }
}

void CallGraph::removeCallEdge(FunctionId caller, FunctionId callee) {
    if (eraseSorted(nodes_[caller].callees, callee)) {
        eraseSorted(nodes_[callee].callers, caller);
        generation_ = nextGenerationStamp();
        journalAppend(DeltaKind::CallEdgeRemove, caller, callee);
    }
}

void CallGraph::addOverride(FunctionId base, FunctionId derived) {
    requireAlive(base);
    requireAlive(derived);
    if (insertSorted(nodes_[derived].overrides, base)) {
        generation_ = nextGenerationStamp();
        journalAppend(DeltaKind::OverrideAdd, base, derived);
    }
    insertSorted(nodes_[base].overriddenBy, derived);
}

void CallGraph::removeFunction(FunctionId id) {
    Node& node = nodes_[id];
    if (!node.alive) {
        return;
    }
    // One stamp covers the whole removal; every journaled record shares it.
    generation_ = nextGenerationStamp();
    for (FunctionId callee : node.callees) {
        eraseSorted(nodes_[callee].callers, id);
        journalAppend(DeltaKind::CallEdgeRemove, id, callee);
    }
    for (FunctionId caller : node.callers) {
        eraseSorted(nodes_[caller].callees, id);
        journalAppend(DeltaKind::CallEdgeRemove, caller, id);
    }
    for (FunctionId base : node.overrides) {
        eraseSorted(nodes_[base].overriddenBy, id);
        journalAppend(DeltaKind::OverrideRemove, base, id);
    }
    for (FunctionId derived : node.overriddenBy) {
        eraseSorted(nodes_[derived].overrides, id);
        journalAppend(DeltaKind::OverrideRemove, id, derived);
    }
    node.callees.clear();
    node.callers.clear();
    node.overrides.clear();
    node.overriddenBy.clear();
    const bool wasImplicitEntry = !entry_.has_value() && node.desc.name == "main";
    eraseNameSlot(findNameSlot(node.desc.name, hashName(node.desc.name)));
    node.desc = FunctionDesc{};
    node.alive = false;
    --aliveCount_;
    if ((entry_.has_value() && *entry_ == id) || wasImplicitEntry) {
        // Explicit entry gone, or the lookup("main") fallback just lost its
        // target — either way entryPoint() changed.
        entry_.reset();
        journalAppend(DeltaKind::EntryChange, id);
    }
    journalAppend(DeltaKind::NodeRemove, id);
}

void CallGraph::removeFunctions(const std::vector<FunctionId>& ids) {
    for (FunctionId id : ids) {
        removeFunction(id);
    }
}

CallGraph::CompactionResult CallGraph::compact() {
    CompactionResult result;
    result.remap.resize(nodes_.size(), kInvalidFunction);
    if (aliveCount_ == nodes_.size()) {
        // Nothing to reclaim: identity remap, content untouched, stamp kept
        // (downstream caches stay valid).
        for (FunctionId id = 0; id < nodes_.size(); ++id) {
            result.remap[id] = id;
        }
        return result;
    }

    const std::uint64_t beginNs = support::probeNowNs();
    FunctionId next = 0;
    for (FunctionId id = 0; id < nodes_.size(); ++id) {
        if (nodes_[id].alive) {
            result.remap[id] = next++;
        }
    }
    result.removed = nodes_.size() - aliveCount_;

    std::vector<Node> compacted;
    compacted.reserve(aliveCount_);
    for (FunctionId id = 0; id < nodes_.size(); ++id) {
        if (!nodes_[id].alive) {
            continue;
        }
        Node node = std::move(nodes_[id]);
        // Tombstones have no incident edges (removeFunction cleaned both
        // directions), so every endpoint here survives. The remap is
        // monotonic over alive ids, so sorted rows stay sorted.
        for (FunctionId& callee : node.callees) {
            callee = result.remap[callee];
        }
        for (FunctionId& caller : node.callers) {
            caller = result.remap[caller];
        }
        for (FunctionId& base : node.overrides) {
            base = result.remap[base];
        }
        for (FunctionId& derived : node.overriddenBy) {
            derived = result.remap[derived];
        }
        compacted.push_back(std::move(node));
    }
    nodes_ = std::move(compacted);
    for (NameSlot& slot : nameSlots_) {
        if (slot.id != kInvalidFunction) {
            slot.id = result.remap[slot.id];
        }
    }
    if (entry_.has_value()) {
        // An explicit entry pointing at a tombstone cannot happen
        // (removeFunction resets entry_), so this always maps to a live id.
        entry_ = result.remap[*entry_];
    }

    // Renumbering invalidates every id-keyed consumer: registered CsrView
    // snapshots hold OLD ids and must never serve as patch predecessors for
    // the new numbering, and no journal suffix can express "all ids moved".
    CsrView::releaseGraph(graphId_);
    generation_ = nextGenerationStamp();
    journal_.clear();
    journalFloor_ = generation_;
    // drainMark_ keeps its pre-compaction stamp, now below the floor: the
    // next drainDelta() answers the full "everything changed" report instead
    // of an empty delta — a drain consumer's mirror still holds OLD ids.

    obs::MetricsRegistry& metrics = obs::MetricsRegistry::global();
    static obs::Counter& compactions =
        metrics.counter("capi_cg_compactions_total");
    static obs::Counter& reclaimed =
        metrics.counter("capi_cg_tombstones_reclaimed_total");
    compactions.add(1);
    reclaimed.add(result.removed);
    obs::TraceRecorder& recorder = obs::TraceRecorder::global();
    if (recorder.enabled()) {
        static const std::uint32_t kCompactSpan =
            obs::TraceRecorder::global().internName("cg.compact");
        recorder.recordComplete(kCompactSpan, obs::SpanCategory::Compaction,
                                beginNs, support::probeNowNs() - beginNs,
                                result.removed);
    }
    return result;
}

bool CallGraph::hasEdge(FunctionId caller, FunctionId callee) const {
    return containsSorted(nodes_[caller].callees, callee);
}

FunctionId CallGraph::lookup(std::string_view name) const {
    if (nameSlots_.empty()) {
        return kInvalidFunction;  // Nothing added yet, or a moved-from graph.
    }
    return nameSlots_[findNameSlot(name, hashName(name))].id;
}

FunctionId CallGraph::entryPoint() const {
    if (entry_.has_value()) {
        return *entry_;
    }
    return lookup("main");
}

std::size_t CallGraph::edgeCount() const {
    std::size_t count = 0;
    for (const Node& n : nodes_) {
        count += n.callees.size();
    }
    return count;
}

}  // namespace capi::cg
